package mapreduce

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"slices"
	"strings"
	"sync"
	"time"
)

// mapPendingBound is the number of values a map task may hold beyond one per
// key before it folds every key's chain to a single value (see
// mapScratch.fold): what bounds a task's memory in values whatever it emits.
// It is read from the table in DESIGN.md §9 (ninth revision): each halving
// below it costs a job with few keys another round of Combine calls per split
// of the size this repository maps, nothing above it is cheaper.
const mapPendingBound = 2048

// slotSeed keys the hash of the map task's index. Keys come from records off
// the wire (dist's workers), so the index keeps what the Go maps it replaces
// gave: a hash nobody outside the process can aim collisions at. FNV, which
// assigns partitions, is unkeyed and is not used to place a key in the table.
var slotSeed = maphash.MakeSeed()

// mapSlot is one slot of the open-addressing index: the key's hash and the
// position of its entry, plus one so that the zero slot is an empty one.
type mapSlot struct {
	hash uint32
	ref  uint32
}

// mapEntry is one distinct key of the task, in first-emit order, with the
// chain of its pending values: first and last index mapScratch.vals.
type mapEntry struct {
	key         string
	first, last int32
}

// sortKey orders a partition's entries: the key's first eight bytes, big
// endian and zero padded, decide nearly every comparison without touching the
// strings; idx names the entry.
type sortKey struct {
	prefix uint64
	idx    int32
}

// mapScratch is everything a map task needs besides its outputs. A task
// takes one from mapScratchPool, and returns it reset: the slices keep their
// capacity and nothing else, so a warm task allocates its outputs and what
// the job's own functions allocate.
type mapScratch struct {
	job     *Job
	slots   []mapSlot  // the index: len a power of two, at most half full
	entries []mapEntry // the distinct keys, in first-emit order
	vals    []Value    // pending values, in emit order
	next    []int32    // next[i] is the value after vals[i] in its key's chain, -1 at the end
	args    []Value    // one key's chain gathered for Combine
	part    []int32    // the partition of each entry
	order   []sortKey  // the entries grouped by partition, then sorted
	counts  []int      // entries per partition
}

// mapScratchPool holds the scratches between tasks. It lets go of them by
// the pool's own rule and nothing here sets a size: a scratch no task took
// for two collections is dropped, one in steady use on its P is kept — at the
// capacity the largest split it has seen grew it to. What a later, smaller
// task pays for that capacity is nothing: see reset.
var mapScratchPool = sync.Pool{New: func() any { return newMapScratch() }}

func newMapScratch() *mapScratch { return &mapScratch{slots: make([]mapSlot, 64)} }

// emit records one pair: one hash, one probe sequence, and the value linked
// to the end of its key's chain. Nothing is combined here; see fold.
func (s *mapScratch) emit(key string, value Value) {
	h := uint32(maphash.String(slotSeed, key))
	v := int32(len(s.vals))
	mask := uint32(len(s.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		slot := s.slots[i]
		if slot.ref == 0 {
			s.slots[i] = mapSlot{h, uint32(len(s.entries)) + 1}
			s.entries = append(s.entries, mapEntry{key, v, v})
			s.vals, s.next = append(s.vals, value), append(s.next, -1)
			if 2*len(s.entries) > len(s.slots) {
				s.grow()
			}
			return
		}
		if e := &s.entries[slot.ref-1]; slot.hash == h && e.key == key {
			s.next[e.last], e.last = v, v
			s.vals, s.next = append(s.vals, value), append(s.next, -1)
			if len(s.vals)-len(s.entries) >= mapPendingBound {
				s.fold()
			}
			return
		}
	}
}

// grow doubles the index, placing every slot again by the hash it stores.
func (s *mapScratch) grow() {
	old := s.slots
	s.slots = make([]mapSlot, 2*len(old))
	mask := uint32(len(s.slots) - 1)
	for _, slot := range old {
		if slot.ref == 0 {
			continue
		}
		i := slot.hash & mask
		for s.slots[i].ref != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = slot
	}
}

// fold is the map-side combiner: every key with more than one pending value
// has them handed to one Combine call, in emit order, and is left holding the
// result — entry i's value is vals[i] afterwards and nothing else is pending.
// Combine is associative over value slices (what MergeOrderedK's fold-ups
// rely on too), and the result of an earlier fold stands first in the next
// one, so the value a key ends with is the left fold of what was emitted.
//
// It compacts in place: entry i's first value was appended when i entries
// already held one each, so vals[i] belongs to entry i or to one before it —
// to a chain already gathered.
func (s *mapScratch) fold() {
	for i := range s.entries {
		e := &s.entries[i]
		v := s.vals[e.first]
		if e.first != e.last {
			s.args = s.args[:0]
			for j := e.first; j >= 0; j = s.next[j] {
				s.args = append(s.args, s.vals[j])
			}
			v = s.job.Combine(e.key, s.args)
			clear(s.args)
		}
		s.vals[i], s.next[i] = v, -1
		e.first, e.last = int32(i), int32(i)
	}
	clear(s.vals[len(s.entries):])
	s.vals, s.next = s.vals[:len(s.entries)], s.next[:len(s.entries)]
}

// cut writes the folded entries out as one payload per partition, each in a
// slice of exactly its length (nil when nothing was emitted to it), with the
// payloads' sizes. This is where a key meets FNV — once, however often it was
// emitted — and where a partition is put in key order: by sorting
// (prefix, entry) pairs in the scratch, reading the strings only where two
// prefixes are equal.
func (s *mapScratch) cut(n int) (parts []Payload, partBytes []int64, bytes int64) {
	s.counts = slices.Grow(s.counts[:0], n)[:n]
	clear(s.counts)
	s.part = s.part[:0]
	for _, e := range s.entries {
		p := Partition(e.key, n)
		s.part = append(s.part, int32(p))
		s.counts[p]++
	}
	// counts[p] becomes where partition p's next pair goes, and is the end
	// of its run once every pair is placed.
	end := 0
	for p, c := range s.counts {
		s.counts[p] = end
		end += c
	}
	s.order = slices.Grow(s.order[:0], end)[:end] // every pair is written below
	for i, e := range s.entries {
		var b [8]byte
		copy(b[:], e.key)
		p := s.part[i]
		s.order[s.counts[p]] = sortKey{binary.BigEndian.Uint64(b[:]), int32(i)}
		s.counts[p]++
	}
	parts, partBytes = make([]Payload, n), make([]int64, n)
	start := 0
	for p, end := range s.counts {
		if run := s.order[start:end]; len(run) > 0 {
			slices.SortFunc(run, s.compare)
			out := make(Payload, len(run))
			for i, k := range run {
				out[i] = Entry{s.entries[k.idx].key, s.vals[k.idx]}
				partBytes[p] += int64(len(out[i].Key)) + valueBytes(s.job, out[i].Value)
			}
			parts[p] = out
			bytes += partBytes[p]
		}
		start = end
	}
	return parts, partBytes, bytes
}

func (s *mapScratch) compare(a, b sortKey) int {
	if c := cmp.Compare(a.prefix, b.prefix); c != 0 {
		return c
	}
	return strings.Compare(s.entries[a.idx].key, s.entries[b.idx].key)
}

// reset leaves the scratch holding no key, no value and no job, whatever
// state the task left it in — a Map or a Combine that panicked included.
//
// Its cost follows the task, not the largest task the scratch has seen: the
// slices are cleared up to their lengths, and an index the task left mostly
// empty (a grown one is between a quarter and half full) is cleared where
// its keys lie. A key sits in the run of taken slots that starts at the slot
// its hash names, so emptying that run from there on, key by key, empties
// the table.
func (s *mapScratch) reset() {
	if 8*len(s.entries) < len(s.slots) {
		mask := uint32(len(s.slots) - 1)
		for _, e := range s.entries {
			for i := uint32(maphash.String(slotSeed, e.key)) & mask; s.slots[i].ref != 0; i = (i + 1) & mask {
				s.slots[i] = mapSlot{}
			}
		}
	} else {
		clear(s.slots)
	}
	clear(s.entries)
	clear(s.vals)
	clear(s.args)
	s.job = nil
	s.entries, s.vals, s.next, s.args = s.entries[:0], s.vals[:0], s.next[:0], s.args[:0]
}

// RunMapTask executes the job's map function over one split and combines
// the emitted values per key per partition (the standard map-side
// combiner, which Slider keeps: §2 uses Combiners *additionally* at the
// reduce side to form the contraction tree).
//
// It is the one map kernel — under Executor, dist's workers, pig and
// RunScratch. Emitted pairs go into one index for all partitions (emit), a
// key's values are combined by one Combine call over all of them (fold), and
// the partitions are cut and sorted once, when the split is done (cut). All
// of that happens in a pooled scratch: the task allocates its outputs.
func RunMapTask(job *Job, split Split) (MapResult, error) {
	if err := job.Validate(); err != nil {
		return MapResult{}, err
	}
	s := mapScratchPool.Get().(*mapScratch)
	defer mapScratchPool.Put(s)
	return s.run(job, split)
}

// run is one task in s, which it leaves reset by whatever path it returns.
func (s *mapScratch) run(job *Job, split Split) (MapResult, error) {
	start := time.Now()
	s.job = job
	// live is what emit writes to. It goes nil when the task is over: an
	// emit the job kept finds nothing, and never the scratch of the task
	// that took this one from the pool next.
	live := s
	defer func() {
		live = nil
		s.reset()
	}()
	emit := func(key string, value Value) {
		if live != nil {
			live.emit(key, value)
		}
	}
	for _, rec := range split.Records {
		if err := job.Map(rec, emit); err != nil {
			return MapResult{}, fmt.Errorf("map task %s: %w", split.ID, err)
		}
	}
	s.fold()
	parts, partBytes, bytes := s.cut(job.NumPartitions())
	return MapResult{
		SplitID:   split.ID,
		Parts:     parts,
		Cost:      time.Since(start),
		Bytes:     bytes,
		PartBytes: partBytes,
		Records:   int64(len(split.Records)),
	}, nil
}
