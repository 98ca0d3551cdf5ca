package mapreduce

import (
	"cmp"
	"fmt"
	"hash/maphash"
	"math/bits"
	"slices"
	"strings"
	"sync"
	"time"
)

// mapPendingBound is the number of values a map task may hold beyond one per
// key before it folds every key's chain to a single value (see
// mapScratch.fold): what bounds a task's memory in values whatever it emits.
// It is read from the table in DESIGN.md §9 (ninth revision): each halving
// below it costs a job with few keys another round of Combine calls.
//
// What reaches it depends on the task. A 200-line wordcount split (2 400
// emits over ~630 keys) never folds before its end; a range of four such
// splits, as a Fixed window maps a multi-split bucket, repeats ~7 900 values
// over ~1 730 keys and folds three times before its final fold, as a
// 2 000-point K-Means split never does. A larger bound saves little of that
// (DESIGN.md §9, nineteenth revision: 8 192 read within the noise of a range
// task) and lets a task hold four times the pending values. Nor is the bound
// free to move: it decides how a key's values are grouped into Combine calls,
// which a combiner that is associative only up to rounding — a float sum in
// any order but left to right — would see in its results. So it stays.
//
// A task whose job declares Job.SumInt64 holds no pending values at all: it
// adds each value into its key's total as it is emitted (emitSum), so the
// bound never comes into play and Combine is never called.
const mapPendingBound = 2048

// slotSeed keys the hash of the map task's index. Keys come from records off
// the wire (dist's workers), so the index keeps what the Go maps it replaces
// gave: a hash nobody outside the process can aim collisions at. FNV, which
// assigns partitions, is unkeyed and is not used to place a key in the table.
var slotSeed = maphash.MakeSeed()

// slotKeys are the index hash's keys, drawn once per process from slotSeed.
var slotKeys = newHashKeys(slotSeed)

// hashKeys keys slotHash: three random words for the mixer, and the maphash
// seed under which a key longer than 16 bytes has its bytes past the eighth
// hashed.
type hashKeys struct {
	seed       maphash.Seed
	k0, k1, k2 uint64
}

// newHashKeys draws a hashKeys' three words from seed.
func newHashKeys(seed maphash.Seed) hashKeys {
	var h maphash.Hash
	h.SetSeed(seed)
	word := func(i byte) uint64 {
		h.Reset()
		h.WriteByte(i)
		return h.Sum64()
	}
	return hashKeys{seed: seed, k0: word(0), k1: word(1), k2: word(2)}
}

// slotHash is the hash the index places a key by, from the prefix emit has
// already read (keyPrefix): that alone names a key of at most eight bytes,
// given its length; a key of 9 to 16 bytes adds its last eight, read as one
// word that overlaps the prefix; a longer one adds maphash of its bytes past
// the eighth. These and the length are mixed with the process's keys by the
// 64×64→128-bit multiply-fold of Go's non-AES memhash (wyhash): two
// multiplies, and no call for a key of up to eight bytes. emit and emitSum
// write it out, since the compiler inlines no function that makes a call.
func slotHash(key string, prefix uint64) uint32 { return slotKeys.hash(key, prefix) }

func (k *hashKeys) hash(key string, prefix uint64) uint32 {
	tail := prefix
	if len(key) > 8 {
		tail = k.tail(key)
	}
	return k.mix(len(key), prefix, tail)
}

// tail is what a key longer than eight bytes adds to its hash: its last eight
// bytes, little endian, up to 16 bytes, and maphash of its bytes past the
// eighth beyond.
func (k *hashKeys) tail(key string) uint64 {
	n := len(key)
	if n > 16 {
		return maphash.String(k.seed, key[8:])
	}
	t := key[n-8:]
	return uint64(t[0]) | uint64(t[1])<<8 | uint64(t[2])<<16 | uint64(t[3])<<24 |
		uint64(t[4])<<32 | uint64(t[5])<<40 | uint64(t[6])<<48 | uint64(t[7])<<56
}

// mix is the hash of an n-byte key from its prefix and its tail.
func (k *hashKeys) mix(n int, prefix, tail uint64) uint32 {
	return uint32(fold(uint64(n)^k.k2, fold(prefix^k.k0, tail^k.k1)))
}

// fold folds the 128-bit product of a and b into 64 bits.
func fold(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// mapSlot is one slot of the open-addressing index: the key's hash and the
// position of its entry, plus one so that the zero slot is an empty one.
type mapSlot struct {
	hash uint32
	ref  uint32
}

// mapEntry is one distinct key of the task, in first-emit order, with its
// prefix (see keyPrefix) and the chain of its pending values: first and last
// index mapScratch.vals. A declared sum's task keeps no chain; its entries'
// totals are in mapScratch.sums.
type mapEntry struct {
	key         string
	prefix      uint64
	first, last int32
}

// keyPrefix is a key's first eight bytes, big endian and zero padded. Two
// keys with the same prefix and length are equal when neither is longer than
// eight bytes, and a longer one differs from another only in its tail. The
// prefixes of two keys compare as the keys do wherever they differ, since a
// key that ends inside the prefix is padded with bytes that sort first.
//
// A key shorter than eight bytes is read as two overlapping words, its first
// and its last four (or two) bytes, each shifted to where its bytes belong:
// no loop over the bytes, whose exit a branch predictor misses on keys of
// mixed lengths.
func keyPrefix(key string) uint64 {
	switch n := len(key); {
	case n >= 8:
		_ = key[7]
		return uint64(key[7]) | uint64(key[6])<<8 | uint64(key[5])<<16 | uint64(key[4])<<24 |
			uint64(key[3])<<32 | uint64(key[2])<<40 | uint64(key[1])<<48 | uint64(key[0])<<56
	case n >= 4:
		t := key[n-4:]
		return (uint64(key[3])|uint64(key[2])<<8|uint64(key[1])<<16|uint64(key[0])<<24)<<32 |
			(uint64(t[3])|uint64(t[2])<<8|uint64(t[1])<<16|uint64(t[0])<<24)<<(64-8*n)
	case n >= 2:
		t := key[n-2:]
		return (uint64(key[1])|uint64(key[0])<<8)<<48 | (uint64(t[1])|uint64(t[0])<<8)<<(64-8*n)
	case n == 1:
		return uint64(key[0]) << 56
	}
	return 0
}

// sortKey orders a partition's entries: the key's prefix decides nearly
// every comparison without touching the strings; idx names the entry.
type sortKey struct {
	prefix uint64
	idx    int32
}

// radixCutover is the shortest partition cut orders with radixSort; shorter
// ones go to slices.SortFunc, which has no 256-bucket passes to amortise. It
// is read from the table in DESIGN.md §9 (nineteenth revision).
const radixCutover = 128

// mapScratch is everything a map task needs besides its outputs. A task
// takes one from mapScratchPool, and returns it reset: the slices keep their
// capacity and nothing else, so a warm task allocates its outputs and what
// the job's own functions allocate.
type mapScratch struct {
	job     *Job
	sum     bool       // job.SumInt64, read once when the task starts
	slots   []mapSlot  // the index: len a power of two, at most half full
	entries []mapEntry // the distinct keys, in first-emit order
	vals    []Value    // pending values, in emit order
	next    []int32    // next[i] is the value after vals[i] in its key's chain, -1 at the end
	args    []Value    // one key's chain gathered for Combine
	sums    []int64    // a declared sum's totals: sums[i] is entry i's
	notSum  string     // the type of the first value a declared sum's task emitted that is no int64
	part    []int32    // the partition of each entry
	order   []sortKey  // the entries grouped by partition, then sorted
	spare   []sortKey  // the radix sort's second buffer
	counts  []int      // entries per partition, then where each partition's run in order ends
	// keyBytes is the length of the task's keys together, set by sortParts.
	keyBytes int
	// out is the view the task's writer is handed (run): it lives in the
	// scratch so that handing it over allocates nothing.
	out TaskOutput
}

// mapScratchPool holds the scratches between tasks. It lets go of them by
// the pool's own rule and nothing here sets a size: a scratch no task took
// for two collections is dropped, one in steady use on its P is kept — at the
// capacity the largest split it has seen grew it to. What a later, smaller
// task pays for that capacity is nothing: see reset.
var mapScratchPool = sync.Pool{New: func() any { return newMapScratch() }}

// newMapScratch starts with room for the keys its index holds before it
// first grows.
func newMapScratch() *mapScratch {
	return &mapScratch{slots: make([]mapSlot, 64), entries: make([]mapEntry, 0, 32)}
}

// emit records one pair: one hash, one probe sequence, and the value linked
// to the end of its key's chain. Nothing is combined here; see fold. A key
// meets an entry of its hash on prefix and length, and only a key longer than
// its prefix has its tail's bytes compared.
func (s *mapScratch) emit(key string, value Value) {
	p := keyPrefix(key)
	tail := p
	if len(key) > 8 {
		tail = slotKeys.tail(key)
	}
	h := slotKeys.mix(len(key), p, tail) // slotHash(key, p), written out
	v := int32(len(s.vals))
	mask := uint32(len(s.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		slot := s.slots[i]
		if slot.ref == 0 {
			s.slots[i] = mapSlot{h, uint32(len(s.entries)) + 1}
			s.entries = append(s.entries, mapEntry{key, p, v, v})
			s.vals, s.next = append(s.vals, value), append(s.next, -1)
			if 2*len(s.entries) > len(s.slots) {
				s.grow()
			}
			return
		}
		if e := &s.entries[slot.ref-1]; slot.hash == h && e.prefix == p && len(e.key) == len(key) &&
			(len(key) <= 8 || e.key[8:] == key[8:]) {
			s.next[e.last], e.last = v, v
			s.vals, s.next = append(s.vals, value), append(s.next, -1)
			if len(s.vals)-len(s.entries) >= mapPendingBound {
				s.fold()
			}
			return
		}
	}
}

// emitSum is emit for a task whose job declares SumInt64: the same index and
// the same probe, but a key holds its running total, to which each value is
// added as it is emitted — no chain, no fold, no Combine call. The loop is
// emit's, repeated rather than shared, so that an undeclared task's emit is
// what it was. A value that is no int64 breaks the declaration: it is left
// out, and run fails the task naming the first one's type.
func (s *mapScratch) emitSum(key string, value Value) {
	n, ok := value.(int64)
	if !ok {
		if s.notSum == "" {
			s.notSum = fmt.Sprintf("%T", value)
		}
		return
	}
	p := keyPrefix(key)
	tail := p
	if len(key) > 8 {
		tail = slotKeys.tail(key)
	}
	h := slotKeys.mix(len(key), p, tail) // slotHash(key, p), written out
	mask := uint32(len(s.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		slot := s.slots[i]
		if slot.ref == 0 {
			s.slots[i] = mapSlot{h, uint32(len(s.entries)) + 1}
			s.entries = append(s.entries, mapEntry{key: key, prefix: p})
			s.sums = append(s.sums, n)
			if 2*len(s.entries) > len(s.slots) {
				s.grow()
			}
			return
		}
		if e := &s.entries[slot.ref-1]; slot.hash == h && e.prefix == p && len(e.key) == len(key) &&
			(len(key) <= 8 || e.key[8:] == key[8:]) {
			s.sums[slot.ref-1] += n
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

// sortParts puts the folded entries in the order every output of the task
// is read in: grouped by partition, each partition in key order. This is
// where a key meets FNV — once, however often it was emitted — and where a
// partition is sorted: (prefix, entry) pairs in the scratch, with compare
// below radixCutover pairs and radixSort from there on, reading the strings
// only where two prefixes are equal. Afterwards counts[p] is the end of
// partition p's run in order (partRun reads it), and keyBytes the length of
// every key together.
//
// The sorted index is read in place, through the TaskOutput the task's
// writer is handed: RunMapTask's writer cuts payloads from it (cut), and
// dist's workers frame it for the wire without building a payload.
func (s *mapScratch) sortParts(n int) {
	s.counts = slices.Grow(s.counts[:0], n)[:n]
	clear(s.counts)
	s.part = slices.Grow(s.part[:0], len(s.entries))
	s.keyBytes = 0
	for _, e := range s.entries {
		p := Partition(e.key, n)
		s.part = append(s.part, int32(p))
		s.counts[p]++
		s.keyBytes += len(e.key)
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
		p := s.part[i]
		s.order[s.counts[p]] = sortKey{e.prefix, int32(i)}
		s.counts[p]++
	}
	start := 0
	for _, end := range s.counts {
		if run := s.order[start:end]; len(run) >= radixCutover {
			s.radixSort(run)
		} else if len(run) > 1 {
			slices.SortFunc(run, s.compare)
		}
		start = end
	}
}

// partRun returns partition p's entries in key order, as sortParts left them.
func (s *mapScratch) partRun(p int) []sortKey {
	start := 0
	if p > 0 {
		start = s.counts[p-1]
	}
	return s.order[start:s.counts[p]]
}

// radixSort orders run by prefix with an LSD radix sort — one stable counting
// pass per prefix byte, skipping the bytes every pair of the run shares, in
// the scratch's spare buffer — and then each run of equal prefixes (keys that
// share their first eight bytes, or differ only in trailing zero bytes) by
// the full key. A task's keys are distinct, so that is the order compare
// gives.
func (s *mapScratch) radixSort(run []sortKey) {
	and, or := ^uint64(0), uint64(0)
	for _, k := range run {
		and, or = and&k.prefix, or|k.prefix
	}
	varying := and ^ or
	s.spare = slices.Grow(s.spare[:0], len(run))[:len(run)]
	src, dst := run, s.spare
	for shift := 0; shift < 64; shift += 8 {
		if byte(varying>>shift) == 0 {
			continue
		}
		var at [256]int32
		for _, k := range src {
			at[byte(k.prefix>>shift)]++
		}
		var sum int32
		for b, c := range at {
			at[b], sum = sum, sum+c
		}
		for _, k := range src {
			b := byte(k.prefix >> shift)
			dst[at[b]] = k
			at[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &run[0] {
		copy(run, src)
	}
	for i := 0; i < len(run); {
		j := i + 1
		for j < len(run) && run[j].prefix == run[i].prefix {
			j++
		}
		if j-i > 1 {
			slices.SortFunc(run[i:j], s.compare)
		}
		i = j
	}
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
			for i := slotHash(e.key, e.prefix) & mask; s.slots[i].ref != 0; i = (i + 1) & mask {
				s.slots[i] = mapSlot{}
			}
		}
	} else {
		clear(s.slots)
	}
	clear(s.entries)
	clear(s.vals)
	clear(s.args)
	s.job, s.sum, s.notSum, s.out = nil, false, "", TaskOutput{}
	s.entries, s.vals, s.next, s.args, s.sums = s.entries[:0], s.vals[:0], s.next[:0], s.args[:0], s.sums[:0]
}

// RunMapTask executes the job's map function over one split and combines
// the emitted values per key per partition (the standard map-side
// combiner, which Slider keeps: §2 uses Combiners *additionally* at the
// reduce side to form the contraction tree).
//
// It is the one map kernel — under Executor, pig and RunScratch, and, with
// another writer, under dist's workers: WriteMapTask with a writer that cuts
// the output into payloads (cut). Emitted pairs go into one index for all
// partitions (emit), a key's values are combined by one Combine call over
// all of them (fold), and the partitions are sorted once, when the split is
// done (sortParts). A job that declares SumInt64 has each value added to
// its key's total as it is emitted instead (emitSum), and nothing to fold.
// All of that happens in a pooled scratch: the task allocates its outputs —
// the payloads and the one string their keys are cut from, which holds
// nothing of the split's records.
func RunMapTask(job *Job, split Split) (res MapResult, err error) {
	err = WriteMapTask(job, split, func(o *TaskOutput) error {
		res = o.cut()
		return nil
	})
	return res, err
}

// WriteMapTask executes a map task and hands its output to write: write
// reads the partitions in key order where the task's scratch holds them,
// and what it returns is the task's error. RunMapTask's writer cuts them
// into payloads; a worker that frames the output for the wire
// (persist.AppendTaskOutput) reads them once, and no payload, key arena or
// boxed total is built for it.
//
// The view and everything read through it are valid during the call to
// write only; the scratch is reset when it returns. A task whose Map fails,
// or whose declared sum meets another value, fails with that error and
// never calls write.
func WriteMapTask(job *Job, split Split, write func(*TaskOutput) error) error {
	return writeTask(job, split.ID, split.Records, nil, write)
}

// WriteLineTask is WriteMapTask over a split whose records are the strings
// lines, mapped by the job's MapLine: the output is the one WriteMapTask
// hands over for that split, and no line is boxed to be mapped. It is the
// worker's route for a split that arrived as text (persist.DecodeSplitLines);
// a job that declares no MapLine fails.
func WriteLineTask(job *Job, id string, lines []string, write func(*TaskOutput) error) error {
	if job != nil && job.MapLine == nil {
		return fmt.Errorf("mapreduce: job %q declares no MapLine", job.Name)
	}
	return writeTask(job, id, nil, lines, write)
}

// writeTask is one map task over records, by Map, or over lines, by MapLine
// (one of them is empty), in a pooled scratch.
func writeTask(job *Job, id string, records []Record, lines []string, write func(*TaskOutput) error) error {
	if err := job.Validate(); err != nil {
		return err
	}
	s := mapScratchPool.Get().(*mapScratch)
	defer mapScratchPool.Put(s)
	return s.run(job, id, records, lines, write)
}

// run is one map task in s, whose output it hands to write; it leaves s
// reset by whatever path it returns.
func (s *mapScratch) run(job *Job, id string, records []Record, lines []string, write func(*TaskOutput) error) error {
	start := time.Now()
	defer s.reset()
	if err := s.mapSplit(job, id, records, lines); err != nil {
		return err
	}
	s.out = TaskOutput{SplitID: id, Records: int64(len(records) + len(lines)), Cost: time.Since(start), start: start, s: s}
	return write(&s.out)
}

// mapSplit is the task's body, whichever output it goes to: job's Map over
// every record, or its MapLine over every line, into s, the pending values
// folded, and the entries put in order (sortParts). The caller resets s.
func (s *mapScratch) mapSplit(job *Job, id string, records []Record, lines []string) error {
	s.job = job
	// live is what emit writes to. It goes nil when the map phase is over:
	// an emit the job kept finds nothing, and never the scratch of the task
	// that took this one from the pool next.
	live := s
	defer func() { live = nil }()
	// The declaration is read once, here: each kind of task runs its own
	// emit, and an undeclared one's is the same closure as ever.
	s.sum = job.SumInt64
	var emit Emit
	if s.sum {
		emit = func(key string, value Value) {
			if live != nil {
				live.emitSum(key, value)
			}
		}
	} else {
		emit = func(key string, value Value) {
			if live != nil {
				live.emit(key, value)
			}
		}
	}
	for _, rec := range records {
		if err := job.Map(rec, emit); err != nil {
			return fmt.Errorf("map task %s: %w", id, err)
		}
	}
	for _, line := range lines {
		if err := job.MapLine(line, emit); err != nil {
			return fmt.Errorf("map task %s: %w", id, err)
		}
	}
	if !s.sum {
		s.fold()
	} else if s.notSum != "" {
		return fmt.Errorf("map task %s: job %q declares SumInt64 but emitted a %s value", id, job.Name, s.notSum)
	}
	s.sortParts(job.NumPartitions())
	return nil
}

// TaskOutput is a read-only view of a finished map task's output, handed to
// the task's writer (WriteMapTask): the task's counts and its partitions,
// each in key order, every entry holding its key as Map emitted it and its
// declared int64 total (Declared) or its folded value. It is valid during
// that call only.
type TaskOutput struct {
	SplitID string
	Records int64
	// Cost is the task's own time, the map and the ordering, taken before
	// the output is written. RunMapTask's MapResult.Cost adds its cut.
	Cost  time.Duration
	start time.Time
	s     *mapScratch
}

// Declared reports whether the task's job declares SumInt64: its entries'
// totals are read with TaskPart.Sum; any other task's values with
// TaskPart.Value.
func (o *TaskOutput) Declared() bool { return o.s.sum }

// NumPartitions is the job's partition count: every partition is there,
// empty or not.
func (o *TaskOutput) NumPartitions() int { return len(o.s.counts) }

// Part is partition p's entries, in key order.
func (o *TaskOutput) Part(p int) TaskPart { return TaskPart{o.s, o.s.partRun(p)} }

// TaskPart is one partition of a TaskOutput: entry i is the i-th key of the
// partition in key order.
type TaskPart struct {
	s   *mapScratch
	run []sortKey
}

// Len is the number of entries in the partition.
func (p TaskPart) Len() int { return len(p.run) }

// Key is entry i's key.
func (p TaskPart) Key(i int) string { return p.s.entries[p.run[i].idx].key }

// Sum is entry i's total, in a declared sum's task.
func (p TaskPart) Sum(i int) int64 { return p.s.sums[p.run[i].idx] }

// Value is entry i's value as its payload entry holds it: a declared sum's
// total boxed, any other task's folded value.
func (p TaskPart) Value(i int) Value {
	k := p.run[i].idx
	if p.s.sum {
		return p.s.sums[k]
	}
	return p.s.vals[k]
}

// cut is RunMapTask's writer: the output cut into one payload per
// partition, each in storage from the task stock (TakeTaskPayload: a slice
// at most twice its length, else one of exactly its length; nil when nothing
// was emitted to it), read through the partition's TaskPart and sized by
// valueBytes as each entry is written, with the task's cost up to the end of
// the cut. Each entry takes its key's prefix from the sort key that ordered
// it. A declared sum's totals are boxed here.
//
// The keys are copied once, into one string for the task, in partition then
// key order, and every output key is a substring of it — the layout a decoded
// payload has. Until here entries hold the strings Map emitted, which the
// index compares; copied, a window's state holds its keys' bytes and not the
// records they were cut from, and a merge or a seek compares keys that lie
// side by side.
func (o *TaskOutput) cut() MapResult {
	n := o.NumPartitions()
	res := MapResult{SplitID: o.SplitID, Parts: make([]Payload, n), PartBytes: make([]int64, n), Records: o.Records}
	var arena strings.Builder
	arena.Grow(o.s.keyBytes)
	for p := range n {
		part := o.Part(p)
		if part.Len() == 0 {
			continue
		}
		out := TakeTaskPayload(part.Len())
		for i := range out {
			key, v := part.Key(i), part.Value(i)
			off := arena.Len()
			arena.WriteString(key)
			out[i] = Entry{Key: arena.String()[off:], Value: v, prefix: part.run[i].prefix}
			res.PartBytes[p] += int64(len(key)) + valueBytes(v)
		}
		res.Parts[p] = out
	}
	res.Cost = time.Since(o.start)
	return res
}
