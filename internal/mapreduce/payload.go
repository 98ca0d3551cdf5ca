package mapreduce

import (
	"math"
	"slices"
	"sort"
	"strings"
)

// Entry is one key/value pair of a Payload.
type Entry struct {
	Key   string
	Value Value
}

// Payload is the unit of data flowing through the contraction phase: the
// combined key→value pairs a map task (or contraction-tree node)
// contributes to one reduce partition, held as a slice of entries strictly
// sorted by key (byte order, no key twice). The order is the invariant
// everything downstream leans on: a merge is a merge-join over two
// cursors, the codec writes entries as they lie, and fingerprints walk
// them without sorting. A nil slice is the empty payload. Nothing writes to
// a payload while it is live; the storage of one that has died — an
// aggregate its structure overwrote or evicted — may carry a later merge
// (see FreeList), so a reader keeps a payload no longer than the run that
// handed it over.
type Payload []Entry

func compareKeys(a, b Entry) int { return strings.Compare(a.Key, b.Key) }

// IsSorted reports whether p holds the payload invariant: keys strictly
// ascending.
func (p Payload) IsSorted() bool {
	for i := 1; i < len(p); i++ {
		if p[i-1].Key >= p[i].Key {
			return false
		}
	}
	return true
}

// Get returns the value stored under key, by binary search.
func (p Payload) Get(key string) (Value, bool) {
	i, ok := slices.BinarySearchFunc(p, key, func(e Entry, k string) int { return strings.Compare(e.Key, k) })
	if !ok {
		return nil, false
	}
	return p[i].Value, true
}

// SortEntries establishes the payload invariant on entries gathered in
// arbitrary order — a frame written when payloads were hash maps, a
// foreign producer's output — with one in-place sort. It reports false
// when two entries share a key.
func SortEntries(p Payload) bool {
	slices.SortFunc(p, compareKeys)
	return p.IsSorted()
}

// FromMap builds the payload holding m's pairs (one sort): how a legacy
// gob frame, which carries a map, and a test's literal become payloads.
func FromMap(m map[string]Value) Payload {
	if len(m) == 0 {
		return nil
	}
	p := make(Payload, 0, len(m))
	for k, v := range m {
		p = append(p, Entry{k, v})
	}
	slices.SortFunc(p, compareKeys)
	return p
}

// FNV-1a constants (32-bit), matching hash/fnv.
const (
	fnvOffset32 uint32 = 2166136261
	fnvPrime32  uint32 = 16777619
)

// HashKey32 is the FNV-1a hash of key, computed without allocating: the
// loop runs directly over the string bytes instead of copying them into a
// []byte for a hash.Hash32. It produces bit-identical results to
// fnv.New32a over the same bytes (pinned by tests), so partition and
// placement assignments are unchanged from the allocating implementation.
func HashKey32(key string) uint32 {
	h := fnvOffset32
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= fnvPrime32
	}
	return h
}

// Partition assigns a key to one of n reduce partitions using FNV-1a,
// mirroring Hadoop's hash partitioner. n ≤ 1 (including the zero value
// of an unconfigured job) short-circuits to partition 0 so the uint32
// modulo below can never divide by zero. It performs no allocations: it
// sits on the map-side emit path, where a per-call hasher and []byte(key)
// copy dominated the partitioning cost.
func Partition(key string, n int) int {
	if n <= 1 {
		return 0
	}
	return int(HashKey32(key) % uint32(n))
}

// Sized is a payload together with its PayloadBytes. The size is computed
// once, where the payload is created — by the merge that builds it, by
// the map task that emits it, or by Size for a payload decoded from bytes
// — and travels with it, so nothing downstream (the runtime's space
// accounting, the cost model's task sizes) walks the entries again.
type Sized struct {
	P     Payload
	Bytes int64
}

// Size measures p once with PayloadBytes. It is for payloads that arrive
// without a size (decoded from a checkpoint or from a foreign MapRunner);
// payloads built by the merges below carry theirs already.
func Size(job *Job, p Payload) Sized {
	return Sized{P: p, Bytes: PayloadBytes(job, p)}
}

// MergeOrdered combines two payloads preserving left-to-right window
// order: values from `left` precede values from `right` in combiner
// argument order. Neither input is mutated, and a non-empty result never
// shares its entry slice with either input: contraction trees memoize
// merged payloads across runs, so handing back a caller-owned slice would
// let a later write through one holder corrupt the other.
func MergeOrdered(job *Job, left, right Payload) (Payload, int64) {
	out, combines := MergeOrderedSized(job, Sized{P: left}, Sized{P: right})
	return out.P, combines
}

// MergeOrderedSized is MergeOrdered over sized payloads: one pass over the
// two sides into one slice presized for the disjoint case (how the sides are
// walked depends on their lengths, see MergeOrderedSizedInto). The result's
// Bytes equals PayloadBytes of the result, derived inside the loop from the
// larger side's Bytes and the entries the loop touches anyway (one
// valueBytes per key new to the result, two per combined key), honouring
// Job.SizeOf/Sizer exactly as PayloadBytes does. Inputs whose Bytes are
// wrong yield a wrong Bytes and nothing else.
//
// A key both sides hold keeps the right-hand side's string. Decoded
// payloads cut their keys from one arena per payload, and right is the
// newer side of the window: keeping its string lets the arena of a bucket
// that has slid out go with it instead of living on inside an aggregate.
//
// Every Combine call receives the same two-element scratch slice, valid
// only for the duration of that call (see Job.Combine). The scratch is
// local to this call, so concurrent merges never share one.
func MergeOrderedSized(job *Job, left, right Sized) (Sized, int64) {
	return MergeOrderedSizedInto(job, nil, left, right)
}

// fitShare sets how much room a destination needs: the larger input's
// entries and 1/fitShare of the smaller's. A key both sides hold is written
// once, and neighbouring aggregates of a window hold many of the same keys
// (a word-count merge writes about 1/1.3 of its inputs' entries), so asking
// for room for both inputs turns down storage most merges would fit in. A
// merge that outgrows its destination moves to a fresh slice (see
// MergeOrderedSizedInto). DESIGN.md §9 has the table the share was read from.
const fitShare = 4

// fitBound is the capacity a destination needs for a merge of inputs of
// total entries, the largest of them largest entries.
func fitBound(largest, total int) int { return largest + (total-largest)/fitShare }

// mergeStorage returns the slice a merge of inputs of total entries, the
// largest of them largest entries, appends to: dst emptied when it holds
// fitBound (used), a fresh slice of total entries otherwise.
func mergeStorage(dst Payload, largest, total int) (out Payload, used bool) {
	if cap(dst) < fitBound(largest, total) {
		return make(Payload, 0, total), false
	}
	return dst[:0], true
}

// releaseStorage clears what a merge that appended to dst's storage (used)
// and returned out left of dst: the entries beyond the result, or — when the
// union outgrew dst and out is a fresh slice — all of dst, which the caller
// then drops. A dst the merge did not use is left as it was.
func releaseStorage(dst, out Payload, used bool) {
	switch {
	case !used:
	case cap(out) != cap(dst):
		clear(dst[:cap(dst)])
	case len(out) < len(dst):
		clear(dst[len(out):])
	}
}

// MergeOrderedSizedInto is MergeOrderedSized with a destination: the result
// is built in dst's storage when that holds the larger input and a quarter of
// the smaller (fitBound), in a fresh slice otherwise. It is for the caller
// that has a payload nothing reads any more — an aggregate a structure
// overwrote or evicted, see FreeList — so that the next merge allocates
// nothing. dst must not share storage with left or right, and nothing beyond
// its length may be set. A union larger than dst continues in a fresh slice
// as append grows it; dst is then cleared and the result does not use it, so
// a caller that finds the result outside dst drops dst. Otherwise what the
// result leaves unused of dst is cleared. Either way a reused buffer pins no
// key or value of the payload it held before. Same entries, same Bytes, same
// combines as MergeOrderedSized.
//
// The inputs' lengths pick how the two sides are walked. Sides of like size
// are merge-joined, one comparison per output entry. When one side holds at
// most 1/gallopRatio of the other's entries — a bucket entering a running
// sum, a raw bucket meeting a suffix aggregate — the small side's entries
// are looked up in the large one (gallop) and the runs between them copied
// whole. Both ways build the same payload.
func MergeOrderedSizedInto(job *Job, dst Payload, left, right Sized) (Sized, int64) {
	l, r := left.P, right.P
	out, used := mergeStorage(dst, max(len(l), len(r)), len(l)+len(r))
	bytes := left.Bytes
	var combines int64
	switch {
	case len(l) == 0:
		out, bytes = append(out, r...), right.Bytes
	case len(r) == 0:
		out = append(out, l...)
	case len(r)*gallopRatio <= len(l):
		out, bytes, combines = gallop(job, out, r, l, false, left.Bytes)
	case len(l)*gallopRatio <= len(r):
		out, bytes, combines = gallop(job, out, l, r, true, right.Bytes)
	default:
		out, bytes, combines = mergeJoin(job, out, l, r, left.Bytes)
	}
	releaseStorage(dst, out, used)
	return Sized{P: out, Bytes: bytes}, combines
}

// mergeJoin appends to out the merge of l and r by walking both, one key
// comparison per output entry. bytes is l's carried size and comes back as
// the result's.
func mergeJoin(job *Job, out, l, r Payload, bytes int64) (Payload, int64, int64) {
	pair := make([]Value, 2)
	var combines int64
	for len(l) > 0 && len(r) > 0 {
		switch c := strings.Compare(l[0].Key, r[0].Key); {
		case c < 0:
			out = append(out, l[0])
			l = l[1:]
		case c > 0:
			out = append(out, r[0])
			bytes += int64(len(r[0].Key)) + valueBytes(job, r[0].Value)
			r = r[1:]
		default:
			existing := l[0].Value
			pair[0], pair[1] = existing, r[0].Value
			combined := job.Combine(r[0].Key, pair)
			out = append(out, Entry{r[0].Key, combined})
			bytes += valueBytes(job, combined) - valueBytes(job, existing)
			combines++
			l, r = l[1:], r[1:]
		}
	}
	out = append(out, l...)
	for _, e := range r {
		bytes += int64(len(e.Key)) + valueBytes(job, e.Value)
	}
	return append(out, r...), bytes, combines
}

// gallopRatio is the size ratio from which a merge gallops: below it the
// lookups cost more comparisons than the merge-join's one per entry saves in
// copying (DESIGN.md §9 has the crossover table).
const gallopRatio = 4

// gallop appends to out the merge of small and large, small being the
// left-hand side of the merge when smallIsLeft: each of small's entries is
// looked up in what is left of large (seek, O(log gap) comparisons) and the
// run of large before it appended in one copy. bytes is large's carried size
// and comes back as the result's, small's entries accounted as they land. A
// shared key keeps the right-hand side's string and Combine sees left before
// right, as in the merge-join; the returned combine count is the same too.
func gallop(job *Job, out, small, large Payload, smallIsLeft bool, bytes int64) (Payload, int64, int64) {
	pair := make([]Value, 2)
	var combines int64
	for _, e := range small {
		rest := seek(large, e.Key)
		out = append(out, large[:len(large)-len(rest)]...)
		large = rest
		if len(large) == 0 || large[0].Key != e.Key {
			out = append(out, e)
			bytes += int64(len(e.Key)) + valueBytes(job, e.Value)
			continue
		}
		held, key := large[0], e.Key
		if smallIsLeft {
			pair[0], pair[1], key = e.Value, held.Value, held.Key
		} else {
			pair[0], pair[1] = held.Value, e.Value
		}
		combined := job.Combine(key, pair)
		out = append(out, Entry{key, combined})
		bytes += valueBytes(job, combined) - valueBytes(job, held.Value)
		combines++
		large = large[1:]
	}
	return append(out, large...), bytes, combines
}

// cursor is one input of a K-way merge-join.
type cursor struct {
	rest Payload // entries not yet visited; never empty while on the heap
	idx  int     // position among the inputs: the tie-break that keeps window order
}

func (a cursor) before(b cursor) bool {
	c := strings.Compare(a.rest[0].Key, b.rest[0].Key)
	return c < 0 || c == 0 && a.idx < b.idx
}

func siftDown(h []cursor, i int) {
	for {
		min := 2*i + 1
		if min >= len(h) {
			return
		}
		if r := min + 1; r < len(h) && h[r].before(h[min]) {
			min = r
		}
		if !h[min].before(h[i]) {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// joinK walks any number of payloads as one key-ordered stream — a min-heap
// of cursors, ordered by head key and then input position. visit runs once
// per distinct key, in key order, with the key's values in input (window)
// order; a key occurs at most once per payload. key is the rightmost
// holder's string (see MergeOrderedSized); vals is scratch, overwritten
// for the next key (see Job.Combine). It allocates the scratch, and the
// heap when more than a handful of payloads are live — nothing per key.
func joinK(payloads []Sized, visit func(key string, vals []Value)) {
	var few [8]cursor
	h := few[:0]
	for i, p := range payloads {
		if len(p.P) > 0 {
			h = append(h, cursor{p.P, i})
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	vals := make([]Value, 0, len(h))
	for len(h) > 0 {
		key := h[0].rest[0].Key
		vals = vals[:0]
		for len(h) > 0 && h[0].rest[0].Key == key {
			head := &h[0]
			key = head.rest[0].Key
			vals = append(vals, head.rest[0].Value)
			if head.rest = head.rest[1:]; len(head.rest) == 0 {
				*head = h[len(h)-1]
				h = h[:len(h)-1]
			}
			siftDown(h, 0)
		}
		visit(key, vals)
	}
}

// MergeOrderedK merges any number of payloads in window order into one
// output slice, replacing a fold of binary MergeOrdered calls (which
// allocates len(payloads)−1 intermediate payloads and combines each
// duplicated key once per adjacent pair). Values for the same key are
// gathered left-to-right across the inputs and handed to one
// multi-argument Combine call per key — the combiner is declared
// associative over value slices (see Job.Combine), so the result equals
// the pairwise fold. The returned combine count is the number of Combine
// invocations (one per key with ≥ 2 occurrences); it is deterministic and
// independent of any worker count.
//
// Like MergeOrdered, inputs are never mutated and a non-empty result
// never shares its entry slice with any input.
func MergeOrderedK(job *Job, payloads ...Payload) (Payload, int64) {
	// Typical fold-ups fit the stack buffer; wider ones spill to the heap.
	var buf [16]Sized
	sized := buf[:]
	if len(payloads) > len(buf) {
		sized = make([]Sized, len(payloads))
	}
	sized = sized[:len(payloads)]
	for i, p := range payloads {
		sized[i].P = p
	}
	out, combines := MergeOrderedKSized(job, sized)
	return out.P, combines
}

// MergeOrderedKSized is MergeOrderedK over sized payloads: the result's
// Bytes equals PayloadBytes of the result, accumulated as each entry is
// appended (or carried from the inputs where the result is a copy of
// one). Each Combine receives joinK's scratch, valid only for the
// duration of the call.
func MergeOrderedKSized(job *Job, payloads []Sized) (Sized, int64) {
	return MergeOrderedKSizedInto(job, nil, payloads)
}

// MergeOrderedKSizedInto is MergeOrderedKSized with a destination, on
// MergeOrderedSizedInto's terms: the result is built in dst when that holds
// the largest input and a quarter of the others' entries, dst is cleared and
// dropped when the union outgrows it, and it is left alone when it is too
// small to be used. Same entries, same Bytes, same combines as
// MergeOrderedKSized.
func MergeOrderedKSizedInto(job *Job, dst Payload, payloads []Sized) (Sized, int64) {
	nonEmpty, first, last, largest, total := 0, -1, -1, 0, 0
	for i, p := range payloads {
		if len(p.P) > 0 {
			if nonEmpty == 0 {
				first = i
			}
			nonEmpty++
			last = i
			largest = max(largest, len(p.P))
			total += len(p.P)
		}
	}
	switch nonEmpty {
	case 0:
		return Sized{}, 0
	case 2:
		// Two cursors need no heap.
		return MergeOrderedSizedInto(job, dst, payloads[first], payloads[last])
	}
	out, used := mergeStorage(dst, largest, total)
	if nonEmpty == 1 {
		out = append(out, payloads[last].P...)
		releaseStorage(dst, out, used)
		return Sized{P: out, Bytes: payloads[last].Bytes}, 0
	}
	var bytes, combines int64
	joinK(payloads, func(key string, vals []Value) {
		v := vals[0]
		if len(vals) > 1 {
			v = job.Combine(key, vals)
			combines++
		}
		out = append(out, Entry{key, v})
		bytes += int64(len(key)) + valueBytes(job, v)
	})
	releaseStorage(dst, out, used)
	return Sized{P: out, Bytes: bytes}, combines
}

// PayloadBytes estimates the in-memory size of a payload, using the job's
// SizeOf override, the Sizer interface, or per-type defaults. It walks
// every entry: call it where a payload is created without a size (a map
// task's output, a decoded checkpoint — see Size), and as the oracle the
// carried sizes of Sized payloads are tested against; never per slide
// over resident state.
func PayloadBytes(job *Job, p Payload) int64 {
	var total int64
	for _, e := range p {
		total += int64(len(e.Key)) + valueBytes(job, e.Value)
	}
	return total
}

func valueBytes(job *Job, v Value) int64 {
	if job != nil && job.SizeOf != nil {
		return job.SizeOf(v)
	}
	switch x := v.(type) {
	case Sizer:
		return x.SizeBytes()
	case nil:
		return 0
	case bool, int8, uint8:
		return 1
	case int, int64, uint64, float64:
		return 8
	case int32, uint32, float32:
		return 4
	case string:
		return int64(len(x)) + 16
	case []byte:
		return int64(len(x)) + 24
	case []float64:
		return int64(8*len(x)) + 24
	case []int64:
		return int64(8*len(x)) + 24
	case []string:
		var n int64 = 24
		for _, s := range x {
			n += int64(len(s)) + 16
		}
		return n
	case []Value:
		var n int64 = 24
		for _, e := range x {
			n += valueBytes(job, e)
		}
		return n
	case map[string]int64:
		var n int64 = 48
		for k := range x {
			n += int64(len(k)) + 24
		}
		return n
	case map[string]float64:
		var n int64 = 48
		for k := range x {
			n += int64(len(k)) + 24
		}
		return n
	default:
		return 32
	}
}

// Fingerprint computes a structural content hash of a value, used by
// multi-level change detection (§5) to decide whether a downstream stage's
// input changed. Values may implement Fingerprinter to override.
func Fingerprint(v Value) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= prime64
			x >>= 8
		}
	}
	mixString := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime64
		}
	}
	switch x := v.(type) {
	case Fingerprinter:
		mix(1)
		mix(x.Fingerprint())
	case nil:
		mix(2)
	case bool:
		mix(3)
		if x {
			mix(1)
		}
	case int:
		mix(4)
		mix(uint64(int64(x)))
	case int64:
		mix(5)
		mix(uint64(x))
	case uint64:
		mix(6)
		mix(x)
	case float64:
		mix(7)
		mix(math.Float64bits(x))
	case string:
		mix(8)
		mixString(x)
	case []byte:
		mix(9)
		mixString(string(x))
	case []float64:
		mix(10)
		for _, f := range x {
			mix(math.Float64bits(f))
		}
	case []int64:
		mix(11)
		for _, i := range x {
			mix(uint64(i))
		}
	case []string:
		mix(12)
		for _, s := range x {
			mixString(s)
			mix(0x1f)
		}
	case []Value:
		mix(13)
		for _, e := range x {
			mix(Fingerprint(e))
		}
	case map[string]int64:
		mix(14)
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			mixString(k)
			mix(uint64(x[k]))
		}
	case map[string]float64:
		mix(15)
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			mixString(k)
			mix(math.Float64bits(x[k]))
		}
	default:
		mix(0xdeadbeefcafebabe)
	}
	return h
}

// FingerprintPayload hashes a whole payload in entry (key) order.
func FingerprintPayload(p Payload) uint64 {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	for _, e := range p {
		for i := 0; i < len(e.Key); i++ {
			h ^= uint64(e.Key[i])
			h *= prime64
		}
		fp := Fingerprint(e.Value)
		for i := 0; i < 8; i++ {
			h ^= fp & 0xff
			h *= prime64
			fp >>= 8
		}
	}
	return h
}
