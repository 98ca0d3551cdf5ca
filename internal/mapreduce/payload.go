package mapreduce

import (
	"math"
	"sort"
)

// Payload is the unit of data flowing through the contraction phase: the
// combined key→value map a map task (or contraction-tree node) contributes
// to one reduce partition.
type Payload map[string]Value

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

// emptyPayload is the shared empty-payload sentinel. Empty payloads are
// extremely common on the hot combine path — a partition that received no
// keys from a split, a sparse slide's empty delta — and every one used to
// cost a fresh zero-length map allocation through the ClonePayload fast
// paths. The sentinel is immutable by contract: it is returned only where
// the result is empty, and conforming callers (contraction trees, the
// reduce phase) never mutate payloads they did not allocate.
var emptyPayload = Payload{}

// EmptyPayload returns the shared immutable empty payload. Callers must
// treat it as read-only; writing to it would corrupt every holder of an
// empty merge result.
func EmptyPayload() Payload { return emptyPayload }

// Sized is a payload together with its PayloadBytes. The size is computed
// once, where the payload is created — by the merge that builds it, by
// the map task that emits it, or by Size for a payload decoded from bytes
// — and travels with it, so nothing downstream (the runtime's space
// accounting, the cost model's task sizes) walks the map again.
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
// aliases either input map: contraction trees memoize merged payloads
// across runs, so handing back a caller-owned map would let later
// mutations (or concurrent merges) silently corrupt tree-node state. An
// empty result is the shared EmptyPayload sentinel (no allocation).
func MergeOrdered(job *Job, left, right Payload) (Payload, int64) {
	out, combines := MergeOrderedSized(job, Sized{P: left}, Sized{P: right})
	return out.P, combines
}

// MergeOrderedSized is MergeOrdered over sized payloads: the result's
// Bytes equals PayloadBytes of the result, derived inside the merge loop
// from left.Bytes and the entries the loop touches anyway (one valueBytes
// per key new to the result, two per combined key), honouring
// Job.SizeOf/Sizer exactly as PayloadBytes does. Inputs whose Bytes are
// wrong yield a wrong Bytes and nothing else.
//
// Every Combine call receives the same two-element scratch slice, valid
// only for the duration of that call (see Job.Combine). The scratch is
// local to this call, so concurrent merges never share one.
func MergeOrderedSized(job *Job, left, right Sized) (Sized, int64) {
	if len(left.P) == 0 {
		return Sized{P: ClonePayload(right.P), Bytes: right.Bytes}, 0
	}
	if len(right.P) == 0 {
		return Sized{P: ClonePayload(left.P), Bytes: left.Bytes}, 0
	}
	out := make(Payload, len(left.P)+len(right.P))
	for k, v := range left.P {
		out[k] = v
	}
	bytes := left.Bytes
	var combines int64
	pair := make([]Value, 2)
	for k, v := range right.P {
		if existing, ok := out[k]; ok {
			pair[0], pair[1] = existing, v
			combined := job.Combine(k, pair)
			out[k] = combined
			bytes += valueBytes(job, combined) - valueBytes(job, existing)
			combines++
		} else {
			out[k] = v
			bytes += int64(len(k)) + valueBytes(job, v)
		}
	}
	return Sized{P: out, Bytes: bytes}, combines
}

// runLoc tracks one key's reserved block in a shared value arena (the
// K-way merge's, the grouping reduce's): start is the block offset, n how
// many values have been written so far (n reaches the key's occurrence
// count by the end of the gather pass).
type runLoc struct {
	start, n int
}

// MergeOrderedK merges any number of payloads in window order with a
// single output-map allocation, replacing a fold of binary MergeOrdered
// calls (which allocates len(payloads)−1 intermediate maps and combines
// each duplicated key once per adjacent pair). Values for the same key are
// gathered left-to-right across the inputs and handed to one
// multi-argument Combine call per key — the combiner is declared
// associative over value slices (see Job.Combine), so the result equals
// the pairwise fold. The returned combine count is the number of Combine
// invocations (one per key with ≥ 2 occurrences); it is deterministic and
// independent of any worker count.
//
// Allocation shape: a counting pass sizes everything up front, so the
// merge makes O(1) bulk allocations — the occurrence-count map, the output
// map, one shared value arena holding every duplicated key's run, and the
// run-location map — instead of a fresh slice (and growth reallocations)
// per duplicated key. Each Combine receives a sub-slice of the arena,
// valid only for the duration of the call (see Job.Combine; CheckJob
// enforces it); the arena is dropped when the merge returns.
//
// Like MergeOrdered, inputs are never mutated and a non-empty result
// never aliases any input; an empty result is the EmptyPayload sentinel.
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
// written to the output map (or carried from the inputs where the result
// is a copy of them).
func MergeOrderedKSized(job *Job, payloads []Sized) (Sized, int64) {
	nonEmpty, first, last, total := 0, -1, -1, 0
	var inputBytes int64
	for i, p := range payloads {
		if len(p.P) > 0 {
			if nonEmpty == 0 {
				first = i
			}
			nonEmpty++
			last = i
			total += len(p.P)
			inputBytes += p.Bytes
		}
	}
	switch nonEmpty {
	case 0:
		return Sized{P: emptyPayload}, 0
	case 1:
		return Sized{P: ClonePayload(payloads[last].P), Bytes: inputBytes}, 0
	case 2:
		// The binary path avoids the run bookkeeping below.
		return MergeOrderedSized(job, payloads[first], payloads[last])
	}
	// Counting pass: per-key occurrence counts size the output map, the
	// value arena, and the run-location map exactly.
	counts := make(map[string]int, total)
	for _, p := range payloads {
		for k := range p.P {
			counts[k]++
		}
	}
	out := make(Payload, len(counts))
	arenaLen, dupKeys := 0, 0
	for _, c := range counts {
		if c > 1 {
			arenaLen += c
			dupKeys++
		}
	}
	if dupKeys == 0 {
		// Disjoint key spaces: a straight copy, no combines.
		for _, p := range payloads {
			for k, v := range p.P {
				out[k] = v
			}
		}
		return Sized{P: out, Bytes: inputBytes}, 0
	}
	// Gather pass: singleton keys go to out directly; each duplicated
	// key's values land in its reserved arena block, in window order
	// (payloads are walked left to right, and a key occurs at most once
	// per payload).
	arena := make([]Value, arenaLen)
	locs := make(map[string]runLoc, dupKeys)
	next := 0
	var bytes int64
	for _, p := range payloads {
		for k, v := range p.P {
			c := counts[k]
			if c == 1 {
				out[k] = v
				bytes += int64(len(k)) + valueBytes(job, v)
				continue
			}
			loc, ok := locs[k]
			if !ok {
				loc = runLoc{start: next}
				next += c
			}
			arena[loc.start+loc.n] = v
			loc.n++
			locs[k] = loc
		}
	}
	// Combine pass: one multi-argument Combine per duplicated key.
	var combines int64
	for k, loc := range locs {
		combined := job.Combine(k, arena[loc.start:loc.start+loc.n])
		out[k] = combined
		bytes += int64(len(k)) + valueBytes(job, combined)
		combines++
	}
	return Sized{P: out, Bytes: bytes}, combines
}

// ClonePayload returns a shallow copy of p: a fresh map sharing p's
// values. Values themselves are never mutated by conforming combiners
// (see CheckJob), so a shallow copy is enough to decouple map ownership.
// Cloning an empty payload returns the shared EmptyPayload sentinel
// instead of allocating; empty results must be treated as read-only.
func ClonePayload(p Payload) Payload {
	if len(p) == 0 {
		return emptyPayload
	}
	out := make(Payload, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}

// PayloadBytes estimates the in-memory size of a payload, using the job's
// SizeOf override, the Sizer interface, or per-type defaults. It walks
// every entry: call it where a payload is created without a size (a map
// task's output, a decoded checkpoint — see Size), and as the oracle the
// carried sizes of Sized payloads are tested against; never per slide
// over resident state.
func PayloadBytes(job *Job, p Payload) int64 {
	var total int64
	for k, v := range p {
		total += int64(len(k)) + valueBytes(job, v)
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

// FingerprintPayload hashes a whole payload deterministically.
func FingerprintPayload(p Payload) uint64 {
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	for _, k := range keys {
		for i := 0; i < len(k); i++ {
			h ^= uint64(k[i])
			h *= prime64
		}
		fp := Fingerprint(p[k])
		for i := 0; i < 8; i++ {
			h ^= fp & 0xff
			h *= prime64
			fp >>= 8
		}
	}
	return h
}
