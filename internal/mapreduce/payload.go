package mapreduce

import (
	"cmp"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"strings"
)

// Entry is one key/value pair of a Payload, with its key's prefix: the first
// eight bytes, big endian and zero padded (keyPrefix), which decides nearly
// every comparison of two keys without reading them (compareKey). The prefix
// is derived where an entry arrives — a map task's cut, a decoded payload,
// NewEntry, a foreign MapRunner's result as the runtime checks its order —
// and a merge carries it with the key. It is never written out: the codec,
// the fingerprints and the checkpoints see the key and the value only. A
// zero prefix means "not derived" (an entry keyed outside those paths, a
// test's literal): such a key is compared by its bytes, so a payload of them
// is ordered as any other, only more slowly. Layout: Key (16 bytes), Value
// (16), prefix (8) — 40 bytes on a 64-bit platform.
type Entry struct {
	Key    string
	Value  Value
	prefix uint64
}

// NewEntry returns the entry of key and v, its prefix derived.
func NewEntry(key string, v Value) Entry { return Entry{Key: key, Value: v, prefix: keyPrefix(key)} }

// Payload is the unit of data flowing through the contraction phase: the
// combined key→value pairs a map task (or contraction-tree node)
// contributes to one reduce partition, held as a slice of entries strictly
// sorted by key (byte order, no key twice). The order is the invariant
// everything downstream leans on: a merge is a merge-join over two
// cursors, the codec writes entries as they lie, and fingerprints walk
// them without sorting. Every path that builds a payload derives its
// entries' prefixes (see Entry), which its merges and seeks compare before
// any key byte. A nil slice is the empty payload. Nothing writes to
// a payload while it is live; the storage of one that has died — an
// aggregate its structure overwrote or evicted — may carry a later merge
// (see FreeList), so a reader keeps a payload no longer than the run that
// handed it over.
type Payload []Entry

// compareKey is the one rule every comparison of two payload keys follows —
// the merges, the seeks, the reduces' walks, IsSorted — for keys a and b with
// prefixes pa and pb: two derived prefixes that differ decide; equal ones,
// when either key is at most eight bytes, leave the shorter key first (zero
// padding makes it a prefix of the longer, so "ab" < "ab\x00"), and
// otherwise the bytes past the prefix decide. A zero prefix is not derived:
// the keys' bytes decide. The result is strings.Compare's.
func compareKey(a string, pa uint64, b string, pb uint64) int {
	if pa != 0 && pb != 0 {
		if pa != pb {
			if pa < pb {
				return -1
			}
			return 1
		}
		if len(a) <= 8 || len(b) <= 8 {
			return len(a) - len(b)
		}
		a, b = a[8:], b[8:]
	}
	return strings.Compare(a, b)
}

func compareKeys(a, b Entry) int { return compareKey(a.Key, a.prefix, b.Key, b.prefix) }

// keyBefore reports whether key a sorts before key b: compareKey < 0, with
// the rule's first clause — two derived prefixes that differ decide — written
// out, so that it inlines into seek's probes and calls compareKey only where
// that clause does not decide.
func keyBefore(a string, pa uint64, b string, pb uint64) bool {
	if pa != pb && min(pa, pb) != 0 {
		return pa < pb
	}
	return compareKey(a, pa, b, pb) < 0
}

// IsSorted reports whether p holds the payload invariant: keys strictly
// ascending.
func (p Payload) IsSorted() bool {
	for i := 1; i < len(p); i++ {
		if !keyBefore(p[i-1].Key, p[i-1].prefix, p[i].Key, p[i].prefix) {
			return false
		}
	}
	return true
}

// DerivePrefixes sets every entry's prefix from its key, for a payload whose
// entries were written key and value alone — a decoded body, a foreign
// MapRunner's result — and reports, from the same pass, whether p holds the
// payload invariant (IsSorted).
func (p Payload) DerivePrefixes() (sorted bool) {
	sorted = true
	var last uint64
	for i := range p {
		prefix := keyPrefix(p[i].Key)
		p[i].prefix = prefix
		if i > 0 && sorted && !keyBefore(p[i-1].Key, last, p[i].Key, prefix) {
			sorted = false
		}
		last = prefix
	}
	return sorted
}

// CheckPrefixes returns an error naming the first entry of p whose prefix is
// not its key's (keyPrefix). Every path that builds a payload derives its
// entries' prefixes — a foreign result's on arrival (DerivePrefixes) — and
// carries them through the merges, and a test holds it to that: a prefix
// left zero only slows a payload down, but a wrong one misorders it.
func (p Payload) CheckPrefixes() error {
	for i, e := range p {
		if want := keyPrefix(e.Key); e.prefix != want {
			return fmt.Errorf("entry %d, key %q, carries prefix %#x, not its key's %#x", i, e.Key, e.prefix, want)
		}
	}
	return nil
}

// Get returns the value stored under key, by binary search.
func (p Payload) Get(key string) (Value, bool) {
	i, ok := slices.BinarySearchFunc(p, key, func(e Entry, k string) int { return strings.Compare(e.Key, k) })
	if !ok {
		return nil, false
	}
	return p[i].Value, true
}

// FromMap builds the payload holding m's pairs (one sort): how a test's
// literal becomes a payload.
func FromMap(m map[string]Value) Payload {
	if len(m) == 0 {
		return nil
	}
	p := make(Payload, 0, len(m))
	for k, v := range m {
		p = append(p, NewEntry(k, v))
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
func Size(p Payload) Sized {
	return Sized{P: p, Bytes: PayloadBytes(p)}
}

// MergeOrdered combines two payloads preserving left-to-right window
// order: values from `left` precede values from `right` in combiner
// argument order. Neither input is mutated, and a non-empty result never
// shares its entry slice with either input: contraction trees memoize
// merged payloads across runs, so handing back a caller-owned slice would
// let a later write through one holder corrupt the other.
func MergeOrdered(job *Job, left, right Payload) (Payload, int64) {
	out, combines := MergeOrderedSizedInto(job, nil, Sized{P: left}, Sized{P: right})
	return out.P, combines
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

// MergeOrderedSizedInto is MergeOrdered over sized payloads, built in a
// destination: one pass over the two sides into dst's storage when that
// holds the larger input and a quarter of the smaller (fitBound), into a
// fresh slice presized for the disjoint case otherwise (a nil dst too). The
// result's Bytes equals PayloadBytes of the result, derived inside the loop
// from the larger side's Bytes and the entries the loop touches anyway (one
// valueBytes per key new to the result, two per combined key). Inputs whose
// Bytes are wrong yield a wrong Bytes and nothing else.
//
// A key both sides hold keeps the right-hand side's string. Decoded
// payloads cut their keys from one arena per payload, and right is the
// newer side of the window: keeping its string lets the arena of a bucket
// that has slid out go with it instead of living on inside an aggregate.
//
// Every Combine call receives the same two-element scratch slice, valid
// only for the duration of that call (see Job.Combine). The scratch is
// local to this call, so concurrent merges never share one.
//
// A destination is for the caller that has a payload nothing reads any
// more — an aggregate a structure overwrote or evicted, see FreeList — so
// that the next merge allocates nothing. dst must not share storage with
// left or right, and nothing beyond its length may be set. A union larger
// than dst continues in a fresh slice as append grows it; dst is then
// cleared and the result does not use it, so a caller that finds the result
// outside dst drops dst. Otherwise what the result leaves unused of dst is
// cleared. Either way a reused buffer pins no key or value of the payload
// it held before. The entries, Bytes and combines do not depend on dst.
//
// The inputs' lengths pick how the two sides are walked. Sides of like size
// are merge-joined, one comparison per output entry. When one side holds at
// most 1/gallopRatio of the other's entries — a bucket entering a running
// sum, a raw bucket meeting a suffix aggregate — the small side's entries
// are looked up in the large one (gallop) and the runs between them copied
// whole. Both ways build the same payload.
func MergeOrderedSizedInto(job *Job, dst Payload, left, right Sized) (Sized, int64) {
	out, combines, _ := MergeOrderedLocated(job, dst, left, right, LocateNone, nil)
	return out, combines
}

// Locate says whether a two-way merge records where the keys of one of its
// inputs — the raw operand, a bucket — stand, and in what (see
// MergeOrderedLocated). A structure that keeps the payloads it merged records
// it so that the reduce reads a moved key's entry by index instead of
// seeking it (ReduceDelta's Located).
type Locate uint8

const (
	// LocateNone records nothing.
	LocateNone Locate = iota
	// LocateRightInResult locates each entry of the right input in the
	// result: where the keys of a bucket pushed into a running sum landed.
	LocateRightInResult
	// LocateLeftInRight locates each entry of the left input in the right
	// one, −(insertion point)−1 where the right lacks its key: where the keys
	// of a bucket stand in the suffix aggregate it is merged into.
	LocateLeftInRight
)

// MergeOrderedLocated is MergeOrderedSizedInto that also records, as mode
// says, one position per entry of the raw operand, in order: appended to
// at[:0], whose storage it reuses, and returned. Same entries, same Bytes,
// same combines as the merge that records nothing, which is this one with
// LocateNone (at is then returned as it came).
func MergeOrderedLocated(job *Job, dst Payload, left, right Sized, mode Locate, at []int32) (Sized, int64, []int32) {
	l, r := left.P, right.P
	out, used := mergeStorage(dst, max(len(l), len(r)), len(l)+len(r))
	var loc *locator
	if mode != LocateNone {
		loc = &locator{at: at[:0], rawLeft: mode == LocateLeftInRight}
	}
	bytes := left.Bytes
	var combines int64
	switch {
	case len(l) == 0:
		out, bytes = append(out, r...), right.Bytes
		if loc != nil && !loc.rawLeft {
			loc.run(0, len(r), 0)
		}
	case len(r) == 0:
		out = append(out, l...)
		if loc != nil && loc.rawLeft {
			loc.run(0, len(l), 0)
		}
	case len(r)*gallopRatio <= len(l):
		out, bytes, combines = gallop(job, out, r, l, false, left.Bytes, loc)
	case len(l)*gallopRatio <= len(r):
		out, bytes, combines = gallop(job, out, l, r, true, right.Bytes, loc)
	default:
		out, bytes, combines = mergeJoin(job, out, l, r, left.Bytes, loc)
	}
	releaseStorage(dst, out, used)
	if loc != nil {
		at = loc.at
	}
	return Sized{P: out, Bytes: bytes}, combines, at
}

// locator collects the positions a merge records (see Locate), one per entry
// of the raw operand in key order. rawLeft: the raw operand is the left input
// and is located in the right one (LocateLeftInRight); otherwise it is the
// right input, located in the result.
type locator struct {
	at      []int32
	rawLeft bool
}

// note records the next raw entry: it lands at index res of the result, and
// other is the index in the other input of its key (present) or of the first
// greater key.
func (l *locator) note(res, other int, present bool) {
	switch {
	case !l.rawLeft:
		l.at = append(l.at, int32(res))
	case present:
		l.at = append(l.at, int32(other))
	default:
		l.at = append(l.at, int32(-other-1))
	}
}

// run records n raw entries in a row whose keys the other input lacks: they
// land at res, res+1, … of the result, and other is the index of the first
// key of the other input greater than them all.
func (l *locator) run(res, n, other int) {
	for i := range n {
		l.note(res+i, other, false)
	}
}

// mergeJoin appends to out the merge of l and r by walking both, one key
// comparison per output entry. bytes is l's carried size and comes back as
// the result's. loc, when set, records the raw operand's positions.
func mergeJoin(job *Job, out, l, r Payload, bytes int64, loc *locator) (Payload, int64, int64) {
	pair := make([]Value, 2)
	var combines int64
	i, j := 0, 0
	for i < len(l) && j < len(r) {
		// compareKey's first clause written out: the three-way rule does not
		// inline, and two derived prefixes that differ decide most of a
		// merge's comparisons.
		c := 1
		if pl, pr := l[i].prefix, r[j].prefix; pl == pr || min(pl, pr) == 0 {
			c = compareKeys(l[i], r[j])
		} else if pl < pr {
			c = -1
		}
		switch {
		case c < 0:
			if loc != nil && loc.rawLeft {
				loc.note(len(out), j, false)
			}
			out = append(out, l[i])
			i++
		case c > 0:
			if loc != nil && !loc.rawLeft {
				loc.note(len(out), 0, false)
			}
			out = append(out, r[j])
			bytes += int64(len(r[j].Key)) + valueBytes(r[j].Value)
			j++
		default:
			if loc != nil {
				loc.note(len(out), j, true)
			}
			existing := l[i].Value
			pair[0], pair[1] = existing, r[j].Value
			combined := job.Combine(r[j].Key, pair)
			out = append(out, r[j])
			out[len(out)-1].Value = combined
			bytes += valueBytes(combined) - valueBytes(existing)
			combines++
			i, j = i+1, j+1
		}
	}
	if loc != nil {
		if loc.rawLeft {
			loc.run(len(out), len(l)-i, len(r))
		} else {
			loc.run(len(out)+len(l)-i, len(r)-j, 0)
		}
	}
	out = append(out, l[i:]...)
	for _, e := range r[j:] {
		bytes += int64(len(e.Key)) + valueBytes(e.Value)
	}
	return append(out, r[j:]...), bytes, combines
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
// loc, when set, records the raw operand's positions, whichever side it is.
func gallop(job *Job, out, small, large Payload, smallIsLeft bool, bytes int64, loc *locator) (Payload, int64, int64) {
	pair := make([]Value, 2)
	var combines int64
	rawSmall := loc != nil && loc.rawLeft == smallIsLeft
	rawLarge := loc != nil && !rawSmall
	n := len(large) // large's entries are at n−len(large) onwards
	for si := range small {
		e := &small[si]
		rest := seek(large, e.Key, e.prefix)
		if rawLarge {
			loc.run(len(out), len(large)-len(rest), si)
		}
		out = append(out, large[:len(large)-len(rest)]...)
		large = rest
		if len(large) == 0 || large[0].Key != e.Key {
			if rawSmall {
				loc.note(len(out), n-len(large), false)
			}
			out = append(out, *e)
			bytes += int64(len(e.Key)) + valueBytes(e.Value)
			continue
		}
		switch {
		case rawSmall:
			loc.note(len(out), n-len(large), true)
		case rawLarge:
			loc.note(len(out), si, true)
		}
		held, kept := &large[0], e
		if smallIsLeft {
			pair[0], pair[1], kept = e.Value, held.Value, held
		} else {
			pair[0], pair[1] = held.Value, e.Value
		}
		combined := job.Combine(kept.Key, pair)
		out = append(out, *kept)
		out[len(out)-1].Value = combined
		bytes += valueBytes(combined) - valueBytes(held.Value)
		combines++
		large = large[1:]
	}
	if rawLarge {
		loc.run(len(out), len(large), len(small))
	}
	return append(out, large...), bytes, combines
}

// cursor is one input of a K-way merge-join.
type cursor struct {
	rest Payload // entries not yet visited; never empty while on the heap
	idx  int     // position among the inputs: the tie-break that keeps window order
}

func (a cursor) before(b cursor) bool {
	c := compareKeys(a.rest[0], b.rest[0])
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
// order; a key occurs at most once per payload. key and prefix are the
// rightmost holder's (see MergeOrderedSizedInto); vals is scratch, overwritten
// for the next key (see Job.Combine). It allocates the scratch, and the
// heap when more than a handful of payloads are live — nothing per key.
func joinK(payloads []Sized, visit func(key string, prefix uint64, vals []Value)) {
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
		key, prefix := h[0].rest[0].Key, h[0].rest[0].prefix
		vals = vals[:0]
		for len(h) > 0 && h[0].rest[0].Key == key {
			head := &h[0]
			key, prefix = head.rest[0].Key, head.rest[0].prefix
			vals = append(vals, head.rest[0].Value)
			if head.rest = head.rest[1:]; len(head.rest) == 0 {
				*head = h[len(h)-1]
				h = h[:len(h)-1]
			}
			siftDown(h, 0)
		}
		visit(key, prefix, vals)
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
	out, combines := MergeOrderedKSizedInto(job, nil, sized)
	return out.P, combines
}

// MergeOrderedKSizedInto is MergeOrderedK over sized payloads, built in a
// destination on MergeOrderedSizedInto's terms: the result is built in dst
// when that holds the largest input and a quarter of the others' entries,
// dst is cleared and dropped when the union outgrows it, and it is left
// alone when it is too small to be used (nil included). The result's Bytes
// equals PayloadBytes of the result, accumulated as each entry is appended
// (or carried from the inputs where the result is a copy of one). Each
// Combine receives joinK's scratch, valid only for the duration of the call.
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
	joinK(payloads, func(key string, prefix uint64, vals []Value) {
		v := vals[0]
		if len(vals) > 1 {
			v = job.Combine(key, vals)
			combines++
		}
		out = append(out, Entry{Key: key, Value: v, prefix: prefix})
		bytes += int64(len(key)) + valueBytes(v)
	})
	releaseStorage(dst, out, used)
	return Sized{P: out, Bytes: bytes}, combines
}

// PayloadBytes estimates the in-memory size of a payload: each key's length
// and its value's valueBytes. It walks every entry: call it where a payload
// arrives without a size (a decoded checkpoint, a foreign MapRunner's
// result — see Size), and as the oracle the carried sizes of Sized payloads
// are tested against; never per slide over resident state.
func PayloadBytes(p Payload) int64 {
	var total int64
	for _, e := range p {
		total += int64(len(e.Key)) + valueBytes(e.Value)
	}
	return total
}

// valueBytes is the one rule a value's size is estimated by: a Sizer
// reports its own, any other type has a per-type default.
func valueBytes(v Value) int64 {
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
			n += valueBytes(e)
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
// input changed. Values may implement Fingerprinter to override; a value of
// a type with neither a Fingerprint method nor a case of its own here is
// hashed by its structure (structuralFingerprint).
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
		mix(16)
		mix(structuralFingerprint(reflect.ValueOf(x)))
	}
	return h
}

// structuralFingerprint hashes a value by its structure: the Fingerprint of
// the list of its kind and then a float's bits, a scalar's text, or every
// field, element or map entry in turn. A part that can be handed out is
// hashed by Fingerprint, so it keeps its own type's hash; one that cannot
// (an unexported field) by its structure. Map entries are taken in the
// order of their keys' hashes, which no iteration order moves. A channel or
// a function is hashed by its kind alone, and a value must be a tree: a
// pointer cycle does not end.
func structuralFingerprint(v reflect.Value) uint64 {
	part := func(v reflect.Value) uint64 {
		if v.CanInterface() {
			return Fingerprint(v.Interface())
		}
		return structuralFingerprint(v)
	}
	parts := []Value{uint64(v.Kind())}
	switch v.Kind() {
	case reflect.Chan, reflect.Func, reflect.UnsafePointer:
	case reflect.Float32, reflect.Float64:
		parts = append(parts, math.Float64bits(v.Float()))
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			parts = append(parts, part(v.Elem()))
		}
	case reflect.Struct:
		for i := range v.NumField() {
			parts = append(parts, part(v.Field(i)))
		}
	case reflect.Slice, reflect.Array:
		parts = append(parts, uint64(v.Len()))
		for i := range v.Len() {
			parts = append(parts, part(v.Index(i)))
		}
	case reflect.Map:
		entries := make([][2]uint64, 0, v.Len())
		for it := v.MapRange(); it.Next(); {
			entries = append(entries, [2]uint64{part(it.Key()), part(it.Value())})
		}
		slices.SortFunc(entries, func(a, b [2]uint64) int { return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1])) })
		for _, e := range entries {
			parts = append(parts, e[0], e[1])
		}
	default: // a bool, an integer, a complex number, a string: its text
		parts = append(parts, fmt.Sprint(v))
	}
	return Fingerprint(parts)
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
