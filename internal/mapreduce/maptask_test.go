package mapreduce

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// script is a record that says what its Map emits: the pairs, in order.
type script []Entry

// scriptJob maps a script by emitting it; its combiner is the one given.
func scriptJob(partitions int, combine func(string, []Value) Value) *Job {
	return &Job{
		Name:       "script",
		Partitions: partitions,
		Map: func(rec Record, emit Emit) error {
			for _, e := range rec.(script) {
				emit(e.Key, e.Value)
			}
			return nil
		},
		Combine: combine,
		Reduce:  combine,
	}
}

// joinStrings is string concatenation: associative, not commutative, and
// its result spells out the order its arguments came in.
func joinStrings(_ string, values []Value) Value {
	var sb strings.Builder
	for _, v := range values {
		sb.WriteString(v.(string))
	}
	return sb.String()
}

// keyShapes are the keys the prefix sort has to get right: a shared prefix
// of eight bytes and more, keys shorter than the prefix, keys that differ
// only in trailing zero bytes (equal padded prefixes), bytes with the top
// bit set (unsigned order) and the empty key.
func keyShapes() []string {
	keys := []string{
		"", "a", "ab", "ab\x00", "ab\x00\x00", "abc", "b",
		"\xff", "\xff\xff", "\xfe\xff", "\x00", "\x00\x00", "\x80",
		"abcdefgh", "abcdefgh\x00", "abcdefghi", "abcdefg", "abcdefgi",
		"\xff\xff\xff\xff\xff\xff\xff\xff", "\xff\xff\xff\xff\xff\xff\xff\xff\xff", "\xff\xff\xff\xff\xff\xff\xff",
	}
	for i := 0; i < 40; i++ {
		keys = append(keys, fmt.Sprintf("word-%04d", i*37%1000))
	}
	return keys
}

// emitCounts are how often one key is emitted in a split: around the point
// where the task folds its pending values, and well past it.
var emitCounts = []int{1, 2, mapPendingBound - 1, mapPendingBound, mapPendingBound + 1, 3 * mapPendingBound}

// scriptSplit draws a split: some of the shaped keys and some random ones,
// each emitted one of emitCounts times (the large counts rarely, so that a
// split stays small), all emits shuffled and cut into records. Values are
// the emit's number within its key ("0.", "1.", …), or small ints when ints
// is set.
func scriptSplit(rng *rand.Rand, id string, ints bool) Split {
	shapes := keyShapes()
	var keys []string
	for _, i := range rng.Perm(len(shapes))[:rng.Intn(len(shapes))] {
		keys = append(keys, shapes[i])
	}
	for i := rng.Intn(30); i > 0; i-- {
		b := make([]byte, rng.Intn(12))
		rng.Read(b)
		keys = append(keys, string(b))
	}
	var emits script
	for _, k := range keys {
		n := emitCounts[rng.Intn(2)]
		if rng.Intn(20) == 0 {
			n = emitCounts[rng.Intn(len(emitCounts))]
		}
		for i := 0; i < n; i++ {
			if ints {
				emits = append(emits, Entry{Key: k, Value: int64(1 + i%3)})
			} else {
				emits = append(emits, Entry{Key: k, Value: fmt.Sprintf("%d.", i)})
			}
		}
	}
	// Shuffling interleaves the keys' chains; the values keep their numbers,
	// and the reference sees the same order.
	rng.Shuffle(len(emits), func(i, j int) { emits[i], emits[j] = emits[j], emits[i] })
	var recs []Record
	for len(emits) > 0 {
		n := 1 + rng.Intn(len(emits))
		recs = append(recs, emits[:n:n])
		emits = emits[n:]
	}
	if rng.Intn(8) == 0 {
		recs = append(recs, script(nil)) // a record that emits nothing
	}
	return Split{ID: id, Records: recs}
}

// boundarySplit emits one key per emitCounts entry that often, round robin,
// so that every count is there whatever the seeded splits drew.
func boundarySplit(ints bool) Split {
	var emits script
	for i := 0; i < emitCounts[len(emitCounts)-1]; i++ {
		for _, n := range emitCounts {
			if i >= n {
				continue
			}
			if ints {
				emits = append(emits, Entry{Key: fmt.Sprintf("emitted-%d", n), Value: int64(i)})
			} else {
				emits = append(emits, Entry{Key: fmt.Sprintf("emitted-%d", n), Value: fmt.Sprintf("%d.", i)})
			}
		}
	}
	return Split{ID: "boundary", Records: []Record{emits}}
}

// span is the address range [lo, hi) of a string's bytes.
type span struct{ lo, hi uintptr }

func spanOf(s string) span {
	lo := uintptr(unsafe.Pointer(unsafe.StringData(s)))
	return span{lo, lo + uintptr(len(s))}
}

// scriptInputs lists the strings a script split's records hold.
func scriptInputs(split Split) []string {
	var in []string
	for _, rec := range split.Records {
		for _, e := range rec.(script) {
			in = append(in, e.Key)
			if v, ok := e.Value.(string); ok {
				in = append(in, v)
			}
		}
	}
	return in
}

// assertOneKeyArena holds a task's output keys to their layout: read in
// partition then key order, every non-empty key starts where the one before
// it ends — they are substrings of one allocation, laid out in that order —
// and none of them shares a byte with the strings the split's records hold
// (inputs), which the keys were cut from before the task copied them.
func assertOneKeyArena(t testing.TB, label string, res MapResult, inputs []string) {
	t.Helper()
	var arena span
	for p, part := range res.Parts {
		for i, e := range part {
			if e.Key == "" {
				continue
			}
			k := spanOf(e.Key)
			if arena.hi != 0 && k.lo != arena.hi {
				t.Fatalf("%s: partition %d, key %d (%q) does not follow the key before it in one arena", label, p, i, e.Key)
			}
			if arena.hi == 0 {
				arena.lo = k.lo
			}
			arena.hi = k.hi
		}
	}
	for _, in := range inputs {
		if r := spanOf(in); len(in) > 0 && r.lo < arena.hi && arena.lo < r.hi {
			t.Fatalf("%s: the key arena shares bytes with the input string %q", label, in)
		}
	}
}

// sameMapResult holds got to want in everything but the measured cost.
func sameMapResult(t testing.TB, label string, got, want MapResult) {
	t.Helper()
	got.Cost, want.Cost = 0, 0
	if reflect.DeepEqual(got, want) {
		return
	}
	for p := range want.Parts {
		if p < len(got.Parts) && !reflect.DeepEqual(got.Parts[p], want.Parts[p]) {
			t.Fatalf("%s: partition %d:\n got %#v\nwant %#v", label, p, got.Parts[p], want.Parts[p])
		}
	}
	t.Fatalf("%s:\n got %+v\nwant %+v", label, got, want)
}

type differentialCase struct {
	label string
	job   *Job
	split Split
	ints  bool      // every value is an int64 and job's Combine sums them
	want  MapResult // the reference's result
}

// TestKeyPrefix holds keyPrefix to its definition — the first eight bytes,
// zero padded, read big endian — at every length up to 16, over random bytes
// (the zero byte and the top bit among them).
func TestKeyPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for n := 0; n <= 16; n++ {
		for trial := 0; trial < 200; trial++ {
			b := make([]byte, n)
			for i := range b {
				b[i] = []byte{0, 1, 'a', 0x7f, 0x80, 0xff}[rng.Intn(6)]
			}
			var want [8]byte
			copy(want[:], b)
			if got := keyPrefix(string(b)); got != binary.BigEndian.Uint64(want[:]) {
				t.Fatalf("keyPrefix(%q) = %#x, want %#x", b, got, binary.BigEndian.Uint64(want[:]))
			}
		}
	}
}

// radixKeys are keys enough for every partition of up to seven to take the
// radix sort, most of them in groups that share their padded prefix: per
// group a 7-byte key, its extensions by one and two zero bytes (8 and 9
// bytes), and a 16-byte one that shares its first eight bytes with the
// 8-byte key — plus the empty key, "ab" and "ab\x00", which only their
// lengths tell apart, and collidingKeys, which only their tails do. Every
// fourth group adds two 13-byte keys that differ only in their last byte,
// which the hash reads in a word of its own, and two 27-byte keys that
// differ only past their sixteenth, which it reads through maphash.
func radixKeys() []string {
	a, b := collidingKeys()
	keys := []string{"", "ab", "ab\x00", a, b}
	for i := 0; i < 400; i++ {
		k := fmt.Sprintf("w%06d", i*7919%1000000)
		keys = append(keys, k, k+"\x00", k+"\x00\x00", k+"\x00"+fmt.Sprintf("%08d", i))
		if i%4 == 0 {
			long := k + "\x00" + fmt.Sprintf("%08d", i) + "-tail-of-"
			keys = append(keys, k+"-tail0", k+"-tail1", long+"x", long+"y")
		}
	}
	return keys
}

// TestSlotHashIsKeyed: the index's hash is the process's. Under two seeds
// the same thousand keys — of every length class the hash reads apart: up
// to eight bytes, 9 to 16, and longer — take different slot orders in a
// table of 2 048 slots, so no order fixed outside the process can aim them
// at one probe sequence. Under one seed the order is the same every time.
// And every byte counts: in each class, 256 keys that differ only in their
// last byte take 256 hashes.
func TestSlotHashIsKeyed(t *testing.T) {
	for _, n := range []int{7, 8, 12, 16, 27} {
		seen := make(map[uint32]bool)
		for b := 0; b < 256; b++ {
			k := strings.Repeat("k", n-1) + string([]byte{byte(b)})
			seen[slotHash(k, keyPrefix(k))] = true
		}
		if len(seen) != 256 {
			t.Errorf("256 keys of %d bytes that differ in their last byte take %d hashes", n, len(seen))
		}
	}
	keys := make([]string, 1000)
	for i := range keys {
		keys[i] = fmt.Sprintf("%0*d", 1+i%24, i)
	}
	order := func(k *hashKeys) []string {
		out := slices.Clone(keys)
		slices.SortStableFunc(out, func(a, b string) int {
			return cmp.Compare(k.hash(a, keyPrefix(a))&2047, k.hash(b, keyPrefix(b))&2047)
		})
		return out
	}
	one, other := newHashKeys(maphash.MakeSeed()), newHashKeys(maphash.MakeSeed())
	if !slices.Equal(order(&one), order(&one)) {
		t.Fatal("one seed orders the same keys two ways")
	}
	if slices.Equal(order(&one), order(&other)) {
		t.Fatal("two seeds put a thousand keys in the same slot order")
	}
	all := keys
	for _, n := range []int{8, 16, 24} { // and within each length class
		keys = nil
		for _, k := range all {
			if len(k) <= n && len(k) > n-8 {
				keys = append(keys, k)
			}
		}
		if slices.Equal(order(&one), order(&other)) {
			t.Fatalf("two seeds put %d keys of %d to %d bytes in the same slot order", len(keys), n-7, n)
		}
	}
}

// TestEmitPlacesBySlotHash: emit and emitSum write slotHash out by hand; the
// hash each stores in its slot is slotHash of the slot's key, at every
// length class, and reset empties the index by the same hash.
func TestEmitPlacesBySlotHash(t *testing.T) {
	for _, sum := range []bool{false, true} {
		s := newMapScratch()
		s.slots = make([]mapSlot, 1<<16) // never grown, and so sparse that reset walks the keys' runs
		for _, k := range radixKeys() {
			if sum {
				s.emitSum(k, int64(1))
			} else {
				s.emit(k, int64(1))
			}
		}
		for _, slot := range s.slots {
			if slot.ref == 0 {
				continue
			}
			e := s.entries[slot.ref-1]
			if want := slotHash(e.key, keyPrefix(e.key)); slot.hash != want || e.prefix != keyPrefix(e.key) {
				t.Fatalf("sum %v: %q sits under hash %#x and prefix %#x, want %#x and %#x", sum, e.key, slot.hash, e.prefix, want, keyPrefix(e.key))
			}
		}
		s.reset()
		for i, slot := range s.slots {
			if slot != (mapSlot{}) {
				t.Fatalf("sum %v: slot %d holds %+v after reset", sum, i, slot)
			}
		}
	}
}

// collidingKeys are two 16-byte keys with the same first eight bytes and the
// same slotHash in this process: where emit meets an entry it must compare
// the tails. Found by a birthday search, some 2^16 keys.
var collidingKeys = sync.OnceValues(func() (string, string) {
	seen := make(map[uint32]string, 1<<17)
	for i := 0; ; i++ {
		k := fmt.Sprintf("collide\x00%08x", i)
		if other, ok := seen[slotHash(k, keyPrefix(k))]; ok {
			return other, k
		}
		seen[slotHash(k, keyPrefix(k))] = k
	}
})

// radixSplit emits every radixKeys key one to three times, shuffled, so that
// a group's keys are first emitted in any order.
func radixSplit(rng *rand.Rand, ints bool) Split {
	var emits script
	for _, k := range radixKeys() {
		for i := rng.Intn(3); i >= 0; i-- {
			if ints {
				emits = append(emits, Entry{Key: k, Value: int64(1 + i)})
			} else {
				emits = append(emits, Entry{Key: k, Value: fmt.Sprintf("%d.", i)})
			}
		}
	}
	rng.Shuffle(len(emits), func(i, j int) { emits[i], emits[j] = emits[j], emits[i] })
	return Split{ID: "radix", Records: []Record{emits[:len(emits)/2], emits[len(emits)/2:]}}
}

// differentialCases are seeded (job, split) pairs with the reference's
// result: both combiners, every partition count of interest, and per job one
// boundarySplit and one radixSplit after the drawn ones.
func differentialCases(t testing.TB, seed int64, perShape int) []differentialCase {
	rng := rand.New(rand.NewSource(seed))
	var cases []differentialCase
	for _, partitions := range []int{1, 3, 4, 7} {
		for _, ints := range []bool{false, true} {
			job := scriptJob(partitions, joinStrings)
			if ints {
				job = scriptJob(partitions, sumJob(1).Combine)
			}
			for i := 0; i <= perShape+1; i++ {
				c := differentialCase{
					label: fmt.Sprintf("seed %d, %d partitions, ints=%v, split %d", seed, partitions, ints, i),
					job:   job,
					ints:  ints,
				}
				switch {
				case i < perShape:
					c.split = scriptSplit(rng, fmt.Sprintf("s%d", i), ints)
				case i == perShape:
					c.split = boundarySplit(ints)
				default:
					c.split = radixSplit(rng, ints)
				}
				var err error
				if c.want, err = refRunMapTask(job, c.split); err != nil {
					t.Fatal(err)
				}
				cases = append(cases, c)
			}
		}
	}
	return cases
}

// TestMapTaskMatchesReference is what the kernel's rewrite rests on: over
// seeded splits — every key shape, per-key emit counts on both sides of the
// pending bound, chains interleaved — under a combiner that records the order
// of its arguments, RunMapTask gives the parent's Parts (keys, values, order,
// nil where nothing was emitted), PartBytes and Records: on a scratch
// that has never run, on one that has just run something larger, and through
// the pool.
func TestMapTaskMatchesReference(t *testing.T) {
	cases := differentialCases(t, 20141208, 6)
	warm := newMapScratch()
	for _, c := range cases {
		got, err := runIn(newMapScratch(), c.job, c.split)
		if err != nil {
			t.Fatal(err)
		}
		sameMapResult(t, c.label+", cold scratch", got, c.want)
		if got, err = runIn(warm, c.job, c.split); err != nil {
			t.Fatal(err)
		}
		sameMapResult(t, c.label+", reused scratch", got, c.want)
		if got, err = RunMapTask(c.job, c.split); err != nil {
			t.Fatal(err)
		}
		sameMapResult(t, c.label+", pooled", got, c.want)
		for p, part := range got.Parts {
			if !part.IsSorted() {
				t.Fatalf("%s: partition %d is not strictly sorted", c.label, p)
			}
			if part != nil && cap(part) != len(part) {
				t.Fatalf("%s: partition %d holds %d entries in a slice of %d", c.label, p, len(part), cap(part))
			}
		}
		assertOneKeyArena(t, c.label, got, scriptInputs(c.split))
		assertScratchClean(t, warm)
	}
}

// TestMapTaskConcurrent runs the same cases from eight goroutines at once,
// each in its own order: tasks share the pool and nothing else (-race).
func TestMapTaskConcurrent(t *testing.T) {
	cases := differentialCases(t, 7, 2)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for round := 0; round < 2; round++ {
				for _, i := range rng.Perm(len(cases)) {
					c := cases[i]
					got, err := RunMapTask(c.job, c.split)
					if err != nil {
						t.Error(err)
						return
					}
					got.Cost = 0
					if !reflect.DeepEqual(got, c.want) {
						t.Errorf("goroutine %d: %s: result differs from the reference", g, c.label)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// FuzzMapTask holds RunMapTask to the reference over arbitrary records: a
// record is a line of the input, it emits each of its space-separated words
// under the word less its last byte, so that keys repeat, nest as prefixes of
// one another and include the empty key.
func FuzzMapTask(f *testing.F) {
	f.Add([]byte("a ab abc\nab ab\n"), uint8(4))
	f.Add([]byte("word-0001x word-0001y word-0002x\n\xff\xffz \xffz z"), uint8(3))
	f.Add([]byte("ab\x00x ab\x00\x00x abx\nabcdefghi abcdefgh\x00 abcdefghij"), uint8(7))
	f.Add(bytes.Repeat([]byte("kx ky lz\n"), mapPendingBound+3), uint8(1))
	// radixKeys backwards, so that each group's keys come first in descending
	// order; each word is a key and one byte more.
	var radix bytes.Buffer
	keys := radixKeys()
	for i := len(keys) - 1; i >= 0; i-- {
		radix.WriteString(keys[i] + "x")
		radix.WriteByte(" \n"[i%2])
	}
	f.Add(radix.Bytes(), uint8(2))
	f.Add([]byte{}, uint8(0))
	job := &Job{
		Name: "fuzz",
		Map: func(rec Record, emit Emit) error {
			for _, w := range strings.Split(rec.(string), " ") {
				if w != "" {
					emit(w[:len(w)-1], w)
				}
			}
			return nil
		},
		Combine: joinStrings,
		Reduce:  joinStrings,
	}
	// The same words summed: a word's value is its last byte in the top one
	// of eight, so a key's total wraps as soon as it has a few.
	sum := sumJob(0)
	sum.Map = func(rec Record, emit Emit) error {
		for _, w := range strings.Split(rec.(string), " ") {
			if w != "" {
				emit(w[:len(w)-1], int64(w[len(w)-1])<<56)
			}
		}
		return nil
	}
	f.Fuzz(func(t *testing.T, data []byte, partitions uint8) {
		job := *job
		job.Partitions = int(partitions % 9)
		split := Split{ID: "fuzz"}
		for _, line := range strings.Split(string(data), "\n") {
			split.Records = append(split.Records, line)
		}
		want, err := refRunMapTask(&job, split)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunMapTask(&job, split)
		if err != nil {
			t.Fatal(err)
		}
		sameMapResult(t, "fuzz", got, want)
		// Map emits every key as a substring of its line: the task's copies
		// must lie elsewhere.
		lines := make([]string, len(split.Records))
		for i, rec := range split.Records {
			lines[i] = rec.(string)
		}
		assertOneKeyArena(t, "fuzz", got, lines)

		chain := *sum
		chain.Partitions = job.Partitions
		declared := chain
		declared.SumInt64 = true
		if want, err = RunMapTask(&chain, split); err != nil {
			t.Fatal(err)
		}
		if got, err = RunMapTask(&declared, split); err != nil {
			t.Fatal(err)
		}
		sameMapResult(t, "fuzz, declared sum", got, want)
	})
}

// wrapSplit emits int64 values that make every key's total wrap past
// MaxInt64 or MinInt64, some of them more than mapPendingBound times, so
// that the fold groups them into several Combine calls.
func wrapSplit() Split {
	var emits script
	for i := 0; i < 3*mapPendingBound; i++ {
		emits = append(emits, Entry{Key: "max", Value: int64(math.MaxInt64 - i%3)}, Entry{Key: "min", Value: int64(math.MinInt64 + i%5)})
		if i%7 == 0 {
			emits = append(emits, Entry{Key: fmt.Sprintf("mixed-%d", i%11), Value: int64(i) << 60})
		}
	}
	return Split{ID: "wrap", Records: []Record{emits[:len(emits)/3], emits[len(emits)/3:]}}
}

// TestMapTaskSumMatchesChain: a task whose job declares SumInt64 adds each
// value as it is emitted and never calls Combine, and gives what the same
// job gives undeclared — its values chained, folded and combined — Parts,
// PartBytes, every key string and every value's type: over every
// int64-valued differential case, and over totals that wrap, on a cold
// scratch, a reused one and through the pool.
func TestMapTaskSumMatchesChain(t *testing.T) {
	cases := differentialCases(t, 20141208, 6)
	for _, partitions := range []int{1, 4} {
		job := scriptJob(partitions, sumJob(1).Combine)
		cases = append(cases, differentialCase{label: fmt.Sprintf("wrap, %d partitions", partitions), job: job, split: wrapSplit(), ints: true})
	}
	warm := newMapScratch()
	n := 0
	for _, c := range cases {
		if !c.ints {
			continue
		}
		n++
		want, err := runIn(newMapScratch(), c.job, c.split)
		if err != nil {
			t.Fatal(err)
		}
		declared := *c.job
		declared.SumInt64 = true
		declared.Combine = func(string, []Value) Value { panic("a declared sum's task called Combine") }
		for _, run := range []struct {
			label string
			run   func() (MapResult, error)
		}{
			{"cold scratch", func() (MapResult, error) { return runIn(newMapScratch(), &declared, c.split) }},
			{"reused scratch", func() (MapResult, error) { return runIn(warm, &declared, c.split) }},
			{"pooled", func() (MapResult, error) { return RunMapTask(&declared, c.split) }},
		} {
			got, err := run.run()
			if err != nil {
				t.Fatal(err)
			}
			sameMapResult(t, c.label+", declared, "+run.label, got, want)
			assertOneKeyArena(t, c.label, got, scriptInputs(c.split))
		}
		assertScratchClean(t, warm)
		// The undeclared job still runs its chain in the scratch the
		// declared one used.
		got, err := runIn(warm, c.job, c.split)
		if err != nil {
			t.Fatal(err)
		}
		sameMapResult(t, c.label+", undeclared after declared", got, want)
	}
	if n == 0 {
		t.Fatal("no int64-valued case")
	}
}

// TestDeclaredSumRefusesOtherValues: a task whose job declares SumInt64 but
// emits some other value fails with an error that names the job and the
// value's type, without a panic, and leaves its scratch as a finished task
// does: the next task run in it gets its exact output.
func TestDeclaredSumRefusesOtherValues(t *testing.T) {
	good := Split{ID: "good", Records: []Record{script{{Key: "a", Value: int64(1)}, {Key: "b", Value: int64(2)}, {Key: "a", Value: int64(3)}}}}
	job := scriptJob(3, sumJob(1).Combine)
	want, err := refRunMapTask(job, good)
	if err != nil {
		t.Fatal(err)
	}
	declared := *job
	declared.SumInt64 = true
	for _, bad := range []struct {
		value Value
		typ   string
	}{{1.5, "float64"}, {int(1), "int"}, {"1", "string"}, {nil, "<nil>"}} {
		split := Split{ID: "bad", Records: []Record{
			script{{Key: "a", Value: int64(1)}, {Key: "b", Value: int64(1)}},
			script{{Key: "a", Value: bad.value}, {Key: "c", Value: int64(1)}},
		}}
		s := newMapScratch()
		_, err := runIn(s, &declared, split)
		if err == nil || !strings.Contains(err.Error(), `"script"`) || !strings.Contains(err.Error(), bad.typ) {
			t.Fatalf("a declared sum emitting a %s: err = %v, want one naming the job and the type", bad.typ, err)
		}
		assertScratchClean(t, s)
		got, err := runIn(s, &declared, good)
		if err != nil {
			t.Fatal(err)
		}
		sameMapResult(t, "after a "+bad.typ, got, want)
		if _, err := RunMapTask(&declared, split); err == nil {
			t.Fatalf("a pooled declared task emitting a %s did not fail", bad.typ)
		}
	}
}

// runIn is RunMapTask in the scratch s instead of a pooled one: the task's
// output cut into payloads by the writer RunMapTask hands it.
func runIn(s *mapScratch, job *Job, split Split) (res MapResult, err error) {
	err = s.run(job, split.ID, split.Records, nil, func(o *TaskOutput) error {
		res = o.cut()
		return nil
	})
	return res, err
}

// assertScratchClean: a scratch between tasks holds no key, no value and no
// job — not in the live part of its slices and not in what lies beyond it.
func assertScratchClean(t testing.TB, s *mapScratch) {
	t.Helper()
	if s.job != nil {
		t.Fatal("released scratch holds a job")
	}
	if len(s.entries)+len(s.vals)+len(s.next)+len(s.args)+len(s.sums) != 0 || s.notSum != "" {
		t.Fatalf("released scratch is not empty: %d entries, %d values, %d links, %d arguments, %d totals, %q",
			len(s.entries), len(s.vals), len(s.next), len(s.args), len(s.sums), s.notSum)
	}
	for i, slot := range s.slots {
		if slot != (mapSlot{}) {
			t.Fatalf("released scratch: slot %d is taken", i)
		}
	}
	for i, e := range s.entries[:cap(s.entries)] {
		if e.key != "" {
			t.Fatalf("released scratch: entry %d holds key %q", i, e.key)
		}
	}
	for i, v := range s.vals[:cap(s.vals)] {
		if v != nil {
			t.Fatalf("released scratch: pending value %d is %v", i, v)
		}
	}
	for i, v := range s.args[:cap(s.args)] {
		if v != nil {
			t.Fatalf("released scratch: Combine argument %d is %v", i, v)
		}
	}
}

// TestMapTaskAllocs pins the kernel's allocation shape: a warm task of a job
// whose Map and Combine allocate nothing allocates its outputs — one entry
// slice per partition it emitted to, the Parts and PartBytes slices, and the
// one string every output key is cut from (the keys' arena: copied there, a
// key no longer holds the record it was emitted from) — and the emit closure
// with the variable that kills it; nothing per pair and nothing per key, at
// ten emits as at a hundred thousand. The test holds the scratch
// itself: what the pool adds is a scratch regrown whenever it has let one go,
// which is the collector's doing and, under the race detector, chance's.
func TestMapTaskAllocs(t *testing.T) {
	const partitions = 4
	keys := make([]string, 20000)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%05d", i*7919%len(keys))
	}
	var one Value = int64(1)
	job := &Job{
		Name:       "no-allocs",
		Partitions: partitions,
		Map: func(rec Record, emit Emit) error {
			for i, n := 0, rec.(int); i < n; i++ {
				emit(keys[(i*31)%len(keys)%(n/3+1)], one)
			}
			return nil
		},
		// The first value stands for all of them: nothing to box.
		Combine: func(_ string, values []Value) Value { return values[0] },
		Reduce:  func(_ string, values []Value) Value { return values[0] },
	}
	// Declared, the same emits are summed as they come: no key's total
	// reaches 256, so boxing it allocates nothing either.
	declared := *job
	declared.SumInt64 = true
	declared.Combine = sumJob(1).Combine
	for _, job := range []*Job{job, &declared} {
		s := newMapScratch()
		for _, pairs := range []int{10, 1000, 100000} {
			split := Split{ID: "s", Records: []Record{pairs}}
			if _, err := runIn(s, job, split); err != nil { // grows the scratch to this size
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := runIn(s, job, split); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("declared %v, %d pairs: %.1f allocs", job.SumInt64, pairs, allocs)
			if allocs > partitions+5 {
				t.Errorf("declared %v, %d emitted pairs: a warm task makes %.1f allocations, want ≤ %d",
					job.SumInt64, pairs, allocs, partitions+5)
			}
		}
	}
}

// TestSmallTaskAfterLargeOne: a scratch keeps the index the largest split grew
// it to, and a small task after it neither reads what the large one left nor
// pays to clear the whole table — reset empties it where the task's keys lie.
// The small tasks here collide on purpose (one slot run holds them all).
func TestSmallTaskAfterLargeOne(t *testing.T) {
	job := scriptJob(3, joinStrings)
	var large script
	for i := 0; i < 5000; i++ {
		large = append(large, Entry{Key: fmt.Sprintf("word-%04d", i), Value: "x"})
	}
	s := newMapScratch()
	if _, err := runIn(s, job, Split{ID: "large", Records: []Record{large}}); err != nil {
		t.Fatal(err)
	}
	assertScratchClean(t, s)
	size := len(s.slots)
	for n := 0; n < 40; n++ {
		split := Split{ID: "small", Records: []Record{large[n : 2*n], large[:n]}}
		want, err := refRunMapTask(job, split)
		if err != nil {
			t.Fatal(err)
		}
		got, err := runIn(s, job, split)
		if err != nil {
			t.Fatal(err)
		}
		sameMapResult(t, fmt.Sprintf("%d keys after 5000", 2*n), got, want)
		assertScratchClean(t, s)
	}
	if len(s.slots) != size {
		t.Fatalf("the index went from %d slots to %d", size, len(s.slots))
	}
	// Crowd a small table, so that runs of taken slots join and wrap around.
	s = newMapScratch()
	for n := 1; n <= 7; n++ {
		if _, err := runIn(s, job, Split{ID: "crowded", Records: []Record{large[:n]}}); err != nil {
			t.Fatal(err)
		}
		assertScratchClean(t, s)
	}
}

// TestLeakedEmitIsDead: a Map that keeps its emit and calls it during a later
// task — which has taken the same scratch from the pool — adds nothing to
// that task's output, and a call after everything is over is dropped too.
func TestLeakedEmitIsDead(t *testing.T) {
	var leaked []Emit // the emits of tasks that are over
	var current Emit
	job := scriptJob(3, joinStrings)
	emitScript := job.Map
	job.Map = func(rec Record, emit Emit) error {
		for _, old := range leaked {
			old("a", "!late!")
			old("stray", "!late!")
		}
		current = emit
		return emitScript(rec, emit)
	}
	split := Split{ID: "s", Records: []Record{
		script{{Key: "a", Value: "1"}, {Key: "b", Value: "2"}, {Key: "a", Value: "3"}},
		script{{Key: "c", Value: "4"}, {Key: "a", Value: "5"}},
	}}
	want, err := refRunMapTask(scriptJob(3, joinStrings), split)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		got, err := RunMapTask(job, split)
		if err != nil {
			t.Fatal(err)
		}
		sameMapResult(t, fmt.Sprintf("task %d, %d emits leaked", round, len(leaked)), got, want)
		leaked = append(leaked, current)
	}
	for _, old := range leaked {
		old("a", "!late!")
	}
	s := mapScratchPool.Get().(*mapScratch)
	assertScratchClean(t, s)
	mapScratchPool.Put(s)
}

// TestScratchCleanAfterFailedTask: a task whose Map returns an error, panics,
// or whose Combine panics half-way through a fold leaves its scratch as a
// finished task does — it holds nothing of what the failed task emitted,
// anywhere in its slices' capacity, and the next split run in it gets its
// exact output. (dist's TestFailedMapTaskLeavesNothingBehind is the same
// through the pool and a worker's recover, with the collector as the judge.)
func TestScratchCleanAfterFailedTask(t *testing.T) {
	boom := errors.New("boom")
	good := Split{ID: "good", Records: []Record{script{{Key: "a", Value: "1"}, {Key: "zz", Value: "2"}, {Key: "a", Value: "3"}, {Key: "m", Value: "4"}}}}
	want, err := refRunMapTask(scriptJob(4, joinStrings), good)
	if err != nil {
		t.Fatal(err)
	}
	track := func(_ string, values []Value) Value { return values[len(values)-1] }
	for _, failure := range []string{"error", "panic in Map", "panic in Combine"} {
		bad := scriptJob(4, track)
		bad.Map = func(rec Record, emit Emit) error {
			emit("a", new(int))
			emit("a", new(int))
			emit("b", new(int))
			switch failure {
			case "error":
				return boom
			case "panic in Map":
				panic(boom)
			}
			for i := 0; i <= mapPendingBound; i++ { // the fold this forces runs Combine on "a" first
				emit("b", new(int))
			}
			return nil
		}
		if failure == "panic in Combine" {
			bad.Combine = func(key string, values []Value) Value {
				if key == "b" {
					panic(boom)
				}
				return track(key, values)
			}
		}
		s := newMapScratch()
		func() {
			defer func() {
				if r := recover(); r != nil && r != error(boom) {
					panic(r)
				}
			}()
			if _, err := runIn(s, bad, Split{ID: "bad", Records: []Record{script(nil)}}); !errors.Is(err, boom) {
				t.Fatalf("%s: err = %v", failure, err)
			}
		}()
		assertScratchClean(t, s)
		got, err := runIn(s, scriptJob(4, joinStrings), good)
		if err != nil {
			t.Fatal(err)
		}
		sameMapResult(t, "after "+failure, got, want)
	}
}
