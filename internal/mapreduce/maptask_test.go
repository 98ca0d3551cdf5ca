package mapreduce

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
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
				emits = append(emits, Entry{k, int64(1 + i%3)})
			} else {
				emits = append(emits, Entry{k, fmt.Sprintf("%d.", i)})
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
				emits = append(emits, Entry{fmt.Sprintf("emitted-%d", n), int64(i)})
			} else {
				emits = append(emits, Entry{fmt.Sprintf("emitted-%d", n), fmt.Sprintf("%d.", i)})
			}
		}
	}
	return Split{ID: "boundary", Records: []Record{emits}}
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
	want  MapResult // the reference's result
}

// differentialCases are seeded (job, split) pairs with the reference's
// result: both combiners, every partition count of interest, and per job one
// boundarySplit after the drawn ones.
func differentialCases(t testing.TB, seed int64, perShape int) []differentialCase {
	rng := rand.New(rand.NewSource(seed))
	var cases []differentialCase
	for _, partitions := range []int{1, 3, 4, 7} {
		for _, ints := range []bool{false, true} {
			job := scriptJob(partitions, joinStrings)
			if ints {
				job = scriptJob(partitions, sumJob(1).Combine)
			}
			for i := 0; i <= perShape; i++ {
				c := differentialCase{
					label: fmt.Sprintf("seed %d, %d partitions, ints=%v, split %d", seed, partitions, ints, i),
					job:   job,
					split: boundarySplit(ints),
				}
				if i < perShape {
					c.split = scriptSplit(rng, fmt.Sprintf("s%d", i), ints)
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
// nil where nothing was emitted), PartBytes, Bytes and Records: on a scratch
// that has never run, on one that has just run something larger, and through
// the pool.
func TestMapTaskMatchesReference(t *testing.T) {
	cases := differentialCases(t, 20141208, 6)
	warm := newMapScratch()
	for _, c := range cases {
		got, err := newMapScratch().run(c.job, c.split)
		if err != nil {
			t.Fatal(err)
		}
		sameMapResult(t, c.label+", cold scratch", got, c.want)
		if got, err = warm.run(c.job, c.split); err != nil {
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
	})
}

// assertScratchClean: a scratch between tasks holds no key, no value and no
// job — not in the live part of its slices and not in what lies beyond it.
func assertScratchClean(t testing.TB, s *mapScratch) {
	t.Helper()
	if s.job != nil {
		t.Fatal("released scratch holds a job")
	}
	if len(s.entries)+len(s.vals)+len(s.next)+len(s.args) != 0 {
		t.Fatalf("released scratch is not empty: %d entries, %d values, %d links, %d arguments",
			len(s.entries), len(s.vals), len(s.next), len(s.args))
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
// slice per partition it emitted to, the Parts and PartBytes slices — and the
// emit closure with the variable that kills it; nothing per pair and nothing
// per key, at ten emits as at a hundred thousand. The test holds the scratch
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
	s := newMapScratch()
	for _, pairs := range []int{10, 1000, 100000} {
		split := Split{ID: "s", Records: []Record{pairs}}
		if _, err := s.run(job, split); err != nil { // grows the scratch to this size
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := s.run(job, split); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d pairs: %.1f allocs", pairs, allocs)
		if allocs > partitions+4 {
			t.Errorf("%d emitted pairs: a warm task makes %.1f allocations, want ≤ %d", pairs, allocs, partitions+4)
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
		large = append(large, Entry{fmt.Sprintf("word-%04d", i), "x"})
	}
	s := newMapScratch()
	if _, err := s.run(job, Split{ID: "large", Records: []Record{large}}); err != nil {
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
		got, err := s.run(job, split)
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
		if _, err := s.run(job, Split{ID: "crowded", Records: []Record{large[:n]}}); err != nil {
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
		script{{"a", "1"}, {"b", "2"}, {"a", "3"}},
		script{{"c", "4"}, {"a", "5"}},
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
	good := Split{ID: "good", Records: []Record{script{{"a", "1"}, {"zz", "2"}, {"a", "3"}, {"m", "4"}}}}
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
			if _, err := s.run(bad, Split{ID: "bad", Records: []Record{script(nil)}}); !errors.Is(err, boom) {
				t.Fatalf("%s: err = %v", failure, err)
			}
		}()
		assertScratchClean(t, s)
		got, err := s.run(scriptJob(4, joinStrings), good)
		if err != nil {
			t.Fatal(err)
		}
		sameMapResult(t, "after "+failure, got, want)
	}
}
