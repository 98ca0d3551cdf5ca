package mapreduce

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// blob is a value whose size comes from the Sizer interface.
type blob struct{ n int64 }

func (b blob) SizeBytes() int64 { return 100 + b.n }

// tally is a count whose size comes from the Sizer interface and moves
// with the count, up and down: a size carried from a key's earlier value,
// or from the other side of a merge, shows.
type tally int64

func (t tally) SizeBytes() int64 { return 3 + int64(t)%7 }

// sizedJobs returns jobs covering the ways valueBytes sizes a value:
// per-type defaults (int64 counts), and Sizer values — a scalar whose size
// depends on its value (tally) and a struct (blob). Each maps a record's
// words to its value type.
func sizedJobs() map[string]*Job {
	sizer := func(name string, one Value, sum func(values []Value) Value) *Job {
		return &Job{
			Name: name,
			Map: func(rec Record, emit Emit) error {
				for _, w := range strings.Fields(rec.(string)) {
					emit(w, one)
				}
				return nil
			},
			Combine: func(_ string, values []Value) Value { return sum(values) },
			Reduce:  func(_ string, values []Value) Value { return sum(values) },
		}
	}
	tallies := sizer("tallies", tally(1), func(values []Value) Value {
		var out tally
		for _, v := range values {
			out += v.(tally)
		}
		return out
	})
	blobs := sizer("blobs", blob{n: 1}, func(values []Value) Value {
		var out blob
		for _, v := range values {
			out.n += v.(blob).n
		}
		return out
	})
	return map[string]*Job{"default": sumJob(1), "tally": tallies, "sizer": blobs}
}

// testPayloads builds n overlapping payloads of the value type the job
// combines.
func testPayloads(job *Job, n int) []Sized {
	out := make([]Sized, n)
	for i := range out {
		p := make(M)
		for k := 0; k < 12; k++ {
			var v Value = int64(i*k + 1)
			switch job.Name {
			case "tallies":
				v = tally(i*k + 1)
			case "blobs":
				v = blob{n: int64(i + k)}
			}
			if k%3 == 0 {
				p[fmt.Sprintf("shared-%d", k)] = v
			} else {
				p[fmt.Sprintf("own-%d-%d", i%3, k)] = v
			}
		}
		out[i] = Size(FromMap(p))
	}
	return out
}

// TestCarriedSizesMatchWalk is the oracle for sizes that travel with
// payloads: whatever builds a payload — a map task's cut, through its
// output, summed by valueBytes as it writes each entry, or a merge — its carried Bytes must equal a
// from-scratch PayloadBytes walk, for every way a value can be sized.
func TestCarriedSizesMatchWalk(t *testing.T) {
	for name, job := range sizedJobs() {
		check := func(label string, got Sized) {
			t.Helper()
			if want := PayloadBytes(got.P); got.Bytes != want {
				t.Errorf("%s/%s: carried %d bytes, walk says %d", name, label, got.Bytes, want)
			}
		}
		task := *job
		task.Partitions = 3
		tasks := []*Job{&task}
		if job.Name == "sum" { // int64 counts, also as a declared sum, whose totals are sized unboxed
			declared := task
			declared.SumInt64 = true
			tasks = append(tasks, &declared)
		}
		for _, task := range tasks {
			res, err := RunMapTask(task, Split{ID: "s", Records: []Record{"a b c d e f a b", "g h a a a", "a b b"}})
			if err != nil {
				t.Fatal(err)
			}
			var sum int64
			for p := range res.Parts {
				check(fmt.Sprintf("map task partition %d, declared %v", p, task.SumInt64), res.PartSized(p))
				sum += res.PartBytes[p]
			}
			if sum != res.Bytes() {
				t.Errorf("%s: map task partitions sum to %d bytes, its Bytes is %d", name, sum, res.Bytes())
			}
		}
		ps := testPayloads(job, 9)
		acc := ps[0]
		for i, p := range ps[1:] {
			acc, _ = MergeOrderedSizedInto(job, nil, acc, p)
			check(fmt.Sprintf("fold step %d", i), acc)
		}
		empty := Sized{P: Payload{}}
		left, _ := MergeOrderedSizedInto(job, nil, empty, ps[1])
		check("empty left", left)
		right, _ := MergeOrderedSizedInto(job, nil, ps[1], Sized{})
		check("empty right", right)
		for _, k := range []int{0, 1, 2, 3, 9} {
			out, _ := MergeOrderedKSizedInto(job, nil, ps[:k])
			check(fmt.Sprintf("K=%d", k), out)
		}
		holes := []Sized{empty, ps[0], {}, ps[1], empty, ps[2]}
		out, _ := MergeOrderedKSizedInto(job, nil, holes)
		check("K with holes", out)
		disjoint := []Sized{
			Size(FromMap(M{"a": at(ps[0].P, "shared-0")})),
			Size(FromMap(M{"b": at(ps[1].P, "shared-0")})),
			Size(FromMap(M{"c": at(ps[2].P, "shared-0")})),
		}
		out, _ = MergeOrderedKSizedInto(job, nil, disjoint)
		check("K disjoint", out)
	}
}

// TestMapTaskPartSizes checks the per-partition sizes a map task reports
// and the fallback for runners that report none.
func TestMapTaskPartSizes(t *testing.T) {
	job := sumJob(3)
	res, err := RunMapTask(job, Split{ID: "s", Records: []Record{"a b c d e f a b", "g h a"}})
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for p := range res.Parts {
		s := res.PartSized(p)
		if want := PayloadBytes(res.Parts[p]); s.Bytes != want {
			t.Fatalf("partition %d: %d bytes, walk says %d", p, s.Bytes, want)
		}
		sum += s.Bytes
	}
	if sum != res.Bytes() {
		t.Fatalf("part sizes sum to %d, Bytes is %d", sum, res.Bytes())
	}
	res.PartBytes = nil // a foreign MapRunner
	for p := range res.Parts {
		if s := res.PartSized(p); s.Bytes != PayloadBytes(res.Parts[p]) {
			t.Fatalf("partition %d: fallback size %d", p, s.Bytes)
		}
	}
}

// concatJob reduces by concatenation: neither commutative nor indifferent
// to how many values it is handed, so it shows any reordering or
// regrouping of a key's values.
func concatJob() *Job {
	concat := func(_ string, values []Value) Value {
		var sb strings.Builder
		sb.WriteByte('[')
		for _, v := range values {
			sb.WriteString(v.(string))
		}
		sb.WriteByte(']')
		return sb.String()
	}
	return &Job{
		Name: "concat",
		Map: func(rec Record, emit Emit) error {
			for _, w := range strings.Fields(rec.(string)) {
				emit(w[:1], w)
			}
			return nil
		},
		Combine: concat,
		Reduce:  concat,
	}
}

func TestReducePathsEquivalent(t *testing.T) {
	job := concatJob()
	a := FromMap(M{"x": "a1", "y": "a2", "z": "a3"})
	b := FromMap(M{"x": "b1", "z": "b3", "w": "b4"})
	c := FromMap(M{"x": "c1", "v": "c5"})
	cases := map[string][]Payload{
		"no roots":              nil,
		"nil root":              {nil},
		"empty root":            {{}},
		"one root":              {a},
		"one root among empty":  {{}, a, nil},
		"two roots, shared":     {a, b},
		"two roots, reversed":   {b, a},
		"three roots":           {a, b, c},
		"roots around an empty": {a, {}, b},
		"key-disjoint halves":   {{NewEntry("x", "a1")}, {NewEntry("y", "a2"), NewEntry("z", "a3")}},
	}
	for name, roots := range cases {
		want, wantCalls := refReducePayload(job, toMaps(roots))
		got, calls := ReducePayload(job, roots)
		if !reflect.DeepEqual(got, want) || calls != wantCalls {
			t.Errorf("%s: got %v (%d calls), want %v (%d calls)", name, got, calls, want, wantCalls)
		}
		into := Output{"kept": "k"}
		sized := make([]Sized, len(roots))
		for i, p := range roots {
			sized[i].P = p
		}
		if n := ReduceInto(job, sized, into); n != wantCalls || len(into) != len(want)+1 || into["kept"] != "k" {
			t.Errorf("%s: ReduceInto made %d calls into %v", name, n, into)
		}
	}
	// The single-root pass and the grouping pass agree on the same keys.
	whole, _ := ReducePayload(job, []Payload{a})
	halves, _ := ReducePayload(job, cases["key-disjoint halves"])
	if !reflect.DeepEqual(whole, halves) {
		t.Errorf("single-root pass %v, grouping pass %v", whole, halves)
	}
}

// TestReduceIntoLoneRoot checks the direct pass ReduceInto takes over a lone
// non-empty root against the join it bypasses, under a reducer that is
// neither commutative nor blind to grouping: same output, same number of
// calls, keys in ascending order, whether the root stands alone or among
// empty and nil ones — and one allocation, the one-element scratch.
func TestReduceIntoLoneRoot(t *testing.T) {
	job := concatJob()
	concat := job.Reduce
	var order []string
	job.Reduce = func(key string, values []Value) Value {
		order = append(order, key)
		return concat(key, values)
	}
	value := propertyJobs()["concat"].value
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 200; trial++ {
		ps, _ := randomSized(rng, job, value, 1)
		root := ps[0]
		want := make(Output)
		var wantCalls int64
		joinK([]Sized{root}, func(key string, _ uint64, vals []Value) {
			want[key] = job.Reduce(key, vals)
			wantCalls++
		})
		for name, roots := range map[string][]Sized{
			"alone":               {root},
			"among empty and nil": {{}, {P: Payload{}}, root, {}},
		} {
			order = order[:0]
			got := make(Output)
			if calls := ReduceInto(job, roots, got); calls != wantCalls || !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d, %s:\n got %v (%d calls)\nwant %v (%d calls)", trial, name, got, calls, want, wantCalls)
			}
			if len(order) != len(root.P) || !sort.StringsAreSorted(order) {
				t.Fatalf("trial %d, %s: Reduce saw keys %v of root %v", trial, name, order, root.P)
			}
		}
	}

	sum := sumJob(1)
	counts := make(M, 400)
	for i := 0; i < 400; i++ {
		counts[fmt.Sprintf("k%d", i)] = int64(1) // sums stay below 256: boxed without allocating
	}
	roots := []Sized{{}, Size(FromMap(counts)), {P: Payload{}}}
	out := make(Output, len(counts))
	if allocs := testing.AllocsPerRun(20, func() { ReduceInto(sum, roots, out) }); allocs != 1 {
		t.Errorf("lone root among empty ones: %.0f allocs, want 1 (the scratch slice)", allocs)
	}
}

// TestReduceIntoTwoRoots checks the two-cursor pass ReduceInto takes over
// exactly two non-empty roots against the joinK walk it bypasses, under a
// reducer that is neither commutative nor blind to grouping, with key sets
// that are disjoint, overlap or are identical, the roots alone or among
// empty and nil ones: the same output and number of calls, keys in the same
// (ascending) order, each key's values in the same (window) order, and the
// same key string — the right root's, where both hold the key. Then the
// allocation pin: one scratch slice a call, none per key.
func TestReduceIntoTwoRoots(t *testing.T) {
	type call struct {
		key  string
		data *byte // which string Reduce was handed, not only its bytes
		vals string
	}
	job := concatJob()
	concat := job.Reduce
	var calls []call
	job.Reduce = func(key string, values []Value) Value {
		v := concat(key, values)
		calls = append(calls, call{key, unsafe.StringData(key), v.(string)})
		return v
	}
	rng := rand.New(rand.NewSource(39))
	for trial := 0; trial < 200; trial++ {
		keys := make([]string, 1+rng.Intn(40))
		for i := range keys {
			keys[i] = fmt.Sprintf("%x", rng.Intn(1<<20)*2654435761)
		}
		for _, shape := range []string{"disjoint", "overlapping", "identical"} {
			lm, rm := make(M), make(M)
			for i, k := range keys {
				inLeft := shape == "identical" || shape == "disjoint" && i%2 == 0 || shape == "overlapping" && rng.Intn(3) > 0
				inRight := shape == "identical" || shape == "disjoint" && i%2 == 1 || shape == "overlapping" && rng.Intn(3) > 0
				if inLeft {
					lm[k] = fmt.Sprintf("<l%d>", i)
				}
				if inRight {
					rm[strings.Clone(k)] = fmt.Sprintf("<r%d>", i)
				}
			}
			if len(lm) == 0 || len(rm) == 0 {
				continue // not two non-empty roots
			}
			left, right := Size(FromMap(lm)), Size(FromMap(rm))
			calls = calls[:0]
			want := make(Output)
			var wantCalls int64
			joinK([]Sized{left, right}, func(key string, _ uint64, vals []Value) {
				want[key] = job.Reduce(key, vals)
				wantCalls++
			})
			wantSeq := slices.Clone(calls)
			rightData := make(map[string]*byte, len(right.P))
			for _, e := range right.P {
				rightData[e.Key] = unsafe.StringData(e.Key)
			}
			for _, c := range wantSeq {
				if p, ok := rightData[c.key]; ok && c.data != p {
					t.Fatalf("trial %d, %s: the join handed %q under another string than the right root's", trial, shape, c.key)
				}
			}
			for name, roots := range map[string][]Sized{
				"alone":               {left, right},
				"among empty and nil": {{}, left, {P: Payload{}}, right, {}},
			} {
				calls = calls[:0]
				got := make(Output)
				n := ReduceInto(job, roots, got)
				if n != wantCalls || !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d, %s, %s:\n got %v (%d calls)\nwant %v (%d calls)", trial, shape, name, got, n, want, wantCalls)
				}
				if !slices.Equal(calls, wantSeq) {
					t.Fatalf("trial %d, %s, %s: Reduce saw\n %v\nwant\n %v", trial, shape, name, calls, wantSeq)
				}
			}
		}
	}

	sum := sumJob(1)
	lm, rm := make(M, 400), make(M, 400)
	for i := 0; i < 400; i++ {
		lm[fmt.Sprintf("k%d", i)] = int64(1) // sums stay below 256: boxed without allocating
		rm[fmt.Sprintf("k%d", i+200)] = int64(1)
	}
	roots := []Sized{{}, Size(FromMap(lm)), {P: Payload{}}, Size(FromMap(rm)), {}}
	out := make(Output, 600)
	if allocs := testing.AllocsPerRun(20, func() { ReduceInto(sum, roots, out) }); allocs != 1 {
		t.Errorf("two roots among empty ones: %.0f allocs, want 1 (the scratch slice)", allocs)
	}
}

// TestReduceZeroPartitionJob runs the scratch path (many roots per
// partition, so the grouping pass) on a job that leaves Partitions unset.
func TestReduceZeroPartitionJob(t *testing.T) {
	job := concatJob() // Partitions == 0
	splits := []Split{
		{ID: "s0", Records: []Record{"apple avocado", "banana"}},
		{ID: "s1", Records: []Record{"blueberry apricot"}},
		{ID: "s2", Records: []Record{"cherry"}},
	}
	got, err := RunScratch(job, splits, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var roots []Payload
	for _, s := range splits {
		res, err := RunMapTask(job, s)
		if err != nil {
			t.Fatal(err)
		}
		roots = append(roots, res.Parts[0])
	}
	want, _ := refReducePayload(job, toMaps(roots))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scratch output %v, want %v", got, want)
	}
}

// TestMergeScratchIsPerCall folds the same payloads on several goroutines at
// once, as the partitions of a run do: concurrent merges must each use their
// own scratch pair (run under -race), and every fold must equal the lone one
// in output and carried size.
func TestMergeScratchIsPerCall(t *testing.T) {
	job := sumJob(1)
	items := testPayloads(job, 64)
	fold := func() Sized {
		acc := items[0]
		for _, it := range items[1:] {
			acc, _ = MergeOrderedSizedInto(job, nil, acc, it)
		}
		return acc
	}
	want := fold()
	got := make([]Sized, 8)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = fold()
		}(w)
	}
	wg.Wait()
	for w := range got {
		if !reflect.DeepEqual(got[w], want) {
			t.Fatalf("goroutine %d: concurrent fold differs from the lone one", w)
		}
	}
	if want.Bytes != PayloadBytes(want.P) {
		t.Fatalf("carried %d bytes, walk says %d", want.Bytes, PayloadBytes(want.P))
	}
}

// TestMergeIntoDestination covers MergeOrderedSizedInto and
// MergeOrderedKSizedInto against the fresh merges (a nil destination), on
// every sizing kind and every kind of destination. One short of the fit bound (the largest
// input and a quarter of the rest), or nil, is left alone and the result is
// fresh. One that holds the bound and the union carries the result, and what
// the result leaves of it is cleared. One that holds the bound but not the
// union is outgrown: the result continues in a fresh slice and the
// destination is cleared whole. An empty side copies the other into the
// destination. Every way the entries, Bytes and combines are the fresh
// merge's; a destination large enough costs one allocation, the scratch.
func TestMergeIntoDestination(t *testing.T) {
	stale := Entry{Key: "stale", Value: int64(7)}
	staled := func(n int) Payload {
		p := make(Payload, n)
		for j := range p {
			p[j] = stale
		}
		return p
	}
	for name, job := range sizedJobs() {
		ps := testPayloads(job, 6)
		for i := 2; i < len(ps); i++ {
			// Two and three neighbours: their unions (20 and 28 entries) lie
			// between the fit bound (15, 18) and the inputs' total (24, 36).
			for _, inputs := range [][]Sized{ps[i-1 : i+1], ps[i-2 : i+1]} {
				want, wantC := MergeOrderedKSizedInto(job, nil, inputs)
				into := func(dst Payload) (Sized, int64) {
					if len(inputs) == 2 {
						return MergeOrderedSizedInto(job, dst, inputs[0], inputs[1])
					}
					return MergeOrderedKSizedInto(job, dst, inputs)
				}
				largest, total := 0, 0
				for _, in := range inputs {
					largest, total = max(largest, len(in.P)), total+len(in.P)
				}
				fit, union := fitBound(largest, total), len(want.P)
				if fit >= union || union >= total {
					t.Fatalf("%s: the union of %d inputs (%d entries) is not between the fit bound %d and the total %d", name, len(inputs), union, fit, total)
				}
				for _, c := range []struct {
					kind string
					dst  Payload
					used bool // the result lies in dst
				}{
					{"nil", nil, false},
					{"short of the fit bound", staled(fit - 1), false},
					{"outgrown", staled(fit), false},
					{"fitting the union", staled(union), true},
					{"larger than the inputs", staled(total + 5), true},
				} {
					got, gotC := into(c.dst)
					if !reflect.DeepEqual(got, want) || gotC != wantC {
						t.Fatalf("%s, %d inputs, %s destination: %v (%d combines), want %v (%d)", name, len(inputs), c.kind, got, gotC, want, wantC)
					}
					if c.dst == nil {
						continue
					}
					if inDst := &got.P[0] == &c.dst[0]; inDst != c.used {
						t.Fatalf("%s, %d inputs, %s destination of %d entries: result in it %v, want %v", name, len(inputs), c.kind, len(c.dst), inDst, c.used)
					}
					var rest Payload // what the result leaves of the destination
					switch {
					case c.used:
						rest = c.dst[len(got.P):]
					case c.kind == "outgrown":
						rest = c.dst
					default:
						if !reflect.DeepEqual(c.dst, staled(len(c.dst))) {
							t.Fatalf("%s, %d inputs: a destination %s was written", name, len(inputs), c.kind)
						}
					}
					for j, e := range rest {
						if e != (Entry{}) {
							t.Fatalf("%s, %d inputs, %s destination: entry %d of what the result left still holds %v", name, len(inputs), c.kind, j, e)
						}
					}
				}
			}

			left := ps[i]
			for _, empty := range []Sized{{}, {P: Payload{}}} {
				dst := append(make(Payload, 0, len(left.P)+1), stale)
				l, _ := MergeOrderedSizedInto(job, dst, left, empty)
				r, _ := MergeOrderedSizedInto(job, l.P, empty, left)
				if !reflect.DeepEqual(l, left) || !reflect.DeepEqual(r, left) || &r.P[0] != &dst[0] {
					t.Fatalf("%s: merge with an empty side into a destination: %v / %v, want %v", name, l, r, left)
				}
			}
		}
	}

	job := sumJob(1)
	ps := testPayloads(job, 2)
	dst := make(Payload, 0, len(ps[0].P)+len(ps[1].P))
	if n := testing.AllocsPerRun(20, func() { MergeOrderedSizedInto(job, dst, ps[0], ps[1]) }); n != 1 {
		t.Errorf("merge into a large enough destination: %.0f allocs, want 1 (scratch pair)", n)
	}
}

// TestMergeAndReduceAllocs pins the allocation shape: a binary merge
// allocates its output slice — none when it is handed a destination — and one
// scratch pair however many keys it combines and whichever way it walks its
// sides, a K-way merge its output slice, its scratch and (past a
// handful of inputs) its cursor heap, and a single-root reduce one scratch
// slice beyond the output map — beyond those, only what the combiner or
// reducer itself returns.
func TestMergeAndReduceAllocs(t *testing.T) {
	job := sumJob(1)
	build := func(n int) Sized {
		m := make(M, n)
		for i := 0; i < n; i++ {
			m[fmt.Sprintf("k%d", i)] = int64(1) // small ints box without allocating
		}
		return Size(FromMap(m))
	}
	few, many := build(4), build(400)
	for _, s := range []Sized{few, many} {
		n := len(s.P)
		binary := testing.AllocsPerRun(20, func() {
			if out, c := MergeOrderedSizedInto(job, nil, s, s); int(c) != n || len(out.P) != n {
				t.Fatal("merge did not combine every key")
			}
		})
		if binary != 2 {
			t.Errorf("%d-key binary merge: %.0f allocs, want 2 (output slice, scratch pair)", n, binary)
		}
		three := []Sized{s, s, s}
		kway := testing.AllocsPerRun(20, func() {
			if out, c := MergeOrderedKSizedInto(job, nil, three); int(c) != n || len(out.P) != n {
				t.Fatal("K-way merge did not combine every key")
			}
		})
		if kway != 2 {
			t.Errorf("%d-key 3-way merge: %.0f allocs, want 2 (output slice, scratch)", n, kway)
		}
	}

	// A small side gallops into a large one: in a destination that holds the
	// result the merge allocates its Combine scratch and nothing else — no
	// output slice, nothing per lookup or per copied run.
	dst := make(Payload, 0, len(many.P)+len(few.P))
	for _, sides := range [][2]Sized{{many, few}, {few, many}} {
		galloping := testing.AllocsPerRun(20, func() {
			if out, c := MergeOrderedSizedInto(job, dst, sides[0], sides[1]); int(c) != len(few.P) || len(out.P) != len(many.P) || &out.P[0] != &dst[:1][0] {
				t.Fatal("galloping merge did not combine the small side's keys in the destination")
			}
		})
		if galloping != 1 {
			t.Errorf("%d keys into %d, galloping into a destination: %.0f allocs, want 1 (scratch pair)", len(sides[1].P), len(sides[0].P), galloping)
		}
	}

	out := make(Output, len(many.P))
	reduceAllocs := testing.AllocsPerRun(20, func() {
		if calls := ReduceInto(job, []Sized{many}, out); int(calls) != len(many.P) {
			t.Fatal("reduce skipped keys")
		}
	})
	if reduceAllocs != 1 {
		t.Errorf("single-root reduce into a sized output: %.0f allocs, want 1 (the scratch slice)", reduceAllocs)
	}
	fresh := testing.AllocsPerRun(20, func() { ReducePayload(job, []Payload{many.P}) })
	if fresh > 8 {
		t.Errorf("single-root ReducePayload: %.0f allocs, a per-key slice is back", fresh)
	}
}
