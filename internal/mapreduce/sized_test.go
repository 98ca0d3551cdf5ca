package mapreduce

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

// blob is a value whose size comes from the Sizer interface.
type blob struct{ n int64 }

func (b blob) SizeBytes() int64 { return 100 + b.n }

// sizedJobs returns jobs covering the three ways valueBytes sizes a value:
// per-type defaults, a Job.SizeOf override, and Sizer values.
func sizedJobs() map[string]*Job {
	override := sumJob(1)
	override.SizeOf = func(v Value) int64 { return 3 + v.(int64)%7 }
	sizer := &Job{
		Name: "blobs",
		Map:  func(Record, Emit) error { return nil },
		Combine: func(_ string, values []Value) Value {
			var out blob
			for _, v := range values {
				out.n += v.(blob).n
			}
			return out
		},
		Reduce: func(_ string, values []Value) Value { return values[0] },
	}
	return map[string]*Job{"default": sumJob(1), "sizeof": override, "sizer": sizer}
}

// testPayloads builds n overlapping payloads of the value type the job
// combines.
func testPayloads(job *Job, n int) []Sized {
	out := make([]Sized, n)
	for i := range out {
		p := make(M)
		for k := 0; k < 12; k++ {
			var v Value = int64(i*k + 1)
			if job.Name == "blobs" {
				v = blob{n: int64(i + k)}
			}
			if k%3 == 0 {
				p[fmt.Sprintf("shared-%d", k)] = v
			} else {
				p[fmt.Sprintf("own-%d-%d", i%3, k)] = v
			}
		}
		out[i] = Size(job, FromMap(p))
	}
	return out
}

// TestCarriedSizesMatchWalk is the oracle for sizes that travel with
// payloads: whatever merge builds a payload, its carried Bytes must equal
// a from-scratch PayloadBytes walk, for every way a value can be sized.
func TestCarriedSizesMatchWalk(t *testing.T) {
	for name, job := range sizedJobs() {
		ps := testPayloads(job, 9)
		check := func(label string, got Sized) {
			t.Helper()
			if want := PayloadBytes(job, got.P); got.Bytes != want {
				t.Errorf("%s/%s: carried %d bytes, walk says %d", name, label, got.Bytes, want)
			}
		}
		acc := ps[0]
		for i, p := range ps[1:] {
			acc, _ = MergeOrderedSized(job, acc, p)
			check(fmt.Sprintf("fold step %d", i), acc)
		}
		empty := Sized{P: Payload{}}
		left, _ := MergeOrderedSized(job, empty, ps[1])
		check("empty left", left)
		right, _ := MergeOrderedSized(job, ps[1], Sized{})
		check("empty right", right)
		for _, k := range []int{0, 1, 2, 3, 9} {
			out, _ := MergeOrderedKSized(job, ps[:k])
			check(fmt.Sprintf("K=%d", k), out)
		}
		holes := []Sized{empty, ps[0], {}, ps[1], empty, ps[2]}
		out, _ := MergeOrderedKSized(job, holes)
		check("K with holes", out)
		disjoint := []Sized{
			Size(job, FromMap(M{"a": at(ps[0].P, "shared-0")})),
			Size(job, FromMap(M{"b": at(ps[1].P, "shared-0")})),
			Size(job, FromMap(M{"c": at(ps[2].P, "shared-0")})),
		}
		out, _ = MergeOrderedKSized(job, disjoint)
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
		s := res.PartSized(job, p)
		if want := PayloadBytes(job, res.Parts[p]); s.Bytes != want {
			t.Fatalf("partition %d: %d bytes, walk says %d", p, s.Bytes, want)
		}
		sum += s.Bytes
	}
	if sum != res.Bytes {
		t.Fatalf("part sizes sum to %d, Bytes is %d", sum, res.Bytes)
	}
	res.PartBytes = nil // a foreign MapRunner
	for p := range res.Parts {
		if s := res.PartSized(job, p); s.Bytes != PayloadBytes(job, res.Parts[p]) {
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
		"key-disjoint halves":   {{{"x", "a1"}}, {{"y", "a2"}, {"z", "a3"}}},
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
		joinK([]Sized{root}, func(key string, vals []Value) {
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
	roots := []Sized{{}, Size(sum, FromMap(counts)), {P: Payload{}}}
	out := make(Output, len(counts))
	if allocs := testing.AllocsPerRun(20, func() { ReduceInto(sum, roots, out) }); allocs != 1 {
		t.Errorf("lone root among empty ones: %.0f allocs, want 1 (the scratch slice)", allocs)
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
			acc, _ = MergeOrderedSized(job, acc, it)
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
	if want.Bytes != PayloadBytes(job, want.P) {
		t.Fatalf("carried %d bytes, walk says %d", want.Bytes, PayloadBytes(job, want.P))
	}
}

// TestMergeIntoDestination covers MergeOrderedSizedInto and
// MergeOrderedKSizedInto against the fresh merges, on the three sizing kinds
// and every kind of destination. One short of the fit bound (the largest
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
				want, wantC := MergeOrderedKSized(job, inputs)
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
		return Size(job, FromMap(m))
	}
	few, many := build(4), build(400)
	for _, s := range []Sized{few, many} {
		n := len(s.P)
		binary := testing.AllocsPerRun(20, func() {
			if out, c := MergeOrderedSized(job, s, s); int(c) != n || len(out.P) != n {
				t.Fatal("merge did not combine every key")
			}
		})
		if binary != 2 {
			t.Errorf("%d-key binary merge: %.0f allocs, want 2 (output slice, scratch pair)", n, binary)
		}
		three := []Sized{s, s, s}
		kway := testing.AllocsPerRun(20, func() {
			if out, c := MergeOrderedKSized(job, three); int(c) != n || len(out.P) != n {
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
