package mapreduce

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"slider/internal/core"
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

// TestMergeScratchIsPerCall drives MergeOrderedSized from the parallel
// contraction engine: concurrent merges must each use their own scratch
// pair (run under -race), and the balanced reduction must equal the
// sequential fold in output and carried size.
func TestMergeScratchIsPerCall(t *testing.T) {
	job := sumJob(1)
	items := testPayloads(job, 64)
	merge := func(a, b Sized) Sized {
		out, _ := MergeOrderedSized(job, a, b)
		return out
	}
	want, _ := core.ReduceOrdered(1, merge, items)
	for round := 0; round < 10; round++ {
		got, _ := core.ReduceOrdered(8, merge, items)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: parallel reduction differs from the sequential fold", round)
		}
	}
	if want.Bytes != PayloadBytes(job, want.P) {
		t.Fatalf("carried %d bytes, walk says %d", want.Bytes, PayloadBytes(job, want.P))
	}
}

// TestMergeAndReduceAllocs pins the allocation shape: a binary merge
// allocates its output slice and one scratch pair however many keys it
// combines, a K-way merge its output slice, its scratch and (past a
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
