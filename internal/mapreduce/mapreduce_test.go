package mapreduce

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"slider/internal/metrics"
)

func sumJob(partitions int) *Job {
	sum := func(_ string, values []Value) Value {
		var total int64
		for _, v := range values {
			total += v.(int64)
		}
		return total
	}
	return &Job{
		Name:       "sum",
		Partitions: partitions,
		Map: func(rec Record, emit Emit) error {
			for _, w := range strings.Fields(rec.(string)) {
				emit(w, int64(1))
			}
			return nil
		},
		Combine:     sum,
		Reduce:      sum,
		Commutative: true,
	}
}

func TestValidate(t *testing.T) {
	if err := (*Job)(nil).Validate(); err == nil {
		t.Fatal("nil job validated")
	}
	job := sumJob(2)
	if err := job.Validate(); err != nil {
		t.Fatal(err)
	}
	broken := *job
	broken.Map = nil
	if err := broken.Validate(); err == nil {
		t.Fatal("job without Map validated")
	}
	broken = *job
	broken.Combine = nil
	if err := broken.Validate(); err == nil {
		t.Fatal("job without Combine validated")
	}
	broken = *job
	broken.Reduce = nil
	if err := broken.Validate(); err == nil {
		t.Fatal("job without Reduce validated")
	}
	broken = *job
	broken.Partitions = -1
	if err := broken.Validate(); err == nil {
		t.Fatal("negative partitions validated")
	}
}

func TestNumPartitionsDefault(t *testing.T) {
	job := sumJob(0)
	if job.NumPartitions() != 1 {
		t.Fatalf("default partitions = %d", job.NumPartitions())
	}
}

func TestPartitionProperties(t *testing.T) {
	property := func(key string, n uint8) bool {
		parts := int(n%16) + 1
		p := Partition(key, parts)
		return p >= 0 && p < parts && p == Partition(key, parts)
	}
	if err := quick.Check(property, nil); err != nil {
		t.Fatal(err)
	}
	if Partition("anything", 1) != 0 {
		t.Fatal("single partition must be 0")
	}
}

func TestMergeOrderedPreservesOrderAndInputs(t *testing.T) {
	job := &Job{
		Name: "concat",
		Map:  func(Record, Emit) error { return nil },
		Combine: func(_ string, values []Value) Value {
			return values[0].(string) + values[1].(string)
		},
		Reduce: func(_ string, values []Value) Value { return values[0] },
	}
	left := FromMap(M{"k": "L", "only-left": "l"})
	right := FromMap(M{"k": "R", "only-right": "r"})
	out, combines := MergeOrdered(job, left, right)
	if combines != 1 {
		t.Fatalf("combines = %d, want 1", combines)
	}
	if at(out, "k") != "LR" {
		t.Fatalf("k = %v, want LR (window order)", at(out, "k"))
	}
	if at(out, "only-left") != "l" || at(out, "only-right") != "r" {
		t.Fatal("non-overlapping keys lost")
	}
	// Inputs untouched.
	if at(left, "k") != "L" || at(right, "k") != "R" || len(left) != 2 || len(right) != 2 {
		t.Fatal("MergeOrdered mutated an input")
	}
}

func TestMergeOrderedEmptySides(t *testing.T) {
	job := sumJob(1)
	p := FromMap(M{"a": int64(1)})
	if out, c := MergeOrdered(job, nil, p); c != 0 || len(out) != 1 {
		t.Fatal("nil left mishandled")
	}
	if out, c := MergeOrdered(job, p, nil); c != 0 || len(out) != 1 {
		t.Fatal("nil right mishandled")
	}
}

// TestMergeOrderedNeverAliasesInputs is the regression test for the
// empty-side fast path returning a caller-owned payload by reference: a
// memoized tree node holding such a result would be corrupted by any
// later write through the merge output. The merged result must be writable
// without affecting either input, on every input shape.
func TestMergeOrderedNeverAliasesInputs(t *testing.T) {
	job := sumJob(1)
	cases := []struct {
		name        string
		left, right Payload
	}{
		{"empty-left", Payload{}, FromMap(M{"a": int64(1)})},
		{"empty-right", FromMap(M{"a": int64(1)}), Payload{}},
		{"nil-left", nil, FromMap(M{"a": int64(1)})},
		{"both-live", FromMap(M{"a": int64(1)}), FromMap(M{"b": int64(2)})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			leftFP := FingerprintPayload(tc.left)
			rightFP := FingerprintPayload(tc.right)
			out, _ := MergeOrdered(job, tc.left, tc.right)
			for i := range out {
				out[i] = Entry{"smashed", int64(99)}
			}
			if FingerprintPayload(tc.left) != leftFP {
				t.Fatal("mutating the merged result corrupted the left input")
			}
			if FingerprintPayload(tc.right) != rightFP {
				t.Fatal("mutating the merged result corrupted the right input")
			}
		})
	}
}

func TestRunMapTaskCombinesPerKey(t *testing.T) {
	job := sumJob(2)
	split := Split{ID: "s0", Records: []Record{"a a b", "a c"}}
	res, err := RunMapTask(job, split)
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 2 {
		t.Fatalf("records = %d", res.Records)
	}
	total := map[string]int64{}
	for _, p := range res.Parts {
		if !p.IsSorted() {
			t.Fatalf("map output %v is not sorted by key", p)
		}
		for _, e := range p {
			total[e.Key] = e.Value.(int64)
		}
	}
	if total["a"] != 3 || total["b"] != 1 || total["c"] != 1 {
		t.Fatalf("totals = %v", total)
	}
	// Each key must live in exactly its hash partition.
	for pi, p := range res.Parts {
		for _, e := range p {
			if Partition(e.Key, 2) != pi {
				t.Fatalf("key %q in wrong partition %d", e.Key, pi)
			}
		}
	}
}

// TestRunMapTaskEmptyPartitionIsNil: a partition the task emits nothing to
// is the nil empty payload, not an allocated slice of length zero.
func TestRunMapTaskEmptyPartitionIsNil(t *testing.T) {
	const parts = 8
	res, err := RunMapTask(sumJob(parts), Split{ID: "s0", Records: []Record{"a a a"}})
	if err != nil {
		t.Fatal(err)
	}
	for pi, p := range res.Parts {
		switch {
		case pi == Partition("a", parts) && len(p) != 1:
			t.Fatalf("partition %d = %v, want the one key", pi, p)
		case pi != Partition("a", parts) && p != nil:
			t.Fatalf("partition %d is a non-nil empty payload (cap %d)", pi, cap(p))
		}
	}
}

func TestRunMapTaskError(t *testing.T) {
	job := sumJob(1)
	boom := errors.New("boom")
	job.Map = func(Record, Emit) error { return boom }
	_, err := RunMapTask(job, Split{ID: "s0", Records: []Record{"x"}})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestRunMapTasksParallelOrderAndRecording(t *testing.T) {
	job := sumJob(2)
	splits := []Split{
		{ID: "s0", Records: []Record{"a"}},
		{ID: "s1", Records: []Record{"b"}},
		{ID: "s2", Records: []Record{"c"}},
	}
	rec := metrics.NewRecorder()
	exec := Executor{Parallelism: 2, NodeOf: func(i int) int { return i }}
	results, err := exec.RunMapTasks(job, splits, rec)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.SplitID != splits[i].ID {
			t.Fatalf("result %d out of order: %s", i, r.SplitID)
		}
	}
	tasks := rec.Tasks()
	if len(tasks) != 3 {
		t.Fatalf("recorded %d tasks", len(tasks))
	}
	for i, task := range tasks {
		if task.PreferredNode != i {
			t.Fatalf("task %d preferred node %d", i, task.PreferredNode)
		}
		if task.Phase != metrics.PhaseMap {
			t.Fatalf("task %d phase %v", i, task.Phase)
		}
	}
	if c := rec.Counters(); c.MapTasks != 3 || c.MapRecords != 3 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestRunScratch(t *testing.T) {
	job := sumJob(3)
	splits := []Split{
		{ID: "s0", Records: []Record{"x y", "x"}},
		{ID: "s1", Records: []Record{"y z"}},
	}
	rec := metrics.NewRecorder()
	out, err := RunScratch(job, splits, 2, rec)
	if err != nil {
		t.Fatal(err)
	}
	if out["x"].(int64) != 2 || out["y"].(int64) != 2 || out["z"].(int64) != 1 {
		t.Fatalf("out = %v", out)
	}
	if rec.PhaseWork(metrics.PhaseReduce) <= 0 {
		t.Fatal("no reduce work recorded")
	}
}

func TestReducePayloadUnion(t *testing.T) {
	job := sumJob(1)
	out, calls := ReducePayload(job, []Payload{
		FromMap(M{"a": int64(1), "b": int64(2)}),
		FromMap(M{"a": int64(3)}),
	})
	if calls != 2 {
		t.Fatalf("reduce calls = %d", calls)
	}
	if out["a"].(int64) != 4 || out["b"].(int64) != 2 {
		t.Fatalf("out = %v", out)
	}
}

func TestPayloadBytes(t *testing.T) {
	job := sumJob(1)
	empty := PayloadBytes(job, Payload{})
	small := PayloadBytes(job, FromMap(M{"k": int64(1)}))
	big := PayloadBytes(job, FromMap(M{"k": int64(1), "longerkey": "some string value"}))
	if !(empty < small && small < big) {
		t.Fatalf("sizes not monotone: %d %d %d", empty, small, big)
	}
	withOverride := &Job{SizeOf: func(Value) int64 { return 1000 }}
	if PayloadBytes(withOverride, FromMap(M{"k": int64(1)})) < 1000 {
		t.Fatal("SizeOf override ignored")
	}
}

type fpValue uint64

func (f fpValue) Fingerprint() uint64 { return uint64(f) }

func TestFingerprint(t *testing.T) {
	// Distinct values → (almost surely) distinct fingerprints; equal
	// values → equal fingerprints.
	cases := []Value{
		nil, true, false, int(1), int64(1), uint64(1), 1.5, "s",
		[]byte{1}, []float64{1, 2}, []int64{3}, []string{"a", "b"},
		[]Value{int64(1), "x"}, map[string]int64{"a": 1},
		map[string]float64{"a": 1}, fpValue(7),
	}
	seen := map[uint64][]int{}
	for i, v := range cases {
		fp := Fingerprint(v)
		if fp != Fingerprint(v) {
			t.Fatalf("case %d: unstable fingerprint", i)
		}
		seen[fp] = append(seen[fp], i)
	}
	for fp, idx := range seen {
		if len(idx) > 1 {
			t.Fatalf("fingerprint collision %x across cases %v", fp, idx)
		}
	}
	// Map fingerprints are order-independent.
	a := map[string]int64{"x": 1, "y": 2, "z": 3}
	b := map[string]int64{"z": 3, "y": 2, "x": 1}
	if Fingerprint(a) != Fingerprint(b) {
		t.Fatal("map fingerprint depends on iteration order")
	}
}

func TestFingerprintPayload(t *testing.T) {
	a := FromMap(M{"k1": int64(1), "k2": "v"})
	b := Payload{{"k1", int64(1)}, {"k2", "v"}}
	if FingerprintPayload(a) != FingerprintPayload(b) {
		t.Fatal("payload fingerprint depends on how the payload was built")
	}
	c := FromMap(M{"k1": int64(2), "k2": "v"})
	if FingerprintPayload(a) == FingerprintPayload(c) {
		t.Fatal("payload fingerprint ignores values")
	}
}
