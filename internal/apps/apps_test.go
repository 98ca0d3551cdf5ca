package apps

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"slider/internal/mapreduce"
	"slider/internal/workload"
)

func runScratch(t *testing.T, job *mapreduce.Job, splits []mapreduce.Split) mapreduce.Output {
	t.Helper()
	out, err := mapreduce.RunScratch(job, splits, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestHCTCountsWords(t *testing.T) {
	job := HCT(2)
	splits := []mapreduce.Split{{ID: "s0", Records: []mapreduce.Record{"aa bbb aa", "cccc"}}}
	out := runScratch(t, job, splits)
	if got := out["len:2"].(int64); got != 2 {
		t.Fatalf("len:2 = %d, want 2", got)
	}
	if got := out["len:3"].(int64); got != 1 {
		t.Fatalf("len:3 = %d, want 1", got)
	}
	if got := out["first:a"].(int64); got != 2 {
		t.Fatalf("first:a = %d, want 2", got)
	}
}

func TestMatrixPairs(t *testing.T) {
	job := Matrix(2)
	splits := []mapreduce.Split{{ID: "s0", Records: []mapreduce.Record{"a b c"}}}
	out := runScratch(t, job, splits)
	// Pairs within distance 2: (a,b), (a,c), (b,c).
	for _, k := range []string{"a|b", "a|c", "b|c"} {
		if got := out[k].(int64); got != 1 {
			t.Fatalf("%s = %d, want 1", k, got)
		}
	}
	if len(out) != 3 {
		t.Fatalf("got %d pairs, want 3", len(out))
	}
}

func TestMatrixKeyNormalization(t *testing.T) {
	job := Matrix(1)
	splits := []mapreduce.Split{{ID: "s0", Records: []mapreduce.Record{"b a", "a b"}}}
	out := runScratch(t, job, splits)
	if got := out["a|b"].(int64); got != 2 {
		t.Fatalf("a|b = %d, want 2 (keys must be order-normalized)", got)
	}
}

func TestSubStrWindows(t *testing.T) {
	job := SubStr(1)
	splits := []mapreduce.Split{{ID: "s0", Records: []mapreduce.Record{"abcde abcd xyz"}}}
	out := runScratch(t, job, splits)
	if got := out["abcd"].(int64); got != 2 {
		t.Fatalf("abcd = %d, want 2", got)
	}
	if got := out["bcde"].(int64); got != 1 {
		t.Fatalf("bcde = %d, want 1", got)
	}
	if _, ok := out["xyz"]; ok {
		t.Fatal("3-letter word should emit nothing")
	}
}

func TestKMeansAssignsAllPoints(t *testing.T) {
	gen := workload.NewPoints(workload.PointsConfig{Seed: 2, PointsPerSplit: 100, Dim: 10})
	job := KMeans(2, 5, 10, 99)
	splits := gen.Range(0, 4)
	// Count assigned points across centroids by re-reducing with Count.
	results, err := mapreduce.Executor{}.RunMapTasks(job, splits, nil)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, r := range results {
		for _, p := range r.Parts {
			for _, e := range p {
				total += e.Value.(*CentroidAcc).Count
			}
		}
	}
	if total != 400 {
		t.Fatalf("assigned %d points, want 400", total)
	}
	out := runScratch(t, job, splits)
	for k, v := range out {
		mean := v.([]float64)
		if len(mean) != 10 {
			t.Fatalf("centroid %s has dim %d", k, len(mean))
		}
		for _, c := range mean {
			if c < 0 || c > 1 {
				t.Fatalf("centroid %s coordinate %f outside the unit cube hull", k, c)
			}
		}
	}
}

func TestCentroidAddDoesNotMutate(t *testing.T) {
	a := &CentroidAcc{Sum: []float64{1, 2}, Count: 1}
	b := &CentroidAcc{Sum: []float64{3, 4}, Count: 2}
	c := a.Add(b)
	if a.Sum[0] != 1 || b.Sum[0] != 3 {
		t.Fatal("Add mutated an input")
	}
	if c.Sum[0] != 4 || c.Sum[1] != 6 || c.Count != 3 {
		t.Fatalf("c = %+v", c)
	}
}

// TestKMeansCombineIsLeftFold: handed a key's accumulators in one call,
// K-Means' Combine gives the sums of the chain of binary calls bit for bit —
// floating-point addition is not associative, a map task's output must not
// depend on how its emits were batched — in an accumulator of its own, with
// every input as it was; Reduce averages the same sums.
func TestKMeansCombineIsLeftFold(t *testing.T) {
	job := KMeans(1, 4, 6, 3)
	gen := workload.NewPoints(workload.PointsConfig{Seed: 5, PointsPerSplit: 9, Dim: 6})
	var values []mapreduce.Value
	var before []uint64
	for i, rec := range gen.Split(0).Records {
		acc := &CentroidAcc{Sum: rec.([]float64), Count: int64(i + 1)}
		values = append(values, acc)
		before = append(before, acc.Fingerprint())
	}
	chain := values[0]
	for _, v := range values[1:] {
		chain = job.Combine("c0", []mapreduce.Value{chain, v})
	}
	got := job.Combine("c0", values).(*CentroidAcc)
	if got.Fingerprint() != chain.(*CentroidAcc).Fingerprint() {
		t.Fatalf("one call over %d accumulators: %+v, the chain of binary calls: %+v", len(values), got, chain)
	}
	for i, v := range values {
		acc := v.(*CentroidAcc)
		if acc.Fingerprint() != before[i] {
			t.Fatalf("Combine modified its argument %d", i)
		}
		if acc == got || &acc.Sum[0] == &got.Sum[0] {
			t.Fatalf("Combine's result shares storage with its argument %d", i)
		}
	}
	if lone := job.Combine("c0", values[:1]); lone != values[0] {
		t.Fatal("a lone accumulator is not handed back as it is")
	}
	mean := job.Reduce("c0", values).([]float64)
	if want := chain.(*CentroidAcc).Mean(); !reflect.DeepEqual(mean, want) {
		t.Fatalf("Reduce = %v, want the mean of the chain's sums %v", mean, want)
	}
}

func TestKNNFindsNearest(t *testing.T) {
	queries := [][]float64{{0, 0}, {1, 1}}
	job := KNN(1, 2, queries)
	splits := []mapreduce.Split{{ID: "s0", Records: []mapreduce.Record{
		[]float64{0.1, 0.1},
		[]float64{0.9, 0.9},
		[]float64{0.5, 0.5},
		[]float64{0.05, 0.0},
	}}}
	out := runScratch(t, job, splits)
	q0 := out["q0"].(*Neighbors)
	if len(q0.List) != 2 {
		t.Fatalf("q0 has %d neighbors, want 2", len(q0.List))
	}
	// Nearest to origin are (0.05,0) then (0.1,0.1).
	if q0.List[0].Dist >= q0.List[1].Dist {
		t.Fatal("neighbors not sorted by distance")
	}
	if q0.List[1].Dist > 0.03 {
		t.Fatalf("q0 second neighbor dist %f, wrong points kept", q0.List[1].Dist)
	}
}

func TestNeighborsMergeProperties(t *testing.T) {
	gen := func(rng *rand.Rand) *Neighbors {
		// Build the way the map side does: merge singletons, so the
		// sorted-and-capped invariant holds.
		n := &Neighbors{K: 4}
		cnt := rng.Intn(5)
		for i := 0; i < cnt; i++ {
			single := &Neighbors{K: 4, List: []Neighbor{{
				Dist: float64(rng.Intn(20)), ID: uint64(rng.Intn(100)),
			}}}
			n = n.Merge(single)
		}
		return n
	}
	equal := func(a, b *Neighbors) bool {
		if len(a.List) != len(b.List) {
			return false
		}
		for i := range a.List {
			if a.List[i] != b.List[i] {
				return false
			}
		}
		return true
	}
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b, c := gen(rng), gen(rng), gen(rng)
		// Commutativity and associativity.
		if !equal(a.Merge(b), b.Merge(a)) {
			return false
		}
		return equal(a.Merge(b).Merge(c), a.Merge(b.Merge(c)))
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPostListMergeProperties(t *testing.T) {
	gen := func(rng *rand.Rand) *PostList {
		// Build by merging singletons, as the map side does, so the
		// time-sorted invariant holds.
		l := &PostList{}
		cnt := rng.Intn(5)
		for i := 0; i < cnt; i++ {
			single := &PostList{Posts: []Post{{
				User: int32(rng.Intn(50)), Time: int64(rng.Intn(30)),
			}}}
			l = l.Merge(single)
		}
		return l
	}
	equal := func(a, b *PostList) bool {
		if len(a.Posts) != len(b.Posts) {
			return false
		}
		for i := range a.Posts {
			if a.Posts[i] != b.Posts[i] {
				return false
			}
		}
		return true
	}
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b, c := gen(rng), gen(rng), gen(rng)
		if !equal(a.Merge(b), b.Merge(a)) {
			return false
		}
		return equal(a.Merge(b).Merge(c), a.Merge(b.Merge(c)))
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTwitterPropagationSmallGraph(t *testing.T) {
	// Build a tiny controlled scenario through the workload generator's
	// graph type via tweets: user 1 follows user 0 (preferential
	// attachment guarantees it with high probability for user 1).
	tw := workload.NewTwitter(workload.TwitterConfig{Seed: 8, Users: 10, MeanFollows: 4, URLs: 3, TweetsPerSplit: 10})
	g := tw.Graph()
	var follower, followee int32 = -1, -1
	for u := int32(1); u < 10 && follower < 0; u++ {
		for v := int32(0); v < u; v++ {
			if g.Follows(u, v) {
				follower, followee = u, v
				break
			}
		}
	}
	if follower < 0 {
		t.Fatal("no follow edge in tiny graph")
	}
	job := TwitterPropagation(1, g)
	splits := []mapreduce.Split{{ID: "s0", Records: []mapreduce.Record{
		workload.Tweet{User: followee, URL: 1, Time: 1},
		workload.Tweet{User: follower, URL: 1, Time: 2},
	}}}
	out := runScratch(t, job, splits)
	stats := out["url1"].(PropStats)
	if stats.Posts != 2 || stats.Edges != 1 || stats.Roots != 1 || stats.Depth != 1 {
		t.Fatalf("stats = %+v, want 2 posts, 1 edge, 1 root, depth 1", stats)
	}
}

func TestTwitterPropagationIndependentPosts(t *testing.T) {
	tw := workload.NewTwitter(workload.TwitterConfig{Seed: 8, Users: 10, MeanFollows: 2, URLs: 3, TweetsPerSplit: 10})
	g := tw.Graph()
	// Two users who do NOT follow each other.
	var a, b int32 = -1, -1
	for u := int32(0); u < 10 && a < 0; u++ {
		for v := int32(0); v < 10; v++ {
			if u != v && !g.Follows(u, v) && !g.Follows(v, u) {
				a, b = u, v
				break
			}
		}
	}
	if a < 0 {
		t.Skip("fully connected tiny graph")
	}
	job := TwitterPropagation(1, g)
	splits := []mapreduce.Split{{ID: "s0", Records: []mapreduce.Record{
		workload.Tweet{User: a, URL: 2, Time: 1},
		workload.Tweet{User: b, URL: 2, Time: 2},
	}}}
	out := runScratch(t, job, splits)
	stats := out["url2"].(PropStats)
	if stats.Roots != 2 || stats.Edges != 0 {
		t.Fatalf("stats = %+v, want 2 roots, 0 edges", stats)
	}
}

func TestRTTHistMedian(t *testing.T) {
	h := &RTTHist{Buckets: map[int32]int64{10: 3, 20: 1, 30: 1}}
	if m := h.Median(); m != 10 {
		t.Fatalf("median = %f, want 10", m)
	}
	h2 := &RTTHist{Buckets: map[int32]int64{10: 1, 20: 1}}
	if m := h2.Median(); m != 10 {
		t.Fatalf("median = %f, want 10 (lower of even split)", m)
	}
	empty := &RTTHist{Buckets: map[int32]int64{}}
	if m := empty.Median(); m != 0 {
		t.Fatalf("empty median = %f", m)
	}
}

func TestGlasnostMonitorMedians(t *testing.T) {
	gen := workload.NewGlasnost(workload.GlasnostConfig{Seed: 4, Servers: 3, RunsPerSplit: 200, SplitsPerMonth: 1})
	job := GlasnostMonitor(2)
	out := runScratch(t, job, gen.MonthRange(0, 3))
	if len(out) != 3 {
		t.Fatalf("got %d servers, want 3", len(out))
	}
	// Servers have increasing base RTT (20 + 15·server); medians must
	// preserve that ordering.
	m0 := out["server0"].(float64)
	m2 := out["server2"].(float64)
	if m0 >= m2 {
		t.Fatalf("median(server0)=%f should be below median(server2)=%f", m0, m2)
	}
}

func TestNetSessionAuditDetectsTampering(t *testing.T) {
	cfg := workload.DefaultNetSessionConfig()
	cfg.TamperRate = 0.5
	cfg.LogsPerSplit = 100
	gen := workload.NewNetSession(cfg)
	job := NetSessionAudit(2, 8)
	out := runScratch(t, job, []mapreduce.Split{gen.Split(0, 0), gen.Split(1, 0)})
	var logs, violations int64
	for _, v := range out {
		s := v.(*AuditSum)
		logs += s.Logs
		violations += s.Violations
	}
	if logs != 200 {
		t.Fatalf("audited %d logs, want 200", logs)
	}
	frac := float64(violations) / float64(logs)
	if frac < 0.3 || frac > 0.7 {
		t.Fatalf("violation fraction %f far from tamper rate 0.5", frac)
	}
}

func TestSortedKeys(t *testing.T) {
	out := mapreduce.Output{"b": 1, "a": 2, "c": 3}
	keys := SortedKeys(out)
	if keys[0] != "a" || keys[2] != "c" {
		t.Fatalf("keys = %v", keys)
	}
}
