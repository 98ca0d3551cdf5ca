package apps

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
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

// TestFingerprintsArePinned holds every FNV-1a fingerprint of the package
// — the four value types' and pointID — to its value on fixed inputs, so
// that no rewrite of the hash moves a checkpoint's StateFingerprint or a
// KNN neighbour's ID.
func TestFingerprintsArePinned(t *testing.T) {
	for i, c := range []struct {
		v    interface{ Fingerprint() uint64 }
		want uint64
	}{
		{&CentroidAcc{Sum: []float64{1.5, -2, math.Inf(1), math.Copysign(0, -1)}, Count: 7}, 0x9b64a288deeb456a},
		{&CentroidAcc{}, 0xa8c7f832281a39c5},
		{&Neighbors{K: 3, List: []Neighbor{{Dist: 0.25, ID: 9}, {Dist: 4, ID: 1 << 40}}}, 0xe335f2088dc5a879},
		{&Neighbors{K: 1}, 0x89cd31291d2aefa4},
		{&PostList{Posts: []Post{{User: 3, Time: 10}, {User: -1, Time: 1 << 33}}}, 0xe271b5a61ceedbe8},
		{&PostList{}, 0xcbf29ce484222325},
		{&RTTHist{Buckets: map[int32]int64{12: 4, -3: 1, 250: 1 << 35}}, 0xd10e9767c59b63b8},
		{&RTTHist{}, 0xcbf29ce484222325},
	} {
		if got := c.v.Fingerprint(); got != c.want {
			t.Errorf("value %d (%T): fingerprint %#x, want %#x", i, c.v, got, c.want)
		}
	}
	for _, c := range []struct {
		pt   []float64
		want uint64
	}{{[]float64{0.5, -0.25, 3}, 0x2533c235d8d01d71}, {nil, 0xcbf29ce484222325}} {
		if got := pointID(c.pt); got != c.want {
			t.Errorf("pointID(%v) = %#x, want %#x", c.pt, got, c.want)
		}
	}
}

// refPostMerge is PostList.Merge as it was written before the one-call
// fold: a fresh sorted union of the two lists, other's first of equal
// posts.
func refPostMerge(l, other *PostList) *PostList {
	out := &PostList{Posts: make([]Post, 0, len(l.Posts)+len(other.Posts))}
	i, j := 0, 0
	for i < len(l.Posts) || j < len(other.Posts) {
		switch {
		case i == len(l.Posts):
			out.Posts = append(out.Posts, other.Posts[j])
			j++
		case j == len(other.Posts):
			out.Posts = append(out.Posts, l.Posts[i])
			i++
		case postLess(l.Posts[i], other.Posts[j]):
			out.Posts = append(out.Posts, l.Posts[i])
			i++
		default:
			out.Posts = append(out.Posts, other.Posts[j])
			j++
		}
	}
	return out
}

// refHistMerge is RTTHist.Merge as it was written before the one-call
// fold: a fresh histogram union.
func refHistMerge(h, other *RTTHist) *RTTHist {
	out := &RTTHist{Buckets: make(map[int32]int64, len(h.Buckets)+len(other.Buckets))}
	for b, c := range h.Buckets {
		out.Buckets[b] = c
	}
	for b, c := range other.Buckets {
		out.Buckets[b] += c
	}
	return out
}

// refAuditAdd is AuditSum.Add as it was written before the one-call fold.
func refAuditAdd(a, b *AuditSum) *AuditSum {
	return &AuditSum{Logs: a.Logs + b.Logs, Entries: a.Entries + b.Entries, Violations: a.Violations + b.Violations}
}

// caseStudyJobs returns the three case studies' jobs.
func caseStudyJobs() (twitter, glasnost, netsession *mapreduce.Job) {
	graph := workload.NewTwitter(workload.TwitterConfig{Seed: 8, Users: 10, MeanFollows: 2, URLs: 3, TweetsPerSplit: 10}).Graph()
	return TwitterPropagation(1, graph), GlasnostMonitor(1), NetSessionAudit(1, 4)
}

// TestCaseStudyFoldsMatchChain: each case study's Combine — one fold
// into one fresh value, which its Reduce reads too — holds what a chain
// of the two-value merges written before it held, by Fingerprint, over 1
// to 40 values of random sizes, empty ones, equal posts and equal buckets
// included; each Merge and Add holds what its earlier form built; and a
// lone value comes back as it is.
func TestCaseStudyFoldsMatchChain(t *testing.T) {
	twitter, glasnost, netsession := caseStudyJobs()
	rng := rand.New(rand.NewSource(17))
	fp := func(v mapreduce.Value) uint64 { return v.(mapreduce.Fingerprinter).Fingerprint() }
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(40)
		posts, hists, audits := make([]mapreduce.Value, n), make([]mapreduce.Value, n), make([]mapreduce.Value, n)
		for i := range n {
			l := make([]Post, rng.Intn(6))
			for j := range l {
				l[j] = Post{User: int32(rng.Intn(4)), Time: int64(rng.Intn(8))}
			}
			sort.Slice(l, func(a, b int) bool { return postLess(l[a], l[b]) })
			posts[i] = &PostList{Posts: l}
			h := &RTTHist{Buckets: map[int32]int64{}}
			for range rng.Intn(4) {
				h.Buckets[int32(rng.Intn(10))] += int64(1 + rng.Intn(3))
			}
			hists[i] = h
			audits[i] = &AuditSum{Logs: rng.Int63n(9), Entries: rng.Int63n(99), Violations: rng.Int63n(3)}
		}
		wantPosts, wantHist, wantAudit := posts[0].(*PostList), hists[0].(*RTTHist), audits[0].(*AuditSum)
		for i := 1; i < n; i++ {
			p, h, a := posts[i].(*PostList), hists[i].(*RTTHist), audits[i].(*AuditSum)
			if got, want := wantPosts.Merge(p), refPostMerge(wantPosts, p); fp(got) != fp(want) {
				t.Fatalf("trial %d: PostList.Merge = %v, the two-way merge's %v", trial, got.Posts, want.Posts)
			}
			if got, want := wantHist.Merge(h), refHistMerge(wantHist, h); fp(got) != fp(want) {
				t.Fatalf("trial %d: RTTHist.Merge = %v, the union's %v", trial, got.Buckets, want.Buckets)
			}
			if got, want := wantAudit.Add(a), refAuditAdd(wantAudit, a); *got != *want {
				t.Fatalf("trial %d: AuditSum.Add = %+v, the sum's %+v", trial, *got, *want)
			}
			wantPosts, wantHist, wantAudit = refPostMerge(wantPosts, p), refHistMerge(wantHist, h), refAuditAdd(wantAudit, a)
		}
		for _, c := range []struct {
			job    *mapreduce.Job
			values []mapreduce.Value
			want   mapreduce.Value
		}{{twitter, posts, wantPosts}, {glasnost, hists, wantHist}, {netsession, audits, wantAudit}} {
			got := c.job.Combine("k", c.values)
			if fp(got) != fp(c.want) {
				t.Fatalf("trial %d: %s's Combine of %d values = %+v, the chain's %+v", trial, c.job.Name, n, got, c.want)
			}
			if n == 1 && got != c.values[0] {
				t.Fatalf("trial %d: %s's Combine returned a lone value as a copy", trial, c.job.Name)
			}
		}
	}
}

// TestCaseStudyFoldAllocs pins what the case studies' Combine allocates
// for a key's 256 one-entry values: the list, its scratch and its header
// for Twitter, where a chain of Merge calls allocated 510; the map and its
// tables as it grows to the 13 buckets, 6, for Glasnost, where the chain
// allocated 1 261; the sum alone for NetSession, where the chain
// allocated 255.
func TestCaseStudyFoldAllocs(t *testing.T) {
	twitter, glasnost, netsession := caseStudyJobs()
	const n = 256
	posts, hists, audits := make([]mapreduce.Value, n), make([]mapreduce.Value, n), make([]mapreduce.Value, n)
	for i := range n {
		posts[i] = &PostList{Posts: []Post{{User: int32(i % 7), Time: int64(i * 31 % 97)}}}
		hists[i] = &RTTHist{Buckets: map[int32]int64{int32(i % 13): 1}}
		audits[i] = &AuditSum{Logs: 1, Entries: int64(i)}
	}
	for _, c := range []struct {
		job    *mapreduce.Job
		values []mapreduce.Value
		want   float64
	}{{twitter, posts, 3}, {glasnost, hists, 6}, {netsession, audits, 1}} {
		if allocs := testing.AllocsPerRun(20, func() { c.job.Combine("k", c.values) }); allocs != c.want {
			t.Errorf("%s's Combine of %d values allocates %.1f times, want %.0f", c.job.Name, n, allocs, c.want)
		}
	}
}
