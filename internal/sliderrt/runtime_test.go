package sliderrt

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"slider/internal/mapreduce"
	"slider/internal/memo"
	"slider/internal/metrics"
)

// wordCountJob is a classic associative+commutative job used across the
// runtime tests.
func wordCountJob() *mapreduce.Job {
	return &mapreduce.Job{
		Name:       "wordcount",
		Partitions: 3,
		Map: func(rec mapreduce.Record, emit mapreduce.Emit) error {
			line, ok := rec.(string)
			if !ok {
				return fmt.Errorf("record %T is not a string", rec)
			}
			for _, w := range strings.Fields(line) {
				emit(w, int64(1))
			}
			return nil
		},
		Combine: func(_ string, values []mapreduce.Value) mapreduce.Value {
			var sum int64
			for _, v := range values {
				sum += v.(int64)
			}
			return sum
		},
		Reduce: func(_ string, values []mapreduce.Value) mapreduce.Value {
			var sum int64
			for _, v := range values {
				sum += v.(int64)
			}
			return sum
		},
		Commutative: true,
	}
}

// genSplits produces deterministic text splits with IDs starting at id0.
func genSplits(id0, n, linesPer int, seed int64) []mapreduce.Split {
	rng := rand.New(rand.NewSource(seed + int64(id0)))
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}
	splits := make([]mapreduce.Split, n)
	for i := range splits {
		records := make([]mapreduce.Record, linesPer)
		for j := range records {
			var sb strings.Builder
			for k := 0; k < 6; k++ {
				sb.WriteString(words[rng.Intn(len(words))])
				sb.WriteByte(' ')
			}
			records[j] = sb.String()
		}
		splits[i] = mapreduce.Split{ID: "s" + strconv.Itoa(id0+i), Records: records}
	}
	return splits
}

func wantSameOutput(t *testing.T, got, want mapreduce.Output) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("output has %d keys, want %d", len(got), len(want))
	}
	for k, wv := range want {
		gv, ok := got[k]
		if !ok {
			t.Fatalf("missing key %q", k)
		}
		if gv.(int64) != wv.(int64) {
			t.Fatalf("key %q: got %d, want %d", k, gv.(int64), wv.(int64))
		}
	}
}

// wantSpaceOracle checks the run's SpaceBytes — a sum of sizes carried
// from where each payload was created — against a from-scratch
// PayloadBytes walk over every tree payload plus the memo store.
func wantSpaceOracle(t *testing.T, rt *Runtime, job *mapreduce.Job, res *RunResult) {
	t.Helper()
	want := rt.Store().Stats().Bytes
	rt.ForEachPayload(func(p Payload) { want += mapreduce.PayloadBytes(p) })
	if res.SpaceBytes != want {
		t.Fatalf("SpaceBytes = %d, from-scratch walk says %d", res.SpaceBytes, want)
	}
}

func scratch(t *testing.T, job *mapreduce.Job, window []mapreduce.Split) mapreduce.Output {
	t.Helper()
	out, err := mapreduce.RunScratch(job, window, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func testMemoConfig() memo.Config {
	cfg := memo.DefaultConfig()
	cfg.Nodes = 4
	return cfg
}

// driveAndCheck runs a slide schedule through the runtime and checks every
// output against recomputation from scratch.
func driveAndCheck(t *testing.T, cfg Config, initial int, slides [](struct{ drop, add int })) {
	t.Helper()
	job := wordCountJob()
	cfg.Memo = testMemoConfig()
	rt, err := New(job, cfg)
	if err != nil {
		t.Fatal(err)
	}
	window := genSplits(0, initial, 4, 7)
	next := initial
	res, err := rt.Initial(window)
	if err != nil {
		t.Fatal(err)
	}
	wantSameOutput(t, res.Output, scratch(t, job, window))
	wantSpaceOracle(t, rt, job, res)

	for i, s := range slides {
		add := genSplits(next, s.add, 4, 7)
		next += s.add
		res, err := rt.Advance(s.drop, add)
		if err != nil {
			t.Fatalf("slide %d: %v", i, err)
		}
		window = append(window[s.drop:], add...)
		wantSameOutput(t, res.Output, scratch(t, job, window))
		wantSpaceOracle(t, rt, job, res)
		if rt.Live() != len(window) {
			t.Fatalf("slide %d: live=%d want %d", i, rt.Live(), len(window))
		}
	}
}

type slide = struct{ drop, add int }

func TestAppendMode(t *testing.T) {
	driveAndCheck(t, Config{Mode: Append}, 6, []slide{{0, 2}, {0, 1}, {0, 4}})
}

func TestAppendModeSplitProcessing(t *testing.T) {
	driveAndCheck(t, Config{Mode: Append, SplitProcessing: true}, 6, []slide{{0, 2}, {0, 1}, {0, 4}})
}

func TestFixedMode(t *testing.T) {
	cfg := Config{Mode: Fixed, BucketSplits: 2, WindowBuckets: 4}
	driveAndCheck(t, cfg, 8, []slide{{2, 2}, {2, 2}, {4, 4}, {2, 2}})
}

func TestFixedModeSplitProcessing(t *testing.T) {
	cfg := Config{Mode: Fixed, BucketSplits: 2, WindowBuckets: 4, SplitProcessing: true}
	driveAndCheck(t, cfg, 8, []slide{{2, 2}, {2, 2}, {2, 2}, {4, 4}, {2, 2}})
}

func TestVariableModeFolding(t *testing.T) {
	cfg := Config{Mode: Variable}
	driveAndCheck(t, cfg, 8, []slide{{3, 1}, {0, 5}, {6, 2}, {1, 0}, {5, 3}})
}

func TestVariableModeRandomized(t *testing.T) {
	cfg := Config{Mode: Variable, Backend: BackendRandomizedFolding, Seed: 11}
	driveAndCheck(t, cfg, 8, []slide{{3, 1}, {0, 5}, {6, 2}, {1, 0}, {5, 3}})
}

func TestStrawmanAllModes(t *testing.T) {
	for _, mode := range []Mode{Append, Fixed, Variable} {
		cfg := Config{Mode: mode, Backend: BackendStrawman, BucketSplits: 2, WindowBuckets: 4}
		slides := []slide{{2, 2}, {2, 2}}
		if mode == Append {
			slides = []slide{{0, 2}, {0, 3}}
		}
		if mode == Variable {
			slides = []slide{{3, 1}, {0, 4}}
		}
		driveAndCheck(t, cfg, 8, slides)
	}
}

func TestAdvanceShapeValidation(t *testing.T) {
	job := wordCountJob()
	rt, err := New(job, Config{Mode: Append, Memo: testMemoConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Advance(0, genSplits(0, 1, 2, 1)); err != ErrNotInitial {
		t.Fatalf("advance before initial: err = %v", err)
	}
	if _, err := rt.Initial(genSplits(0, 4, 2, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Initial(genSplits(4, 4, 2, 1)); err != ErrReinitialize {
		t.Fatalf("double initial: err = %v", err)
	}
	if _, err := rt.Advance(1, genSplits(8, 1, 2, 1)); err == nil {
		t.Fatal("append mode accepted a drop")
	}

	fixed, err := New(job, Config{Mode: Fixed, BucketSplits: 2, WindowBuckets: 2, Memo: testMemoConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fixed.Initial(genSplits(0, 3, 2, 1)); err == nil {
		t.Fatal("fixed mode accepted a partial initial window")
	}
	if _, err := fixed.Initial(genSplits(0, 4, 2, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := fixed.Advance(1, genSplits(4, 1, 2, 1)); err == nil {
		t.Fatal("fixed mode accepted a non-bucket slide")
	}
	if _, err := fixed.Advance(2, genSplits(4, 3, 2, 1)); err == nil {
		t.Fatal("fixed mode accepted drop != add")
	}
}

func TestIncrementalWorkBeatsScratchWork(t *testing.T) {
	job := wordCountJob()
	cfg := Config{Mode: Fixed, BucketSplits: 2, WindowBuckets: 16, Memo: testMemoConfig()}
	rt, err := New(job, cfg)
	if err != nil {
		t.Fatal(err)
	}
	window := genSplits(0, 32, 50, 3)
	if _, err := rt.Initial(window); err != nil {
		t.Fatal(err)
	}
	add := genSplits(32, 2, 50, 3)
	res, err := rt.Advance(2, add)
	if err != nil {
		t.Fatal(err)
	}
	window = append(window[2:], add...)

	// Scratch re-maps every split; Slider maps only the 2 new ones, as the
	// one range their bucket is mapped in.
	c := res.Report.Counters
	var delta int64
	for _, s := range add {
		delta += int64(len(s.Records))
	}
	if c.MapRecords != delta {
		t.Fatalf("incremental run mapped %d records, the delta holds %d", c.MapRecords, delta)
	}
	if c.MapTasks != 1 {
		t.Fatalf("incremental run executed %d map tasks, want the bucket's 1 range", c.MapTasks)
	}
	rec := newRecorder(t, job, window)
	if rec.MapTasks != 32 {
		t.Fatalf("scratch executed %d map tasks, want 32", rec.MapTasks)
	}
}

func newRecorder(t *testing.T, job *mapreduce.Job, window []mapreduce.Split) (c struct{ MapTasks int64 }) {
	t.Helper()
	res, err := mapreduce.Executor{}.RunMapTasks(job, window, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.MapTasks = int64(len(res))
	return c
}

func TestSplitProcessingShiftsWorkToBackground(t *testing.T) {
	job := wordCountJob()
	mkRT := func(split bool) *Runtime {
		// Pin the rotating tree on both sides: the comparison is split
		// processing vs. in-place rotation, not vs. the DABA fast path
		// auto selection would pick for the non-split config.
		rt, err := New(job, Config{
			Mode: Fixed, Backend: BackendRotating, BucketSplits: 2, WindowBuckets: 8,
			SplitProcessing: split, Memo: testMemoConfig(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Initial(genSplits(0, 16, 30, 5)); err != nil {
			t.Fatal(err)
		}
		return rt
	}
	plain := mkRT(false)
	split := mkRT(true)
	add := genSplits(16, 2, 30, 5)
	pr, err := plain.Advance(2, add)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := split.Advance(2, add)
	if err != nil {
		t.Fatal(err)
	}
	wantSameOutput(t, sr.Output, pr.Output)
	// The slide reports the upkeep that ran since the initial run's result:
	// the pre-combine for this slide.
	if sr.Background.Work == 0 {
		t.Fatal("split mode recorded no background work")
	}
	if pr.Background.Work != 0 {
		t.Fatal("plain mode recorded background work")
	}
	// Foreground contraction merges: split mode does exactly 1 merge per
	// partition; plain mode does height merges per partition.
	if sr.TreeStats.Merges >= pr.TreeStats.Merges {
		t.Fatalf("split foreground merges (%d) should be below plain (%d)",
			sr.TreeStats.Merges, pr.TreeStats.Merges)
	}
}

func TestGCReclaimsOutOfWindowState(t *testing.T) {
	job := wordCountJob()
	rt, err := New(job, Config{Mode: Fixed, BucketSplits: 1, WindowBuckets: 4, Memo: testMemoConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Initial(genSplits(0, 4, 5, 9)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := rt.Advance(1, genSplits(4+i, 1, 5, 9)); err != nil {
			t.Fatal(err)
		}
	}
	st := rt.Store().Stats()
	if st.Evicted == 0 {
		t.Fatal("GC never evicted out-of-window map outputs")
	}
	// Only the live window's map outputs and the per-partition root-path
	// entries remain.
	want := int64(4 + rt.parts)
	if st.Entries > want {
		t.Fatalf("store holds %d entries, want ≤ %d (window + partitions)", st.Entries, want)
	}
}

func TestNodeFailureDoesNotAffectOutput(t *testing.T) {
	job := wordCountJob()
	rt, err := New(job, Config{Mode: Variable, Memo: testMemoConfig()})
	if err != nil {
		t.Fatal(err)
	}
	window := genSplits(0, 8, 5, 13)
	if _, err := rt.Initial(window); err != nil {
		t.Fatal(err)
	}
	// Crash every node's RAM: reads fall back to replicas; output of the
	// next incremental run must be unaffected.
	for n := 0; n < 4; n++ {
		rt.Store().FailNode(n)
		rt.Store().RecoverNode(n)
	}
	add := genSplits(8, 2, 5, 13)
	res, err := rt.Advance(3, add)
	if err != nil {
		t.Fatal(err)
	}
	window = append(window[3:], add...)
	wantSameOutput(t, res.Output, scratch(t, job, window))
}

func TestSpaceAccountingGrowsWithWindow(t *testing.T) {
	job := wordCountJob()
	small, err := New(job, Config{Mode: Variable, Memo: testMemoConfig()})
	if err != nil {
		t.Fatal(err)
	}
	big, err := New(job, Config{Mode: Variable, Memo: testMemoConfig()})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := small.Initial(genSplits(0, 4, 10, 21))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := big.Initial(genSplits(0, 32, 10, 21))
	if err != nil {
		t.Fatal(err)
	}
	if rb.SpaceBytes <= rs.SpaceBytes {
		t.Fatalf("space for 32 splits (%d) should exceed 4 splits (%d)", rb.SpaceBytes, rs.SpaceBytes)
	}
}

func TestConfigValidation(t *testing.T) {
	job := wordCountJob()
	if _, err := New(job, Config{}); err != ErrBadMode {
		t.Fatalf("missing mode: err = %v", err)
	}
	if _, err := New(job, Config{Mode: Fixed}); err != ErrBadBuckets {
		t.Fatalf("missing buckets: err = %v", err)
	}
	if _, err := New(nil, Config{Mode: Append}); err == nil {
		t.Fatal("nil job accepted")
	}
}

// TestNegativeMemoNodesMeansDefault holds the runtime to the store's reading
// of a node count below one as unset: both take the default cluster, so the
// node a map task prefers is one of its nodes, not the split's sequence
// number.
func TestNegativeMemoNodesMeansDefault(t *testing.T) {
	rt, err := New(wordCountJob(), Config{Mode: Append, Memo: memo.Config{Nodes: -1}})
	if err != nil {
		t.Fatal(err)
	}
	nodes := memo.DefaultConfig().Nodes
	for i, splits := range [][]mapreduce.Split{genSplits(0, 4, 4, 7), genSplits(4, 40, 4, 7)} {
		var res *RunResult
		if i == 0 {
			res, err = rt.Initial(splits)
		} else {
			res, err = rt.Advance(0, splits)
		}
		if err != nil {
			t.Fatal(err)
		}
		maps := 0
		for _, task := range res.Report.Tasks {
			if task.Phase != metrics.PhaseMap {
				continue
			}
			maps++
			if task.PreferredNode < 0 || task.PreferredNode >= nodes {
				t.Fatalf("run %d: map task prefers node %d, outside [0, %d)", i, task.PreferredNode, nodes)
			}
		}
		if maps != len(splits) {
			t.Fatalf("run %d: %d map tasks for %d splits", i, maps, len(splits))
		}
	}
}

func TestRuntimeStats(t *testing.T) {
	job := wordCountJob()
	rt, err := New(job, Config{Mode: Variable, Memo: testMemoConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if s := rt.Stats(); s.Runs != 0 {
		t.Fatalf("fresh runtime reports %d runs", s.Runs)
	}
	if _, err := rt.Initial(genSplits(0, 4, 4, 7)); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Advance(1, genSplits(4, 2, 4, 7)); err != nil {
		t.Fatal(err)
	}
	s := rt.Stats()
	if s.Runs != 2 {
		t.Fatalf("runs = %d, want 2", s.Runs)
	}
	if s.LiveSplits != 5 || s.WindowLo != 1 {
		t.Fatalf("window bookkeeping: %+v", s)
	}
	if s.TreeStats.Merges == 0 {
		t.Fatal("no tree work recorded")
	}
	if s.Memo.Entries == 0 {
		t.Fatal("no memoized entries")
	}
}

func TestUserDefinedGCPolicy(t *testing.T) {
	job := wordCountJob()
	cfg := Config{
		Mode: Variable,
		Memo: testMemoConfig(),
		// Aggressive policy: evict every memoized map output.
		GCPolicy: func(key string, _, _ uint64, _ int64) bool {
			return len(key) > 4 && key[:4] == "map:"
		},
	}
	rt, err := New(job, cfg)
	if err != nil {
		t.Fatal(err)
	}
	window := genSplits(0, 6, 4, 7)
	if _, err := rt.Initial(window); err != nil {
		t.Fatal(err)
	}
	add := genSplits(6, 2, 4, 7)
	res, err := rt.Advance(2, add)
	if err != nil {
		t.Fatal(err)
	}
	window = append(window[2:], add...)
	// Correctness is unaffected (GC only evicts memoized state)…
	wantSameOutput(t, res.Output, scratch(t, job, window))
	// …and the aggressive policy leaves no map outputs resident; only the
	// per-partition root-path entries survive.
	if n := rt.Store().Stats().Entries; n != int64(rt.parts) {
		t.Fatalf("store holds %d entries after aggressive GC, want %d", n, rt.parts)
	}
}

// foreignRunner maps in-process and hands its results over as a runner
// that gets payloads from elsewhere may: PartBytes nil, and — while reverse
// is set — every partition's entries in descending key order.
type foreignRunner struct{ reverse bool }

func (r *foreignRunner) RunMap(job *mapreduce.Job, splits []mapreduce.Split) ([]mapreduce.MapResult, error) {
	results, err := mapreduce.Executor{}.RunMap(job, splits)
	for i := range results {
		results[i].PartBytes = nil
		for _, part := range results[i].Parts {
			if r.reverse {
				slices.Reverse(part)
			}
		}
	}
	return results, err
}

// TestForeignRunnerMisorderFailsTheSlide: a MapRunner whose payloads carry
// no sizes has their key order checked before the window moves. Sorted
// ones slide like any others; a partition out of order fails the slide with
// an error naming the split, and leaves the window where it was, so the
// same slide succeeds once the runner is mended.
func TestForeignRunnerMisorderFailsTheSlide(t *testing.T) {
	runner := &foreignRunner{}
	job := wordCountJob()
	rt, err := New(job, Config{Mode: Fixed, BucketSplits: 2, WindowBuckets: 4, MapRunner: runner, Memo: testMemoConfig()})
	if err != nil {
		t.Fatal(err)
	}
	window := genSplits(0, 8, 4, 7)
	res, err := rt.Initial(window)
	if err != nil {
		t.Fatal(err)
	}
	wantSameOutput(t, res.Output, scratch(t, job, window))
	add := genSplits(8, 2, 4, 7)
	runner.reverse = true
	if _, err := rt.Advance(2, add); err == nil || !strings.Contains(err.Error(), `split "s8"`) {
		t.Fatalf("a slide over misordered payloads: err = %v, want it failed naming split s8", err)
	}
	runner.reverse = false
	res, err = rt.Advance(2, add)
	if err != nil {
		t.Fatal(err)
	}
	wantSameOutput(t, res.Output, scratch(t, job, append(window[2:], add...)))
}
