package bench

import (
	"fmt"
	"strings"
	"time"

	"slider/internal/mapreduce"
	"slider/internal/metrics"
	"slider/internal/sliderrt"
)

// AblationScaleResult is one window size's incremental advantage.
type AblationScaleResult struct {
	WindowSplits int
	// WorkSpeedup is Slider's incremental-update work speedup vs
	// recomputing from scratch, for a constant absolute delta.
	WorkSpeedup float64
	// SliderCombines is the deterministic combiner-invocation count of
	// the incremental update.
	SliderCombines int64
	// The two arms WorkSpeedup divides: the update's work and
	// recomputation's.
	sliderWork, scratchWork time.Duration
}

// AblationWindowScale grows the window at a constant absolute delta and
// measures the incremental advantage: the paper's core asymptotic claim
// is that update work depends on the delta (times log-window at worst),
// so the speedup over recomputation must grow roughly linearly with the
// window size.
func AblationWindowScale(s Scale, app App) ([]AblationScaleResult, string, error) {
	const delta = 2
	var results []AblationScaleResult
	for _, w := range []int{s.WindowSplits / 2, s.WindowSplits, s.WindowSplits * 2} {
		w = delta * (w / delta)
		cfg := modeConfig(sliderrt.Fixed, delta, w, s.Cluster.Nodes)
		rt, err := sliderrt.New(app.NewJob(), cfg)
		if err != nil {
			return nil, "", err
		}
		if _, err := rt.Initial(app.Gen(0, w)); err != nil {
			return nil, "", err
		}
		add := app.Gen(w, w+delta)
		quiesce()
		res, err := rt.Advance(delta, add)
		if err != nil {
			return nil, "", err
		}
		newWindow := append(app.Gen(delta, w), add...)
		quiesce()
		rec := metrics.NewRecorder()
		if _, err := mapreduce.RunScratch(app.NewJob(), newWindow, 0, rec); err != nil {
			return nil, "", err
		}
		scratchWork := rec.Snapshot().Work
		results = append(results, AblationScaleResult{
			WindowSplits:   w,
			WorkSpeedup:    metrics.Speedup(scratchWork, res.Report.Work),
			SliderCombines: res.Report.Counters.CombineCalls,
			sliderWork:     res.Report.Work,
			scratchWork:    scratchWork,
		})
	}
	var b strings.Builder
	fmt.Fprintf(&b, "=== Ablation: speedup vs window size (app %s, constant %d-split delta) ===\n", app.Name, delta)
	fmt.Fprintf(&b, "%-14s %14s %18s\n", "window splits", "work speedup", "slider combines")
	for _, r := range results {
		fmt.Fprintf(&b, "%-14d %13.2fx %18d\n", r.WindowSplits, r.WorkSpeedup, r.SliderCombines)
	}
	return results, b.String(), nil
}

// AblationBucketResult is one bucket-width configuration's update cost.
type AblationBucketResult struct {
	BucketSplits int
	UpdateWork   time.Duration
}

// AblationBucket sweeps the rotating tree's bucket width w for a fixed
// window (DESIGN.md §7): small buckets mean tall trees (more combiner
// calls per slide but finer slides); large buckets mean flat trees.
func AblationBucket(s Scale, app App) ([]AblationBucketResult, string, error) {
	w := s.WindowSplits
	var results []AblationBucketResult
	for _, bucket := range []int{1, 2, 4} {
		if w%bucket != 0 {
			continue
		}
		cfg := modeConfig(sliderrt.Fixed, bucket, w, s.Cluster.Nodes)
		rt, err := sliderrt.New(app.NewJob(), cfg)
		if err != nil {
			return nil, "", err
		}
		if _, err := rt.Initial(app.Gen(0, w)); err != nil {
			return nil, "", err
		}
		var total time.Duration
		next := w
		for i := 0; i < 4; i++ {
			res, err := rt.Advance(bucket, app.Gen(next, next+bucket))
			if err != nil {
				return nil, "", err
			}
			next += bucket
			total += res.Report.PhaseWork[metrics.PhaseContraction] +
				res.Report.PhaseWork[metrics.PhaseReduce]
		}
		results = append(results, AblationBucketResult{BucketSplits: bucket, UpdateWork: total / 4})
	}
	var b strings.Builder
	fmt.Fprintf(&b, "=== Ablation: rotating-tree bucket width (app %s, window %d splits) ===\n", app.Name, w)
	fmt.Fprintf(&b, "%-10s %16s\n", "w (splits)", "update work")
	for _, r := range results {
		fmt.Fprintf(&b, "%-10d %16v\n", r.BucketSplits, r.UpdateWork)
	}
	return results, b.String(), nil
}

// AblationRebuildResult is one rebuild-factor configuration's outcome.
type AblationRebuildResult struct {
	Factor int // 0 = disabled
	// UpdateNodes counts recomputed node materializations per
	// post-shrink update (deterministic, unlike wall time at this
	// scale): the stale oversized structure recomputes longer root
	// paths on every subsequent slide.
	UpdateNodes int64
}

// AblationRebuild sweeps the folding tree's rebuild factor after a
// drastic window shrink: without rebuilding, the tree keeps its stale
// height and every later update pays for it.
func AblationRebuild(s Scale, app App) ([]AblationRebuildResult, string, error) {
	w := s.WindowSplits * 2
	var results []AblationRebuildResult
	for _, factor := range []int{-1, 16, 4} {
		cfg := modeConfig(sliderrt.Variable, 0, w, s.Cluster.Nodes)
		cfg.RebuildFactor = factor
		rt, err := sliderrt.New(app.NewJob(), cfg)
		if err != nil {
			return nil, "", err
		}
		if _, err := rt.Initial(app.Gen(0, w)); err != nil {
			return nil, "", err
		}
		next := w
		// Move the window so it straddles the tree's midline, then
		// shrink drastically.
		pre := w / 4
		if _, err := rt.Advance(pre, app.Gen(next, next+pre)); err != nil {
			return nil, "", err
		}
		next += pre
		if _, err := rt.Advance(rt.Live()*9/10, nil); err != nil {
			return nil, "", err
		}
		var nodes int64
		for i := 0; i < 4; i++ {
			res, err := rt.Advance(1, app.Gen(next, next+1))
			if err != nil {
				return nil, "", err
			}
			next++
			nodes += res.TreeStats.NodesRecomputed
		}
		shown := factor
		if factor < 0 {
			shown = 0
		}
		results = append(results, AblationRebuildResult{Factor: shown, UpdateNodes: nodes / 4})
	}
	var b strings.Builder
	fmt.Fprintf(&b, "=== Ablation: folding-tree rebuild factor after a 90%% shrink (app %s) ===\n", app.Name)
	fmt.Fprintf(&b, "%-16s %24s\n", "rebuild factor", "nodes recomputed/update")
	for _, r := range results {
		label := fmt.Sprint(r.Factor)
		if r.Factor == 0 {
			label = "disabled"
		}
		fmt.Fprintf(&b, "%-16s %24d\n", label, r.UpdateNodes)
	}
	return results, b.String(), nil
}
