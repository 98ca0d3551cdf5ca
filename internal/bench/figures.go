package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"slider/internal/core"
	"slider/internal/mapreduce"
	"slider/internal/metrics"
	"slider/internal/pig"
	"slider/internal/scheduler"
	"slider/internal/sliderrt"
	"slider/internal/workload"
)

// formatSpeedupGrid renders one subfigure: apps × change%.
func formatSpeedupGrid(title string, sw *Sweep, mode sliderrt.Mode, f func(Measurement) float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-10s", "app\\change")
	for _, pct := range Pcts {
		fmt.Fprintf(&b, "%8d%%", pct)
	}
	b.WriteByte('\n')
	appNames := sw.appNames()
	for _, app := range appNames {
		fmt.Fprintf(&b, "%-10s", app)
		for _, pct := range Pcts {
			if c, ok := sw.Find(app, mode, pct); ok {
				fmt.Fprintf(&b, "%8.2fx", f(c))
			} else {
				fmt.Fprintf(&b, "%9s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// appNames lists the sweep's applications in first-seen order.
func (sw *Sweep) appNames() []string {
	var names []string
	seen := map[string]bool{}
	for _, c := range sw.Cells {
		if !seen[c.App] {
			seen[c.App] = true
			names = append(names, c.App)
		}
	}
	return names
}

// Figure7 renders the six panels of Figure 7: work and time speedups of
// Slider vs recomputing from scratch, per window mode.
func Figure7(sw *Sweep) string {
	var b strings.Builder
	b.WriteString("=== Figure 7: Slider speedup vs recompute-from-scratch ===\n\n")
	for _, mode := range Modes {
		b.WriteString(formatSpeedupGrid(
			fmt.Sprintf("(work, %s mode)", modeName(mode)), sw, mode,
			Measurement.WorkSpeedupVsScratch))
		b.WriteByte('\n')
	}
	for _, mode := range Modes {
		b.WriteString(formatSpeedupGrid(
			fmt.Sprintf("(time, %s mode)", modeName(mode)), sw, mode,
			Measurement.TimeSpeedupVsScratch))
		b.WriteByte('\n')
	}
	return b.String()
}

// Figure8 renders Figure 8: speedups of the self-adjusting trees vs the
// memoization-based strawman.
func Figure8(sw *Sweep) string {
	var b strings.Builder
	b.WriteString("=== Figure 8: Slider speedup vs strawman (memoization) ===\n\n")
	for _, mode := range Modes {
		b.WriteString(formatSpeedupGrid(
			fmt.Sprintf("(work, %s mode)", modeName(mode)), sw, mode,
			Measurement.WorkSpeedupVsStrawman))
		b.WriteByte('\n')
	}
	for _, mode := range Modes {
		b.WriteString(formatSpeedupGrid(
			fmt.Sprintf("(time, %s mode)", modeName(mode)), sw, mode,
			Measurement.TimeSpeedupVsStrawman))
		b.WriteByte('\n')
	}
	return b.String()
}

func modeName(m sliderrt.Mode) string {
	switch m {
	case sliderrt.Append:
		return "Append-only (A)"
	case sliderrt.Fixed:
		return "Fixed-width (F)"
	default:
		return "Variable-width (V)"
	}
}

// Figure9 renders the normalized execution breakdown for 5% and 25%
// input change: Slider's map work as a percentage of vanilla map work,
// and Slider's contraction+reduce as a percentage of vanilla reduce.
func Figure9(sw *Sweep) string {
	var b strings.Builder
	b.WriteString("=== Figure 9: work breakdown, normalized to vanilla (H=100%) ===\n")
	for _, pct := range []int{5, 25} {
		fmt.Fprintf(&b, "\n(%d%% change)\n", pct)
		fmt.Fprintf(&b, "%-10s %-18s %12s %22s\n", "app", "mode", "map(%ofH)", "contraction+red(%ofH)")
		for _, app := range sw.appNames() {
			for _, mode := range Modes {
				c, ok := sw.Find(app, mode, pct)
				if !ok {
					continue
				}
				hMap := c.ScratchReport.PhaseWork[metrics.PhaseMap]
				hRed := c.ScratchReport.PhaseWork[metrics.PhaseReduce]
				sMap := c.SliderReport.PhaseWork[metrics.PhaseMap]
				sCR := c.SliderReport.PhaseWork[metrics.PhaseContraction] +
					c.SliderReport.PhaseWork[metrics.PhaseReduce]
				mapPct, crPct := 0.0, 0.0
				if hMap > 0 {
					mapPct = 100 * float64(sMap) / float64(hMap)
				}
				if hRed > 0 {
					crPct = 100 * float64(sCR) / float64(hRed)
				}
				fmt.Fprintf(&b, "%-10s %-18s %11.1f%% %21.1f%%\n",
					app, modeName(mode), mapPct, crPct)
			}
		}
	}
	return b.String()
}

// Figure13 renders the initial-run overheads: work, time, and space.
func Figure13(sw *Sweep) string {
	var b strings.Builder
	b.WriteString("=== Figure 13: initial-run overheads vs vanilla ===\n")
	fmt.Fprintf(&b, "%-10s %-18s %12s %12s %14s\n",
		"app", "mode", "work-ovh", "time-ovh", "space (x input)")
	for _, app := range sw.appNames() {
		for _, mode := range Modes {
			c, ok := sw.Find(app, mode, 5)
			if !ok {
				continue
			}
			// Variance reduction: Slider's initial map phase is the
			// same computation as vanilla's plus the memoization
			// writes, so substitute vanilla's map measurement plus the
			// recorded write time for Slider's own noisy re-measurement.
			adjSlider := c.SliderInitReport.Work -
				c.SliderInitReport.PhaseWork[metrics.PhaseMap] +
				c.VanillaInitReport.PhaseWork[metrics.PhaseMap] +
				time.Duration(c.SliderInitReport.Counters.WriteTime)
			workOvh := overheadPct(c.VanillaInitReport.Work, adjSlider)
			timeOvh := overheadPct(c.VanillaInitTime, c.SliderInitTime)
			space := float64(c.SpaceBytes) / float64(maxInt64(1, c.InputBytes))
			fmt.Fprintf(&b, "%-10s %-18s %11.1f%% %11.1f%% %14.2fx\n",
				app, modeName(mode), workOvh, timeOvh, space)
		}
	}
	return b.String()
}

func overheadPct(base, with time.Duration) float64 {
	if base <= 0 {
		return 0
	}
	return 100 * (float64(with) - float64(base)) / float64(base)
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Figure10Result holds one (query, mode) cell of the query-processing
// benchmark.
type Figure10Result struct {
	Query       string
	Mode        sliderrt.Mode
	Stages      int
	WorkSpeedup float64
	TimeSpeedup float64
}

// pigmixQueries is the PigMix-style suite: pipelines of increasing depth
// exercising join, grouping, distinct, and ordering.
var pigmixQueries = []struct {
	name string
	src  string
}{
	{"L1 region totals", `
raw = LOAD 'events' AS (user, action, page, timespent, revenue);
views = FILTER raw BY action == 'view';
joined = JOIN views BY user, 'users' BY user;
grouped = GROUP joined BY region;
agg = FOREACH grouped GENERATE group AS region, COUNT(*) AS views, SUM(timespent) AS total;
ordered = ORDER agg BY total DESC;
STORE ordered INTO 'out';
`},
	{"L2 page reach", `
raw = LOAD 'events' AS (user, action, page, timespent, revenue);
pairs = FOREACH raw GENERATE page, user;
uniq = DISTINCT pairs;
grouped = GROUP uniq BY page;
reach = FOREACH grouped GENERATE group AS page, COUNT(*) AS users;
ordered = ORDER reach BY users DESC;
top = LIMIT ordered 10;
STORE top INTO 'out';
`},
	{"L3 top spenders", `
raw = LOAD 'events' AS (user, action, page, timespent, revenue);
buys = FILTER raw BY action == 'purchase';
g1 = GROUP buys BY user;
peruser = FOREACH g1 GENERATE group AS user, SUM(revenue) AS spent, COUNT(*) AS orders;
big = FILTER peruser BY spent > 50;
g2 = GROUP big BY user;
agg = FOREACH g2 GENERATE group AS user, MAX(spent) AS spent;
ordered = ORDER agg BY spent DESC;
top = LIMIT ordered 15;
STORE top INTO 'out';
`},
}

// Figure10 runs the PigMix-style query suite in all three window modes
// with a 5% input change and reports speedups vs recomputing each
// pipeline from scratch.
func Figure10(s Scale) ([]Figure10Result, string, error) {
	gen := workload.NewPigMix(workload.PigMixConfig{
		Seed: 42, Users: 400, Pages: 150,
		RowsPerSplit: s.Text.LinesPerSplit * 6,
	})
	tblSchema, tblRows := gen.UserTable()
	table := &pig.Table{Schema: tblSchema}
	for _, r := range tblRows {
		table.Rows = append(table.Rows, pig.Row(r))
	}

	w := s.WindowSplits
	delta := w * 5 / 100
	if delta < 1 {
		delta = 1
	}
	var results []Figure10Result
	for _, q := range pigmixQueries {
		script, err := pig.Parse(q.src)
		if err != nil {
			return nil, "", fmt.Errorf("figure10 %s: %w", q.name, err)
		}
		plan, err := pig.Compile(script, map[string]*pig.Table{"users": table}, s.Partitions)
		if err != nil {
			return nil, "", fmt.Errorf("figure10 %s: %w", q.name, err)
		}
		for _, mode := range Modes {
			cfg := modeConfig(mode, delta, w, s.Cluster.Nodes)
			// Query pipelines have always run their first stage on the
			// auto-selected backend, not the pinned rotating tree.
			cfg.Backend = sliderrt.BackendAuto
			pl, err := pig.NewPipeline(plan, pig.PipelineConfig{Config: cfg})
			if err != nil {
				return nil, "", err
			}
			window := gen.Range(0, w)
			if _, err := pl.Initial(window); err != nil {
				return nil, "", err
			}
			drop := delta
			if mode == sliderrt.Append {
				drop = 0
			}
			add := gen.Range(w, w+delta)
			quiesce()
			res, err := pl.Advance(drop, add)
			if err != nil {
				return nil, "", err
			}
			newWindow := append(append([]mapreduce.Split{}, window[drop:]...), add...)
			quiesce()
			rec := metrics.NewRecorder()
			want, _, err := pig.RunScratch(plan, newWindow, rec)
			if err != nil {
				return nil, "", err
			}
			if !rowsApproxEqual(res.Rows, want) {
				return nil, "", fmt.Errorf("figure10 %s: %v incremental rows diverge from scratch", q.name, mode)
			}
			scratchReport := rec.Snapshot()
			results = append(results, Figure10Result{
				Query:       q.name,
				Mode:        mode,
				Stages:      len(plan.Stages),
				WorkSpeedup: metrics.Speedup(scratchReport.Work, res.Report.Work),
				TimeSpeedup: metrics.Speedup(
					simulate(s, scratchReport, scheduler.Baseline{}),
					simulate(s, res.Report, scheduler.Hybrid{})),
			})
		}
	}
	var b strings.Builder
	b.WriteString("=== Figure 10: query processing (PigMix-style suite, 5% change) ===\n")
	fmt.Fprintf(&b, "%-18s %7s %-18s %12s %12s\n", "query", "stages", "mode", "work", "time")
	workAvg := make(map[sliderrt.Mode]float64)
	timeAvg := make(map[sliderrt.Mode]float64)
	for _, r := range results {
		fmt.Fprintf(&b, "%-18s %7d %-18s %11.2fx %11.2fx\n",
			r.Query, r.Stages, modeName(r.Mode), r.WorkSpeedup, r.TimeSpeedup)
		workAvg[r.Mode] += r.WorkSpeedup
		timeAvg[r.Mode] += r.TimeSpeedup
	}
	nq := float64(len(pigmixQueries))
	b.WriteString("\n(average across queries)\n")
	for _, mode := range Modes {
		fmt.Fprintf(&b, "%-26s %-18s %11.2fx %11.2fx\n", "", modeName(mode),
			workAvg[mode]/nq, timeAvg[mode]/nq)
	}
	return results, b.String(), nil
}

// rowsApproxEqual compares two query outputs with a floating-point
// tolerance: contraction trees re-associate float additions, so SUM/AVG
// columns differ from the sequential baseline in the last bits (and rows
// whose sort keys are within tolerance may swap positions).
func rowsApproxEqual(a, b []pig.Row) bool {
	if len(a) != len(b) {
		return false
	}
	matched := make([]bool, len(b))
outer:
	for _, ra := range a {
		for j, rb := range b {
			if !matched[j] && rowApprox(ra, rb) {
				matched[j] = true
				continue outer
			}
		}
		return false
	}
	return true
}

func rowApprox(a, b pig.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		af, aok := a[i].(float64)
		bf, bok := b[i].(float64)
		if aok && bok {
			if !closeEnough(af, bf) {
				return false
			}
			continue
		}
		if pig.ToString(a[i]) != pig.ToString(b[i]) {
			return false
		}
	}
	return true
}

// Figure11Result holds one app's split-processing measurements.
type Figure11Result struct {
	App        string
	Foreground float64 // foreground time, normalized to non-split update = 1
	Background float64 // background time, same normalization
	// Contraction-tree merges over the measured slides: on the critical
	// path without and with split processing, and in the background step.
	// Unlike the times they repeat exactly.
	PlainMerges, ForegroundMerges, BackgroundMerges int64
}

// Figure11 measures the effectiveness of split processing (append-only
// and fixed-width, 5% change): foreground and background update cost
// normalized to the non-split update cost.
func Figure11(s Scale, appList []App) (map[sliderrt.Mode][]Figure11Result, string, error) {
	// run is one configuration's measured slides: median update times, and
	// the merges summed over the slides.
	type run struct {
		fg, bg             time.Duration
		fgMerges, bgMerges int64
	}
	out := make(map[sliderrt.Mode][]Figure11Result)
	w := s.WindowSplits
	delta := w * 5 / 100
	for _, mode := range []sliderrt.Mode{sliderrt.Append, sliderrt.Fixed} {
		for _, app := range appList {
			drop := delta
			if mode == sliderrt.Append {
				drop = 0
			}
			initial := app.Gen(0, w)
			add := app.Gen(w, w+delta)

			runOnce := func(split bool) (run, error) {
				cfg := modeConfig(mode, delta, w, s.Cluster.Nodes)
				cfg.SplitProcessing = split
				rt, err := sliderrt.New(app.NewJob(), cfg)
				if err != nil {
					return run{}, err
				}
				if _, err := rt.Initial(initial); err != nil {
					return run{}, err
				}
				// Take the median of several slides so wall-clock noise
				// on the microsecond-scale update path washes out. A
				// slide's upkeep is reported by the next result, so one
				// more slide runs to report the last one's.
				const slides = 5
				var r run
				fgs := make([]time.Duration, 0, slides)
				bgs := make([]time.Duration, 0, slides)
				next := w
				for i := 0; i <= slides; i++ {
					moreAdd := add
					if i > 0 {
						moreAdd = app.Gen(next, next+delta)
					}
					next += delta
					res, err := rt.Advance(drop, moreAdd)
					if err != nil {
						return run{}, err
					}
					if i > 0 {
						bgs = append(bgs, res.Background.Work)
						r.bgMerges += res.TreeStatsBackground.Merges
					}
					if i == slides {
						break
					}
					// The split-processing comparison is about the
					// update (contraction + reduce) path; the map work
					// of the new data is identical either way.
					fgs = append(fgs, res.Report.PhaseWork[metrics.PhaseContraction]+
						res.Report.PhaseWork[metrics.PhaseReduce])
					r.fgMerges += res.TreeStats.Merges
				}
				r.fg, r.bg = medianDur(fgs), medianDur(bgs)
				return r, nil
			}
			plain, err := runOnce(false)
			if err != nil {
				return nil, "", fmt.Errorf("figure11 %s/%v plain: %w", app.Name, mode, err)
			}
			split, err := runOnce(true)
			if err != nil {
				return nil, "", fmt.Errorf("figure11 %s/%v split: %w", app.Name, mode, err)
			}
			norm := float64(maxDur(plain.fg, 1))
			out[mode] = append(out[mode], Figure11Result{
				App:              app.Name,
				Foreground:       float64(split.fg) / norm,
				Background:       float64(split.bg) / norm,
				PlainMerges:      plain.fgMerges,
				ForegroundMerges: split.fgMerges,
				BackgroundMerges: split.bgMerges,
			})
		}
	}
	var b strings.Builder
	b.WriteString("=== Figure 11: split processing (normalized update time = 1) ===\n")
	for _, mode := range []sliderrt.Mode{sliderrt.Append, sliderrt.Fixed} {
		fmt.Fprintf(&b, "\n(%s)\n%-10s %12s %12s\n", modeName(mode), "app", "foreground", "background")
		for _, r := range out[mode] {
			fmt.Fprintf(&b, "%-10s %12.2f %12.2f\n", r.App, r.Foreground, r.Background)
		}
	}
	return out, b.String(), nil
}

func maxDur(a time.Duration, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

// medianDur returns the median of a non-empty duration slice.
func medianDur(ds []time.Duration) time.Duration {
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[len(sorted)/2]
}

// Figure12Result compares folding vs randomized folding trees.
type Figure12Result struct {
	App       string
	RemovePct int
	// WorkSpeedup is the ratio of contraction work of the standard
	// folding tree to the randomized folding tree over the post-shrink
	// updates, measured in recomputed node materializations — the unit
	// of contraction work in the distributed setting, where every
	// recomputed tree node writes its output to the memoization layer.
	// > 1 means the randomized tree wins.
	WorkSpeedup float64
	// MergeSpeedup is the same ratio measured in combiner invocations
	// (pure in-memory CPU). The standard tree's pass-through nodes are
	// free under this metric, which shifts the crossover; EXPERIMENTS.md
	// discusses the difference.
	MergeSpeedup float64
}

// Figure12 reproduces the randomized-folding-tree experiment of §3.2 /
// §7.3: the window first slides so that the live leaves straddle the
// folding tree's root, then shrinks by 25% or 50% with a 1% add. In that
// state the standard tree cannot fold (neither half of its leaves is
// entirely void), so it keeps operating at the height of the enlarged
// structure, while the randomized tree's expected height tracks the
// shrunken window — the gap, and hence the randomized tree's advantage,
// grows with the removal percentage. Work is measured as combiner
// invocations over the subsequent small updates (the deterministic
// driver of contraction work).
func Figure12(s Scale, appList []App) ([]Figure12Result, string, error) {
	var results []Figure12Result
	w := s.WindowSplits * 2 // larger window so heights differ measurably
	onePct := w / 100
	if onePct < 1 {
		onePct = 1
	}
	var chosen []App
	for _, app := range appList {
		if app.Name == "K-Means" || app.Name == "Matrix" {
			chosen = append(chosen, app)
		}
	}
	for _, app := range chosen {
		for _, removePct := range []int{25, 50} {
			measure := func(backend sliderrt.Backend) (core.Stats, error) {
				cfg := modeConfig(sliderrt.Variable, 0, w, s.Cluster.Nodes)
				cfg.Backend = backend
				cfg.Seed = 17
				// Disable the fallback rebuild so the data structures
				// themselves are compared (the paper's Figure 12).
				cfg.RebuildFactor = -1
				rt, err := sliderrt.New(app.NewJob(), cfg)
				if err != nil {
					return core.Stats{}, err
				}
				if _, err := rt.Initial(app.Gen(0, w)); err != nil {
					return core.Stats{}, err
				}
				next := w
				// Two slides of just under half the window each: the
				// appends unfold the structure, and the live region
				// ends up straddling the root, so the shrinks below
				// cannot fold it back — the §3.2 imbalance scenario.
				pre := w/2 - 1
				for i := 0; i < 2; i++ {
					if _, err := rt.Advance(pre, app.Gen(next, next+pre)); err != nil {
						return core.Stats{}, err
					}
					next += pre
				}
				// The shrink under test: remove removePct%, add 1%.
				dropN := rt.Live() * removePct / 100
				if _, err := rt.Advance(dropN, app.Gen(next, next+onePct)); err != nil {
					return core.Stats{}, err
				}
				next += onePct
				// Measure the subsequent small updates (steady-state
				// sliding: 1% out, 1% in).
				var total core.Stats
				for i := 0; i < 5; i++ {
					res, err := rt.Advance(onePct, app.Gen(next, next+onePct))
					if err != nil {
						return core.Stats{}, err
					}
					next += onePct
					total.Merges += res.TreeStats.Merges
					total.NodesRecomputed += res.TreeStats.NodesRecomputed
					total.NodesReused += res.TreeStats.NodesReused
				}
				return total, nil
			}
			foldWork, err := measure(sliderrt.BackendFolding)
			if err != nil {
				return nil, "", fmt.Errorf("figure12 %s folding: %w", app.Name, err)
			}
			randWork, err := measure(sliderrt.BackendRandomizedFolding)
			if err != nil {
				return nil, "", fmt.Errorf("figure12 %s randomized: %w", app.Name, err)
			}
			r := Figure12Result{App: app.Name, RemovePct: removePct}
			if randWork.NodesRecomputed > 0 {
				r.WorkSpeedup = float64(foldWork.NodesRecomputed) / float64(randWork.NodesRecomputed)
			}
			if randWork.Merges > 0 {
				r.MergeSpeedup = float64(foldWork.Merges) / float64(randWork.Merges)
			}
			results = append(results, r)
		}
	}
	var b strings.Builder
	b.WriteString("=== Figure 12: randomized folding tree (speedup vs standard folding) ===\n")
	b.WriteString("(node materializations / combiner invocations)\n")
	fmt.Fprintf(&b, "%-10s %24s %24s\n", "app", "25% remove, 1% add", "50% remove, 1% add")
	for _, app := range []string{"K-Means", "Matrix"} {
		fmt.Fprintf(&b, "%-10s", app)
		for _, pct := range []int{25, 50} {
			for _, r := range results {
				if r.App == app && r.RemovePct == pct {
					fmt.Fprintf(&b, "%14.2fx /%6.2fx ", r.WorkSpeedup, r.MergeSpeedup)
				}
			}
		}
		b.WriteByte('\n')
	}
	return results, b.String(), nil
}
