// Package bench is the experiment harness: one runner per table and
// figure of the paper's evaluation (§7–§8), each regenerating the same
// rows/series the paper reports, using the micro-benchmark applications
// over synthetic workloads and the simulated cluster.
//
// Absolute numbers differ from the paper's 25-machine testbed by design;
// the reproduction targets are the shapes: who wins, by roughly what
// factor, and where the crossovers fall. EXPERIMENTS.md records
// paper-vs-measured for every experiment.
package bench

import (
	"fmt"
	"runtime"
	"time"

	"slider/internal/apps"
	"slider/internal/cluster"
	"slider/internal/mapreduce"
	"slider/internal/memo"
	"slider/internal/metrics"
	"slider/internal/scheduler"
	"slider/internal/sliderrt"
	"slider/internal/workload"
)

// Scale sizes the experiments. WindowSplits must be divisible by 20 so
// that every change percentage in {5,10,15,20,25} is a whole number of
// splits.
type Scale struct {
	// WindowSplits is the micro-benchmark window size W in splits.
	WindowSplits int
	// Text parameterizes the data-intensive apps' corpus.
	Text workload.TextConfig
	// Points parameterizes the compute-intensive apps' stream.
	Points workload.PointsConfig
	// Cluster is the simulated cluster for "time" measurements.
	Cluster cluster.Config
	// Partitions is the reduce parallelism of every job.
	Partitions int
	// KMeansK and KNNK size the compute-intensive apps.
	KMeansK int
	KNNK    int
}

// Quick returns a small scale for tests and smoke runs.
func Quick() Scale {
	return Scale{
		WindowSplits: 20,
		Text:         workload.TextConfig{Seed: 42, LinesPerSplit: 15, WordsPerLine: 8, Vocabulary: 500, ZipfS: 1.2},
		Points:       workload.PointsConfig{Seed: 42, PointsPerSplit: 60, Dim: 20},
		Cluster:      cluster.DefaultConfig(),
		Partitions:   4,
		KMeansK:      8,
		KNNK:         8,
	}
}

// Full returns the scale used for the recorded experiments. Larger
// per-split work keeps the wall-clock work measurements well above
// scheduling noise.
func Full() Scale {
	return Scale{
		WindowSplits: 60,
		// The vocabulary/skew pair approximates natural text: frequent
		// word pairs repeat often enough that combining aggregates
		// meaningfully (co-occurrence payloads shrink relative to
		// input), as with the paper's Wikipedia dataset.
		Text:       workload.TextConfig{Seed: 42, LinesPerSplit: 150, WordsPerLine: 12, Vocabulary: 1200, ZipfS: 1.3},
		Points:     workload.PointsConfig{Seed: 42, PointsPerSplit: 500, Dim: 50},
		Cluster:    cluster.DefaultConfig(),
		Partitions: 8,
		KMeansK:    20,
		KNNK:       16,
	}
}

// App is one benchmark application: a job factory plus its input stream.
type App struct {
	// Name matches the paper's label.
	Name string
	// NewJob builds a fresh job instance.
	NewJob func() *mapreduce.Job
	// Gen returns input splits [lo, hi).
	Gen func(lo, hi int) []mapreduce.Split
	// ComputeIntensive marks K-Means and KNN.
	ComputeIntensive bool
}

// MicroApps returns the five micro-benchmark applications of §7.1.
func MicroApps(s Scale) []App {
	text := workload.NewText(s.Text)
	points := workload.NewPoints(s.Points)
	queries := points.QueryPoints(s.KNNK)
	return []App{
		{
			Name:             "K-Means",
			NewJob:           func() *mapreduce.Job { return apps.KMeans(s.Partitions, s.KMeansK, s.Points.Dim, 7) },
			Gen:              points.Range,
			ComputeIntensive: true,
		},
		{
			Name:   "HCT",
			NewJob: func() *mapreduce.Job { return apps.HCT(s.Partitions) },
			Gen:    text.Range,
		},
		{
			Name:             "KNN",
			NewJob:           func() *mapreduce.Job { return apps.KNN(s.Partitions, s.KNNK, queries) },
			Gen:              points.Range,
			ComputeIntensive: true,
		},
		{
			Name:   "Matrix",
			NewJob: func() *mapreduce.Job { return apps.Matrix(s.Partitions) },
			Gen:    text.Range,
		},
		{
			Name:   "subStr",
			NewJob: func() *mapreduce.Job { return apps.SubStr(s.Partitions) },
			Gen:    text.Range,
		},
	}
}

// Measurement is the full set of observations for one (app, mode, pct)
// cell of the Figure 7/8/9/13 sweeps.
type Measurement struct {
	App  string
	Mode sliderrt.Mode
	Pct  int

	// Incremental-run observations.
	ScratchReport metrics.Report // recompute over the slid window
	StrawReport   metrics.Report // strawman incremental run
	SliderReport  metrics.Report // slider incremental run
	ScratchTime   time.Duration
	StrawTime     time.Duration
	SliderTime    time.Duration

	// Initial-run observations (Figure 13).
	VanillaInitReport metrics.Report
	SliderInitReport  metrics.Report
	VanillaInitTime   time.Duration
	SliderInitTime    time.Duration
	SpaceBytes        int64
	InputBytes        int64
}

// WorkSpeedupVsScratch is the Figure 7 work ratio.
func (m Measurement) WorkSpeedupVsScratch() float64 {
	return metrics.Speedup(m.ScratchReport.Work, m.SliderReport.Work)
}

// TimeSpeedupVsScratch is the Figure 7 time ratio.
func (m Measurement) TimeSpeedupVsScratch() float64 {
	return metrics.Speedup(m.ScratchTime, m.SliderTime)
}

// WorkSpeedupVsStrawman is the Figure 8 work ratio.
func (m Measurement) WorkSpeedupVsStrawman() float64 {
	return metrics.Speedup(m.StrawReport.Work, m.SliderReport.Work)
}

// TimeSpeedupVsStrawman is the Figure 8 time ratio.
func (m Measurement) TimeSpeedupVsStrawman() float64 {
	return metrics.Speedup(m.StrawTime, m.SliderTime)
}

// modeConfig builds the slider configuration for one cell.
func modeConfig(mode sliderrt.Mode, delta, window int, nodes int) sliderrt.Config {
	cfg := sliderrt.Config{Mode: mode}
	cfg.Memo = memo.DefaultConfig()
	if nodes > 0 {
		cfg.Memo.Nodes = nodes
	}
	if mode == sliderrt.Fixed {
		cfg.BucketSplits = delta
		cfg.WindowBuckets = window / delta
		// The paper's Fixed-mode figures measure the rotating
		// contraction tree; pin it so backend auto-selection (which
		// prefers the DABA queue for plain fixed-width windows) cannot
		// change what these experiments measure. The DABA-vs-rotating
		// comparison is held by sliderrt's
		// TestDabaBeatsRotatingMergeCount and the core.daba.* and
		// core.rotating.* rows of the benchmark's per-layer trace.
		cfg.Backend = sliderrt.BackendRotating
	}
	return cfg
}

// estimateInputBytes approximates the raw input volume of a window.
func estimateInputBytes(splits []mapreduce.Split) int64 {
	var total int64
	for _, s := range splits {
		for _, r := range s.Records {
			switch x := r.(type) {
			case string:
				total += int64(len(x)) + 1
			case []float64:
				total += int64(8 * len(x))
			default:
				total += 32
			}
		}
	}
	return total
}

// sameOutput verifies two job outputs agree, value by value under
// mapreduce.ValuesEquivalent: floats within a relative tolerance, since
// contraction trees re-associate additions, everything else exactly.
func sameOutput(a, b mapreduce.Output) bool {
	if len(a) != len(b) {
		return false
	}
	for k, av := range a {
		bv, ok := b[k]
		if !ok || !mapreduce.ValuesEquivalent(av, bv) {
			return false
		}
	}
	return true
}

// simulate turns a report into a makespan under the given policy.
func simulate(s Scale, r metrics.Report, policy cluster.Policy) time.Duration {
	return cluster.NewSimulator(s.Cluster).Run(r.Tasks, policy).Makespan
}

// quiesce runs the garbage collector so that the next measured run does
// not absorb a GC pause triggered by a previous run's allocations —
// material on small machines where tasks are microsecond-scale.
func quiesce() { runtime.GC() }

// RunCell measures one (app, mode, pct) cell: it performs initial runs
// for the slider and strawman engines, one incremental run each, and a
// recompute-from-scratch run over the slid window, verifying that all
// three outputs agree.
func RunCell(s Scale, app App, mode sliderrt.Mode, pct int) (Measurement, error) {
	m := Measurement{App: app.Name, Mode: mode, Pct: pct}
	w := s.WindowSplits
	delta := w * pct / 100
	if delta < 1 {
		return m, fmt.Errorf("bench: pct %d too small for window %d", pct, w)
	}
	if mode == sliderrt.Fixed {
		// Rotating trees need the window to be a whole number of
		// buckets; round it down to the nearest multiple of the slide.
		w = delta * (w / delta)
	}
	initial := app.Gen(0, w)
	add := app.Gen(w, w+delta)
	drop := delta
	if mode == sliderrt.Append {
		drop = 0
	}
	newWindow := append(append([]mapreduce.Split{}, initial[drop:]...), add...)
	m.InputBytes = estimateInputBytes(initial)

	// Slider engine.
	sliderRT, err := sliderrt.New(app.NewJob(), modeConfig(mode, delta, w, s.Cluster.Nodes))
	if err != nil {
		return m, err
	}
	quiesce()
	initRes, err := sliderRT.Initial(initial)
	if err != nil {
		return m, fmt.Errorf("%s/%v/%d%%: slider initial: %w", app.Name, mode, pct, err)
	}
	m.SliderInitReport = initRes.Report
	m.SliderInitTime = simulate(s, initRes.Report, scheduler.Hybrid{})
	quiesce()
	advRes, err := sliderRT.Advance(drop, add)
	if err != nil {
		return m, fmt.Errorf("%s/%v/%d%%: slider advance: %w", app.Name, mode, pct, err)
	}
	m.SliderReport = advRes.Report
	m.SliderTime = simulate(s, advRes.Report, scheduler.Hybrid{})
	m.SpaceBytes = advRes.SpaceBytes

	// The strawman baseline.
	strawCfg := modeConfig(mode, delta, w, s.Cluster.Nodes)
	strawCfg.Backend = sliderrt.BackendStrawman
	strawRT, err := sliderrt.New(app.NewJob(), strawCfg)
	if err != nil {
		return m, err
	}
	if _, err := strawRT.Initial(initial); err != nil {
		return m, fmt.Errorf("%s/%v/%d%%: strawman initial: %w", app.Name, mode, pct, err)
	}
	quiesce()
	strawRes, err := strawRT.Advance(drop, add)
	if err != nil {
		return m, fmt.Errorf("%s/%v/%d%%: strawman advance: %w", app.Name, mode, pct, err)
	}
	m.StrawReport = strawRes.Report
	m.StrawTime = simulate(s, strawRes.Report, scheduler.Hybrid{})

	// Recompute-from-scratch baselines: over the slid window (the
	// incremental comparison) and over the initial window (Figure 13).
	quiesce()
	rec := metrics.NewRecorder()
	scratchOut, err := mapreduce.RunScratch(app.NewJob(), newWindow, 0, rec)
	if err != nil {
		return m, err
	}
	m.ScratchReport = rec.Snapshot()
	m.ScratchTime = simulate(s, m.ScratchReport, scheduler.Baseline{})

	quiesce()
	recInit := metrics.NewRecorder()
	if _, err := mapreduce.RunScratch(app.NewJob(), initial, 0, recInit); err != nil {
		return m, err
	}
	m.VanillaInitReport = recInit.Snapshot()
	m.VanillaInitTime = simulate(s, m.VanillaInitReport, scheduler.Baseline{})

	// Variance reduction for the initial-run *time* comparison: Slider's
	// initial map tasks run the same computation as vanilla's, so rebuild
	// Slider's task list with vanilla's map measurements (makespans are
	// max-statistics and very sensitive to one slow re-measurement).
	adjTasks := make([]metrics.Task, 0, len(m.SliderInitReport.Tasks))
	si := 0
	sliderMapTasks := make([]metrics.Task, 0)
	for _, t := range m.SliderInitReport.Tasks {
		if t.Phase == metrics.PhaseMap {
			sliderMapTasks = append(sliderMapTasks, t)
		} else {
			adjTasks = append(adjTasks, t)
		}
	}
	for _, t := range m.VanillaInitReport.Tasks {
		if t.Phase != metrics.PhaseMap {
			continue
		}
		if si < len(sliderMapTasks) {
			// Keep Slider's locality hint; take vanilla's measured cost
			// plus the memoization write Slider's task additionally pays.
			t.PreferredNode = sliderMapTasks[si].PreferredNode
			si++
		}
		adjTasks = append(adjTasks, t)
	}
	if len(sliderMapTasks) > 0 {
		perTaskWrite := time.Duration(m.SliderInitReport.Counters.WriteTime /
			int64(len(sliderMapTasks)))
		for i := range adjTasks {
			if adjTasks[i].Phase == metrics.PhaseMap {
				adjTasks[i].Cost += perTaskWrite
			}
		}
	}
	adjReport := m.SliderInitReport
	adjReport.Tasks = adjTasks
	m.SliderInitTime = simulate(s, adjReport, scheduler.Hybrid{})

	if !sameOutput(advRes.Output, scratchOut) {
		return m, fmt.Errorf("%s/%v/%d%%: slider output diverges from scratch", app.Name, mode, pct)
	}
	if !sameOutput(strawRes.Output, scratchOut) {
		return m, fmt.Errorf("%s/%v/%d%%: strawman output diverges from scratch", app.Name, mode, pct)
	}
	return m, nil
}

// Sweep holds the full Figure 7/8/9/13 measurement grid.
type Sweep struct {
	Scale Scale
	Cells []Measurement
}

// Pcts is the change-percentage axis of Figures 7 and 8.
var Pcts = []int{5, 10, 15, 20, 25}

// Modes is the window-mode axis.
var Modes = []sliderrt.Mode{sliderrt.Append, sliderrt.Fixed, sliderrt.Variable}

// RunSweep measures every (app, mode, pct) cell.
func RunSweep(s Scale, appList []App, pcts []int) (*Sweep, error) {
	sweep := &Sweep{Scale: s}
	for _, app := range appList {
		for _, mode := range Modes {
			for _, pct := range pcts {
				cell, err := RunCell(s, app, mode, pct)
				if err != nil {
					return nil, err
				}
				sweep.Cells = append(sweep.Cells, cell)
			}
		}
	}
	return sweep, nil
}

// Find returns the cell for (app, mode, pct), or false.
func (sw *Sweep) Find(app string, mode sliderrt.Mode, pct int) (Measurement, bool) {
	for _, c := range sw.Cells {
		if c.App == app && c.Mode == mode && c.Pct == pct {
			return c, true
		}
	}
	return Measurement{}, false
}
