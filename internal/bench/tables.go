package bench

import (
	"fmt"
	"strings"
	"time"

	"slider/internal/cluster"
	"slider/internal/mapreduce"
	"slider/internal/metrics"
	"slider/internal/scheduler"
	"slider/internal/sliderrt"
)

// Table1Result is one app's scheduler comparison.
type Table1Result struct {
	App string
	// Normalized is the hybrid-scheduler makespan divided by the stock
	// Hadoop scheduler's makespan (< 1 means the hybrid wins).
	Normalized float64
}

// Table1 compares the hybrid memoization-aware scheduler against the
// stock Hadoop scheduler on the incremental runs' task mix, on a cluster
// with one slow (straggler) machine, as in §7.3.
func Table1(s Scale, appList []App) ([]Table1Result, string, error) {
	// One straggler at 0.4 of the others' speed.
	cfg := s.Cluster
	cfg.Speed = make([]float64, cfg.Nodes)
	for i := range cfg.Speed {
		cfg.Speed[i] = 1
	}
	if cfg.Nodes > 0 {
		cfg.Speed[0] = 0.4
	}
	sim := cluster.NewSimulator(cfg)

	w := s.WindowSplits
	delta := w / 10
	if delta < 1 {
		delta = 1
	}
	var results []Table1Result
	for _, app := range appList {
		rt, err := sliderrt.New(app.NewJob(), modeConfig(sliderrt.Fixed, delta, w, cfg.Nodes))
		if err != nil {
			return nil, "", err
		}
		if _, err := rt.Initial(app.Gen(0, w)); err != nil {
			return nil, "", err
		}
		// Aggregate several slides so scheduling effects average out.
		var tasks []metrics.Task
		next := w
		for i := 0; i < 4; i++ {
			res, err := rt.Advance(delta, app.Gen(next, next+delta))
			if err != nil {
				return nil, "", err
			}
			next += delta
			tasks = append(tasks, res.Report.Tasks...)
		}
		base := sim.Run(tasks, scheduler.Baseline{})
		hybrid := sim.Run(tasks, scheduler.Hybrid{})
		results = append(results, Table1Result{
			App:        app.Name,
			Normalized: float64(hybrid.Makespan) / float64(max(base.Makespan, 1)),
		})
	}
	var b strings.Builder
	b.WriteString("=== Table 1: hybrid scheduler run-time, normalized to Hadoop scheduler (=1) ===\n")
	for _, r := range results {
		fmt.Fprintf(&b, "%-10s %6.2f\n", r.App, r.Normalized)
	}
	return results, b.String(), nil
}

// Table2Result is one app's in-memory-caching read-time saving.
type Table2Result struct {
	App string
	// ReductionPct is the percentage reduction in memoized-state read
	// time from enabling the in-memory cache.
	ReductionPct float64
}

// Table2 measures the read-time reduction from in-memory caching for
// fixed-width windowing, by running the same slides with the cache
// enabled and disabled (shim I/O falls back to persistent replicas).
func Table2(s Scale, appList []App) ([]Table2Result, string, error) {
	w := s.WindowSplits
	delta := w / 10
	if delta < 1 {
		delta = 1
	}
	var results []Table2Result
	for _, app := range appList {
		readTime := func(inMemory bool) (int64, error) {
			cfg := modeConfig(sliderrt.Fixed, delta, w, s.Cluster.Nodes)
			cfg.Memo.InMemory = inMemory
			rt, err := sliderrt.New(app.NewJob(), cfg)
			if err != nil {
				return 0, err
			}
			if _, err := rt.Initial(app.Gen(0, w)); err != nil {
				return 0, err
			}
			var total int64
			next := w
			for i := 0; i < 4; i++ {
				res, err := rt.Advance(delta, app.Gen(next, next+delta))
				if err != nil {
					return 0, err
				}
				next += delta
				total += res.ReadTimeNs
			}
			return total, nil
		}
		mem, err := readTime(true)
		if err != nil {
			return nil, "", err
		}
		disk, err := readTime(false)
		if err != nil {
			return nil, "", err
		}
		reduction := 0.0
		if disk > 0 {
			reduction = 100 * (1 - float64(mem)/float64(disk))
		}
		results = append(results, Table2Result{App: app.Name, ReductionPct: reduction})
	}
	var b strings.Builder
	b.WriteString("=== Table 2: read-time reduction from in-memory caching ===\n")
	for _, r := range results {
		fmt.Fprintf(&b, "%-10s %6.2f%%\n", r.App, r.ReductionPct)
	}
	return results, b.String(), nil
}

// CaseStudyRow is one window of a case-study run.
type CaseStudyRow struct {
	Label       string
	ChangePct   float64
	WorkSpeedup float64
	TimeSpeedup float64
	// The two arms WorkSpeedup divides: the incremental window's work and
	// recomputation's.
	sliderWork, scratchWork time.Duration
}

// caseStudyAdvance measures one incremental case-study window against
// recomputation from scratch.
func caseStudyAdvance(
	s Scale,
	rt *sliderrt.Runtime,
	job *mapreduce.Job,
	window *[]mapreduce.Split,
	drop int,
	add []mapreduce.Split,
	label string,
) (CaseStudyRow, error) {
	quiesce()
	res, err := rt.Advance(drop, add)
	if err != nil {
		return CaseStudyRow{}, fmt.Errorf("%s: %w", label, err)
	}
	*window = append((*window)[drop:], add...)
	quiesce()
	rec := metrics.NewRecorder()
	out, err := mapreduce.RunScratch(job, *window, 0, rec)
	if err != nil {
		return CaseStudyRow{}, err
	}
	if !sameOutput(res.Output, out) {
		return CaseStudyRow{}, fmt.Errorf("%s: incremental output diverges from scratch", label)
	}
	scratch := rec.Snapshot()
	return CaseStudyRow{
		Label:       label,
		ChangePct:   100 * float64(len(add)) / float64(max(1, len(*window))),
		WorkSpeedup: metrics.Speedup(scratch.Work, res.Report.Work),
		TimeSpeedup: metrics.Speedup(
			simulate(s, scratch, scheduler.Baseline{}),
			simulate(s, res.Report, scheduler.Hybrid{})),
		sliderWork:  res.Report.Work,
		scratchWork: scratch.Work,
	}, nil
}

// formatCaseStudy renders a case-study table.
func formatCaseStudy(title string, rows []CaseStudyRow) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	fmt.Fprintf(&b, "%-16s %10s %10s %10s\n", "window", "change", "time-spd", "work-spd")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %9.1f%% %9.2fx %9.2fx\n", r.Label, r.ChangePct, r.TimeSpeedup, r.WorkSpeedup)
	}
	return b.String()
}
