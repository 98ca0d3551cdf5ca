// Benchmarks regenerating the paper's evaluation (§7–§8): one testing.B
// benchmark per figure and table, each wrapping the corresponding runner
// of internal/bench at Quick scale and reporting the headline quantity
// (speedup, overhead, or saving) via b.ReportMetric. Run the full-scale
// versions with cmd/slider-bench.
package slider_test

import (
	"io"
	"testing"

	"slider/internal/bench"
	"slider/internal/sliderrt"
)

// quickApps returns a representative app pair (one compute-intensive,
// one data-intensive) for per-iteration benchmark loops.
func quickApps(b *testing.B, s bench.Scale) []bench.App {
	b.Helper()
	var out []bench.App
	for _, a := range bench.MicroApps(s) {
		if a.Name == "K-Means" || a.Name == "Matrix" {
			out = append(out, a)
		}
	}
	return out
}

// BenchmarkFigure7 regenerates the Slider-vs-scratch speedup grid
// (Figure 7) and reports the 5%-change fixed-width work speedup.
func BenchmarkFigure7(b *testing.B) {
	s := bench.Quick()
	apps := quickApps(b, s)
	var speedup float64
	for i := 0; i < b.N; i++ {
		sweep, err := bench.RunSweep(s, apps, []int{5, 25})
		if err != nil {
			b.Fatal(err)
		}
		if c, ok := sweep.Find("K-Means", sliderrt.Fixed, 5); ok {
			speedup = c.WorkSpeedupVsScratch()
		}
	}
	b.ReportMetric(speedup, "work-speedup-5pct")
}

// BenchmarkFigure8 regenerates the Slider-vs-strawman grid (Figure 8).
func BenchmarkFigure8(b *testing.B) {
	s := bench.Quick()
	apps := quickApps(b, s)
	var speedup float64
	for i := 0; i < b.N; i++ {
		cell, err := bench.RunCell(s, apps[1], sliderrt.Fixed, 5)
		if err != nil {
			b.Fatal(err)
		}
		speedup = cell.WorkSpeedupVsStrawman()
	}
	b.ReportMetric(speedup, "work-speedup-vs-strawman")
}

// BenchmarkFigure9 regenerates the execution breakdown (Figure 9),
// reporting Slider's contraction+reduce work as a fraction of vanilla
// reduce work.
func BenchmarkFigure9(b *testing.B) {
	s := bench.Quick()
	apps := quickApps(b, s)
	var frac float64
	for i := 0; i < b.N; i++ {
		cell, err := bench.RunCell(s, apps[1], sliderrt.Fixed, 5)
		if err != nil {
			b.Fatal(err)
		}
		h := cell.ScratchReport.PhaseWork[3] // reduce
		sc := cell.SliderReport.PhaseWork[2] + cell.SliderReport.PhaseWork[3]
		if h > 0 {
			frac = float64(sc) / float64(h)
		}
	}
	b.ReportMetric(100*frac, "contract+reduce-%of-vanilla")
}

// BenchmarkFigure10 regenerates the query-processing speedups.
func BenchmarkFigure10(b *testing.B) {
	s := bench.Quick()
	var work float64
	for i := 0; i < b.N; i++ {
		results, _, err := bench.Figure10(s)
		if err != nil {
			b.Fatal(err)
		}
		work = results[1].WorkSpeedup // L1, fixed-width
	}
	b.ReportMetric(work, "query-work-speedup")
}

// BenchmarkFigure11 regenerates the split-processing measurements.
func BenchmarkFigure11(b *testing.B) {
	s := bench.Quick()
	apps := quickApps(b, s)
	var fg float64
	for i := 0; i < b.N; i++ {
		res, _, err := bench.Figure11(s, apps[:1])
		if err != nil {
			b.Fatal(err)
		}
		fg = res[sliderrt.Fixed][0].Foreground
	}
	b.ReportMetric(fg, "foreground-normalized")
}

// BenchmarkFigure12 regenerates the randomized-folding-tree comparison.
func BenchmarkFigure12(b *testing.B) {
	s := bench.Quick()
	apps := bench.MicroApps(s)
	var gain float64
	for i := 0; i < b.N; i++ {
		results, _, err := bench.Figure12(s, apps)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if r.App == "Matrix" && r.RemovePct == 50 {
				gain = r.WorkSpeedup
			}
		}
	}
	b.ReportMetric(gain, "randomized-gain-50pct")
}

// BenchmarkFigure13 regenerates the initial-run overheads.
func BenchmarkFigure13(b *testing.B) {
	s := bench.Quick()
	apps := quickApps(b, s)
	var ovh float64
	for i := 0; i < b.N; i++ {
		cell, err := bench.RunCell(s, apps[1], sliderrt.Variable, 5)
		if err != nil {
			b.Fatal(err)
		}
		base := float64(cell.VanillaInitReport.Work)
		if base > 0 {
			ovh = 100 * (float64(cell.SliderInitReport.Work) - base) / base
		}
	}
	b.ReportMetric(ovh, "init-work-overhead-%")
}

// BenchmarkTable1 regenerates the scheduler comparison.
func BenchmarkTable1(b *testing.B) {
	s := bench.Quick()
	apps := quickApps(b, s)
	var norm float64
	for i := 0; i < b.N; i++ {
		results, _, err := bench.Table1(s, apps[:1])
		if err != nil {
			b.Fatal(err)
		}
		norm = results[0].Normalized
	}
	b.ReportMetric(norm, "hybrid-normalized-runtime")
}

// BenchmarkTable2 regenerates the in-memory-caching saving.
func BenchmarkTable2(b *testing.B) {
	s := bench.Quick()
	apps := quickApps(b, s)
	var saving float64
	for i := 0; i < b.N; i++ {
		results, _, err := bench.Table2(s, apps[:1])
		if err != nil {
			b.Fatal(err)
		}
		saving = results[0].ReductionPct
	}
	b.ReportMetric(saving, "read-time-saving-%")
}

// BenchmarkTable3 regenerates the Glasnost case study.
func BenchmarkTable3(b *testing.B) {
	benchCaseStudy(b, bench.Table3)
}

// BenchmarkTable4 regenerates the Twitter case study.
func BenchmarkTable4(b *testing.B) {
	benchCaseStudy(b, bench.Table4)
}

// BenchmarkTable5 regenerates the NetSession case study.
func BenchmarkTable5(b *testing.B) {
	benchCaseStudy(b, bench.Table5)
}

func benchCaseStudy(b *testing.B, run func(bench.Scale) ([]bench.CaseStudyRow, string, error)) {
	b.Helper()
	s := bench.Quick()
	var speedup float64
	for i := 0; i < b.N; i++ {
		rows, _, err := run(s)
		if err != nil {
			b.Fatal(err)
		}
		var total float64
		for _, r := range rows {
			total += r.WorkSpeedup
		}
		speedup = total / float64(len(rows))
	}
	b.ReportMetric(speedup, "avg-work-speedup")
}

// BenchmarkAblationBucket regenerates the bucket-width ablation.
func BenchmarkAblationBucket(b *testing.B) {
	s := bench.Quick()
	var app bench.App
	for _, a := range bench.MicroApps(s) {
		if a.Name == "Matrix" {
			app = a
		}
	}
	for i := 0; i < b.N; i++ {
		if _, _, err := bench.AblationBucket(s, app); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationRebuild regenerates the rebuild-factor ablation.
func BenchmarkAblationRebuild(b *testing.B) {
	s := bench.Quick()
	var app bench.App
	for _, a := range bench.MicroApps(s) {
		if a.Name == "Matrix" {
			app = a
		}
	}
	for i := 0; i < b.N; i++ {
		if _, _, err := bench.AblationRebuild(s, app); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullRunQuick exercises the whole experiment driver end to end
// (what cmd/slider-bench does), at quick scale, discarding the output.
func BenchmarkFullRunQuick(b *testing.B) {
	if testing.Short() {
		b.Skip("full run is long")
	}
	s := bench.Quick()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Run(io.Discard, s, []string{"fig10", "fig11", "table1", "table2"}); err != nil {
			b.Fatal(err)
		}
	}
}
