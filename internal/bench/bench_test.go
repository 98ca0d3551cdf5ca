package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"testing"

	"slider/internal/sliderrt"
)

// quickApps returns a fast two-app subset (one data-intensive, one
// compute-intensive) for unit tests.
func quickApps(t *testing.T, s Scale) []App {
	t.Helper()
	all := MicroApps(s)
	var out []App
	for _, a := range all {
		if a.Name == "HCT" || a.Name == "K-Means" {
			out = append(out, a)
		}
	}
	if len(out) != 2 {
		t.Fatal("missing quick apps")
	}
	return out
}

func TestRunCellAllModes(t *testing.T) {
	s := Quick()
	for _, app := range quickApps(t, s) {
		for _, mode := range Modes {
			m, err := RunCell(s, app, mode, 10)
			if err != nil {
				t.Fatalf("%s/%v: %v", app.Name, mode, err)
			}
			if m.SliderReport.Work <= 0 || m.ScratchReport.Work <= 0 {
				t.Fatalf("%s/%v: zero work recorded", app.Name, mode)
			}
			if m.WorkSpeedupVsScratch() <= 1 {
				t.Errorf("%s/%v: work speedup %.2f ≤ 1 — incremental run did not save work",
					app.Name, mode, m.WorkSpeedupVsScratch())
			}
		}
	}
}

// retryOnce runs a wall-clock-sensitive check up to twice: a systematic
// regression fails both attempts, while one-off scheduler/GC noise (the
// tests share a small CI machine with the benchmarks) does not.
func retryOnce(t *testing.T, attempt func() error) {
	t.Helper()
	err := attempt()
	if err == nil {
		return
	}
	t.Logf("first attempt failed (%v); retrying once", err)
	if err := attempt(); err != nil {
		t.Fatal(err)
	}
}

func TestSpeedupDecreasesWithChange(t *testing.T) {
	s := Quick()
	app := quickApps(t, s)[1] // K-Means: compute-bound, low noise
	retryOnce(t, func() error {
		small, err := RunCell(s, app, sliderrt.Fixed, 5)
		if err != nil {
			return err
		}
		large, err := RunCell(s, app, sliderrt.Fixed, 25)
		if err != nil {
			return err
		}
		if small.WorkSpeedupVsScratch() <= large.WorkSpeedupVsScratch() {
			return fmt.Errorf("speedup should shrink as the delta grows: 5%%=%.2f 25%%=%.2f",
				small.WorkSpeedupVsScratch(), large.WorkSpeedupVsScratch())
		}
		return nil
	})
}

func TestSliderBeatsStrawman(t *testing.T) {
	s := Quick()
	app := quickApps(t, s)[0] // HCT: contraction-heavy
	m, err := RunCell(s, app, sliderrt.Fixed, 5)
	if err != nil {
		t.Fatal(err)
	}
	// The strawman re-combines Θ(window); the rotating tree re-combines
	// Θ(log window): slider must do fewer combine calls.
	if m.SliderReport.Counters.CombineCalls >= m.StrawReport.Counters.CombineCalls {
		t.Fatalf("slider combines (%d) should be below strawman (%d)",
			m.SliderReport.Counters.CombineCalls, m.StrawReport.Counters.CombineCalls)
	}
}

func TestFigureFormatting(t *testing.T) {
	s := Quick()
	sweep, err := RunSweep(s, quickApps(t, s)[:1], []int{5, 25})
	if err != nil {
		t.Fatal(err)
	}
	if got := Figure7(sweep); !strings.Contains(got, "Figure 7") || !strings.Contains(got, "K-Means") {
		t.Fatalf("figure 7 output malformed:\n%s", got)
	}
	if got := Figure8(sweep); !strings.Contains(got, "strawman") {
		t.Fatalf("figure 8 output malformed:\n%s", got)
	}
	if got := Figure9(sweep); !strings.Contains(got, "5% change") {
		t.Fatalf("figure 9 output malformed:\n%s", got)
	}
	if got := Figure13(sweep); !strings.Contains(got, "space") {
		t.Fatalf("figure 13 output malformed:\n%s", got)
	}
}

func TestFigure10QuerySpeedups(t *testing.T) {
	retryOnce(t, func() error {
		results, text, err := Figure10(Quick())
		if err != nil {
			return err
		}
		if len(results) != 9 {
			return fmt.Errorf("got %d (query, mode) cells, want 9", len(results))
		}
		for _, r := range results {
			if r.WorkSpeedup <= 1 {
				return fmt.Errorf("%s/%v: query work speedup %.2f ≤ 1", r.Query, r.Mode, r.WorkSpeedup)
			}
			if r.Stages < 2 {
				return fmt.Errorf("%s compiles to %d stage(s), want a pipeline", r.Query, r.Stages)
			}
		}
		if !strings.Contains(text, "Figure 10") {
			return fmt.Errorf("missing header")
		}
		return nil
	})
}

// TestFigure11SplitProcessing checks the figure's claim on what repeats
// exactly — contraction-tree merges — not on the normalized wall-clock
// times it prints, which on a shared host crossed any fixed limit now and
// then: moving work to the background must leave a slide's critical path
// strictly fewer merges (fixed-width: one combine instead of log N;
// append: none, the new data was folded in ahead of time).
func TestFigure11SplitProcessing(t *testing.T) {
	s := Quick()
	res, text, err := Figure11(s, quickApps(t, s))
	if err != nil {
		t.Fatal(err)
	}
	for mode, rows := range res {
		for _, r := range rows {
			t.Logf("%v/%s: merges plain %d, foreground %d, background %d; times %.2f / %.2f",
				mode, r.App, r.PlainMerges, r.ForegroundMerges, r.BackgroundMerges, r.Foreground, r.Background)
			if r.BackgroundMerges <= 0 {
				t.Errorf("%v/%s: no background work recorded", mode, r.App)
			}
			if r.ForegroundMerges >= r.PlainMerges {
				t.Errorf("%v/%s: %d foreground merges with split processing, %d without",
					mode, r.App, r.ForegroundMerges, r.PlainMerges)
			}
		}
	}
	if !strings.Contains(text, "split processing") {
		t.Fatal("missing header")
	}
}

func TestFigure12Randomized(t *testing.T) {
	s := Quick()
	results, _, err := Figure12(s, MicroApps(s))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("got %d results, want 4", len(results))
	}
	// The paper's key finding: at 50% removal the randomized tree wins;
	// at 25% the standard tree is comparable or slightly better. We
	// assert the relative ordering per app rather than exact values.
	byApp := map[string]map[int]float64{}
	for _, r := range results {
		if byApp[r.App] == nil {
			byApp[r.App] = map[int]float64{}
		}
		byApp[r.App][r.RemovePct] = r.WorkSpeedup
	}
	for app, m := range byApp {
		if m[50] <= m[25]*0.8 {
			t.Errorf("%s: randomized tree should gain more at 50%% removal (25%%=%.2f, 50%%=%.2f)",
				app, m[25], m[50])
		}
	}
}

func TestTables(t *testing.T) {
	s := Quick()
	appList := quickApps(t, s)

	t1, text, err := Table1(s, appList)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range t1 {
		if r.Normalized <= 0 || r.Normalized > 1.6 {
			t.Errorf("table1 %s: normalized %.2f out of range", r.App, r.Normalized)
		}
	}
	if !strings.Contains(text, "Table 1") {
		t.Fatal("table1 header")
	}

	t2, _, err := Table2(s, appList)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range t2 {
		if r.ReductionPct <= 0 {
			t.Errorf("table2 %s: caching saved nothing (%.2f%%)", r.App, r.ReductionPct)
		}
	}
}

func TestCaseStudies(t *testing.T) {
	s := Quick()
	for name, run := range map[string]func(Scale) ([]CaseStudyRow, string, error){
		"table3": Table3, "table4": Table4, "table5": Table5,
	} {
		retryOnce(t, func() error {
			rows, text, err := run(s)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			if len(rows) == 0 {
				return fmt.Errorf("%s: no rows", name)
			}
			// Wall-clock work at test scale carries single-core
			// scheduling and GC noise; assert on the median with a
			// loose per-row floor rather than demanding every row
			// individually beats 1×.
			speedups := make([]float64, 0, len(rows))
			for _, r := range rows {
				if r.WorkSpeedup < 0.3 {
					return fmt.Errorf("%s %s: work speedup %.2f below sanity floor", name, r.Label, r.WorkSpeedup)
				}
				speedups = append(speedups, r.WorkSpeedup)
			}
			sort.Float64s(speedups)
			if median := speedups[len(speedups)/2]; median <= 1 {
				return fmt.Errorf("%s: median work speedup %.2f ≤ 1", name, median)
			}
			if !strings.Contains(text, "===") {
				return fmt.Errorf("%s: missing header", name)
			}
			return nil
		})
	}
}

func TestAblations(t *testing.T) {
	s := Quick()
	var matrix App
	for _, a := range MicroApps(s) {
		if a.Name == "Matrix" {
			matrix = a
		}
	}
	res, _, err := AblationBucket(s, matrix)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) < 2 {
		t.Fatalf("bucket ablation returned %d configs", len(res))
	}
	res2, _, err := AblationRebuild(s, matrix)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2) != 3 {
		t.Fatalf("rebuild ablation returned %d configs", len(res2))
	}
}

func TestAblationWindowScale(t *testing.T) {
	s := Quick()
	var app App
	for _, a := range MicroApps(s) {
		if a.Name == "K-Means" {
			app = a
		}
	}
	res, text, err := AblationWindowScale(s, app)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("got %d window sizes", len(res))
	}
	// The asymptotic claim: at a constant delta, doubling the window
	// must increase the speedup (sub-linear update work).
	if res[2].WorkSpeedup <= res[0].WorkSpeedup {
		t.Fatalf("speedup did not grow with window: %.2f (w=%d) vs %.2f (w=%d)",
			res[0].WorkSpeedup, res[0].WindowSplits,
			res[2].WorkSpeedup, res[2].WindowSplits)
	}
	// And the combiner count must grow sub-linearly: ≤ 2× for a 4×
	// window (log-depth paths), not 4×.
	if res[2].SliderCombines > 3*res[0].SliderCombines {
		t.Fatalf("combiner count grew super-logarithmically: %d (w=%d) vs %d (w=%d)",
			res[0].SliderCombines, res[0].WindowSplits,
			res[2].SliderCombines, res[2].WindowSplits)
	}
	if !strings.Contains(text, "window size") {
		t.Fatal("missing header")
	}
}

func TestRunSelected(t *testing.T) {
	var buf bytes.Buffer
	if err := Run(&buf, Quick(), []string{"fig10"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 10") {
		t.Fatal("selected experiment missing from output")
	}
	if strings.Contains(buf.String(), "Figure 7") {
		t.Fatal("unselected experiment present in output")
	}
}

func TestRunJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := RunJSON(&buf, Quick(), "quick"); err != nil {
		t.Fatal(err)
	}
	var decoded ResultsJSON
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if decoded.Scale != "quick" {
		t.Fatalf("scale = %q", decoded.Scale)
	}
	if len(decoded.Sweep) != 5*3*5 {
		t.Fatalf("sweep cells = %d, want 75", len(decoded.Sweep))
	}
	if len(decoded.Queries) != 9 {
		t.Fatalf("query cells = %d, want 9", len(decoded.Queries))
	}
	if len(decoded.Scheduler) != 5 || len(decoded.CacheSavings) != 5 {
		t.Fatalf("per-app tables incomplete: %d / %d", len(decoded.Scheduler), len(decoded.CacheSavings))
	}
	if len(decoded.CaseStudies) == 0 || len(decoded.Randomized) != 4 || len(decoded.WindowScale) != 3 {
		t.Fatalf("extras incomplete: %d / %d / %d",
			len(decoded.CaseStudies), len(decoded.Randomized), len(decoded.WindowScale))
	}
}

// TestBackendsDabaBeatsRotating is the CI smoke for the backend
// head-to-head: on wordcount at a wide fixed width, the DABA queue must
// beat the rotating tree on per-slide merge count and allocate no more
// than it does (to 1 %, both under a pinned ceiling), its merge count must
// respect the worst-case constant bound at every width, and the rotating
// tree's must grow with the window — the O(1) vs O(log w) separation
// BENCH_daba.json records.
func TestBackendsDabaBeatsRotating(t *testing.T) {
	res, text, err := RunBackends(Quick())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", text)
	windows := backendWindows(Quick())
	// Worst-case constant bound at every width: ≤5 combines per slide
	// plus the root query, per partition, independent of the window.
	bound := 6.0 * float64(Quick().Partitions)
	for _, w := range windows {
		daba, ok := res.Find("daba", w)
		if !ok {
			t.Fatalf("missing daba cell at window %d", w)
		}
		if daba.MergesPerSlide > bound {
			t.Errorf("window %d: daba merges/slide %.1f exceeds constant bound %.1f",
				w, daba.MergesPerSlide, bound)
		}
	}
	// At the wide fixed width the asymptotics dominate: daba wins on
	// merges. (At the narrowest window the rotating tree's root path is
	// only a few levels deep — that is the crossover the sweep exists to
	// show.)
	wide := windows[len(windows)-1]
	daba, _ := res.Find("daba", wide)
	rot, ok := res.Find("rotating", wide)
	if !ok {
		t.Fatalf("missing rotating cell at window %d", wide)
	}
	if daba.MergesPerSlide >= rot.MergesPerSlide {
		t.Errorf("window %d: daba merges/slide %.1f not below rotating %.1f",
			wide, daba.MergesPerSlide, rot.MergesPerSlide)
	}
	// Allocations. While a merge built a hash map, the backend with fewer
	// merges allocated less (347.6 against 354.4 per slide at this width)
	// and the check here was daba < rotating. A merge-join allocates its
	// output slice and one scratch pair, whatever it joins (pinned per
	// merge in mapreduce's TestMergeAndReduceAllocs), which leaves the
	// job's own combiner boxing every sum past 255 in the balance: DABA
	// runs 2.5 merges fewer per slide (5 allocations) but joins wider
	// aggregates, whose sums are larger (18.9 boxes per slide against
	// 13.5), and the two cancel: 279.7 against 279.3. So both backends are
	// held under one pinned ceiling, ~5 % over what they measure — which
	// the map-based merges miss by 50 — and DABA to within 1 % of the
	// rotating tree.
	const allocCeiling = 294
	for _, c := range []BackendCell{daba, rot} {
		if c.AllocsPerSlide > allocCeiling {
			t.Errorf("window %d: %s allocs/slide %.1f over the pinned ceiling %d",
				wide, c.Backend, c.AllocsPerSlide, allocCeiling)
		}
	}
	if daba.AllocsPerSlide > 1.01*rot.AllocsPerSlide {
		t.Errorf("window %d: daba allocs/slide %.1f more than 1%% over rotating %.1f",
			wide, daba.AllocsPerSlide, rot.AllocsPerSlide)
	}
	// The rotating tree's per-slide merges grow with the window; DABA's
	// stay bounded (checked above), so the gap widens.
	rotFirst, _ := res.Find("rotating", windows[0])
	if rot.MergesPerSlide <= rotFirst.MergesPerSlide {
		t.Errorf("rotating merges/slide did not grow with the window: %.1f at %d vs %.1f at %d",
			rot.MergesPerSlide, wide, rotFirst.MergesPerSlide, windows[0])
	}
}

// TestWriteBackendsJSON checks the BENCH_daba.json document shape.
func TestWriteBackendsJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBackendsJSON(&buf, Quick()); err != nil {
		t.Fatal(err)
	}
	var res BackendsResult
	if err := json.Unmarshal(buf.Bytes(), &res); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if res.App != "wordcount" || len(res.Cells) != 2*len(backendWindows(Quick())) {
		t.Fatalf("unexpected document: app=%q cells=%d", res.App, len(res.Cells))
	}
}
