package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"slider/internal/apps"
	"slider/internal/memo"
	"slider/internal/sliderrt"
	"slider/internal/workload"
)

// The backends experiment compares the Fixed-mode aggregation backends
// head-to-head on wordcount: the rotating contraction tree (O(log w)
// combines per slide, §4.1) against the DABA Lite queue (worst-case O(1)
// combines per slide). Both serve the same windows and the same slides;
// the experiment records per-slide foreground combines, merges, wall
// time, and heap allocations across a sweep of window widths, exposing
// the crossover the asymptotics predict: the rotating tree's per-slide
// cost grows with the window while DABA's stays flat.

// BackendCell is one (window, backend) measurement, normalized per slide.
type BackendCell struct {
	Backend          string  `json:"backend"`
	WindowBuckets    int     `json:"windowBuckets"`
	Slides           int     `json:"slides"`
	MergesPerSlide   float64 `json:"mergesPerSlide"`
	CombinesPerSlide float64 `json:"combinesPerSlide"`
	AllocsPerSlide   float64 `json:"allocsPerSlide"`
	NsPerSlide       float64 `json:"nsPerSlide"`
}

// BackendsResult is the full head-to-head sweep, serialized to
// BENCH_daba.json.
type BackendsResult struct {
	Scale      string        `json:"scale"`
	App        string        `json:"app"`
	Slides     int           `json:"slidesPerWindow"`
	Cells      []BackendCell `json:"cells"`
	DurationMs int64         `json:"durationMs"`
}

// backendWindows is the window-width axis (in buckets, one split per
// bucket). Wide enough that the rotating tree's log factor is visible.
func backendWindows(s Scale) []int {
	if s.WindowSplits >= 60 {
		return []int{8, 16, 32, 64, 128, 256}
	}
	return []int{8, 16, 32, 64}
}

// measureBackend drives one backend over one window width and returns its
// per-slide averages. Every slide replaces one bucket; the window never
// changes width, so the two backends see byte-identical schedules.
func measureBackend(s Scale, backend sliderrt.Backend, window, slides int) (BackendCell, error) {
	cell := BackendCell{Backend: backend.String(), WindowBuckets: window, Slides: slides}
	text := workload.NewText(s.Text)
	cfg := sliderrt.Config{
		Mode:          sliderrt.Fixed,
		Backend:       backend,
		BucketSplits:  1,
		WindowBuckets: window,
		Memo:          memo.DefaultConfig(),
	}
	rt, err := sliderrt.New(apps.WordCount(s.Partitions), cfg)
	if err != nil {
		return cell, err
	}
	if _, err := rt.Initial(text.Range(0, window)); err != nil {
		return cell, err
	}
	// Warm the memo store and size caches so the measured slides reflect
	// steady state, not first-touch costs.
	for i := 0; i < 2; i++ {
		if _, err := rt.Advance(1, text.Range(window+i, window+i+1)); err != nil {
			return cell, err
		}
	}
	next := window + 2

	var merges, combines int64
	quiesce()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < slides; i++ {
		res, err := rt.Advance(1, text.Range(next, next+1))
		if err != nil {
			return cell, err
		}
		next++
		// A result reports the previous slide's upkeep: over the measured
		// slides the sums are the structures' work, shifted by one.
		merges += res.TreeStats.Merges + res.TreeStatsBackground.Merges
		combines += res.Report.Counters.CombineCalls + res.Background.Counters.CombineCalls
	}
	elapsed := time.Since(start)
	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	n := float64(slides)
	cell.MergesPerSlide = float64(merges) / n
	cell.CombinesPerSlide = float64(combines) / n
	cell.AllocsPerSlide = float64(after.Mallocs-before.Mallocs) / n
	cell.NsPerSlide = float64(elapsed.Nanoseconds()) / n
	return cell, nil
}

// RunBackends measures the DABA-vs-rotating sweep and renders a text
// table.
func RunBackends(s Scale) (*BackendsResult, string, error) {
	start := time.Now()
	slides := 16
	if s.WindowSplits >= 60 {
		slides = 32
	}
	out := &BackendsResult{Scale: "quick", App: "wordcount", Slides: slides}
	if s.WindowSplits >= 60 {
		out.Scale = "full"
	}
	for _, w := range backendWindows(s) {
		for _, b := range []sliderrt.Backend{sliderrt.BackendDaba, sliderrt.BackendRotating} {
			cell, err := measureBackend(s, b, w, slides)
			if err != nil {
				return nil, "", fmt.Errorf("backends %s w=%d: %w", b, w, err)
			}
			out.Cells = append(out.Cells, cell)
		}
	}
	out.DurationMs = time.Since(start).Milliseconds()

	var sb strings.Builder
	sb.WriteString("Backends: DABA vs rotating tree, wordcount, per-slide averages\n")
	sb.WriteString("window   backend    merges  combines    allocs        ns\n")
	for _, c := range out.Cells {
		fmt.Fprintf(&sb, "%6d   %-8s %8.1f  %8.1f  %8.1f  %8.0f\n",
			c.WindowBuckets, c.Backend, c.MergesPerSlide, c.CombinesPerSlide, c.AllocsPerSlide, c.NsPerSlide)
	}
	return out, sb.String(), nil
}

// Find returns the cell for (backend, window), or false.
func (r *BackendsResult) Find(backend string, window int) (BackendCell, bool) {
	for _, c := range r.Cells {
		if c.Backend == backend && c.WindowBuckets == window {
			return c, true
		}
	}
	return BackendCell{}, false
}

// WriteBackendsJSON runs the sweep and writes BENCH_daba.json to w.
func WriteBackendsJSON(w io.Writer, s Scale) error {
	res, _, err := RunBackends(s)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}
