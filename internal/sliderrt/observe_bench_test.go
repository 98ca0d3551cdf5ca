package sliderrt

import (
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"testing"
	"time"

	"slider/internal/cpuclock"
	"slider/internal/israce"
	"slider/internal/mapreduce"
	"slider/internal/metrics"
)

// obsBenchBackends are the backend configurations the tracing-off
// overhead bound is pinned on: the Variable-mode folding tree (the
// original pin), the Fixed-mode O(1) DABA fast path, the rotating
// contraction tree, and the out-of-order finger tree. Each returns a
// fresh Config because New mutates some knobs in place.
func obsBenchBackends() []struct {
	name string
	cfg  func() Config
} {
	return []struct {
		name string
		cfg  func() Config
	}{
		{"folding", func() Config {
			return Config{Mode: Variable, Memo: testMemoConfig()}
		}},
		{"daba", func() Config {
			return Config{Mode: Fixed, BucketSplits: 1, WindowBuckets: 8, Memo: testMemoConfig()}
		}},
		{"rotating", func() Config {
			return Config{Mode: Fixed, Backend: BackendRotating, BucketSplits: 1, WindowBuckets: 8, Memo: testMemoConfig()}
		}},
		{"fingertree", func() Config {
			return Config{Mode: Fixed, BucketSplits: 1, WindowBuckets: 8, AllowedLateness: 1, Memo: testMemoConfig()}
		}},
	}
}

// benchmarkSlides measures steady-state Advance latency on cfg with the
// given instrumentation bundle (nil = the Config.Obs-unset path).
func benchmarkSlides(b *testing.B, cfg Config, obs *metrics.SlideObs) {
	job := wordCountJob()
	cfg.Obs = obs
	rt, err := New(job, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := rt.Initial(genSplits(0, 8, 4, 7)); err != nil {
		b.Fatal(err)
	}
	adds := make([][]mapreduce.Split, b.N)
	for i := range adds {
		adds[i] = genSplits(8+i, 1, 4, 7)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.Advance(1, adds[i]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSlideObs runs <backend>/<level> sub-benchmarks over every
// pinned backend and instrumentation level.
func BenchmarkSlideObs(b *testing.B) {
	offObs := func() *metrics.SlideObs {
		o := metrics.NewSlideObs()
		o.Tracer.SetMode(metrics.TraceOff, 0)
		return o
	}
	sampledObs := func() *metrics.SlideObs {
		o := metrics.NewSlideObs()
		o.Tracer.SetMode(metrics.TraceSampled, 16)
		return o
	}
	for _, be := range obsBenchBackends() {
		be := be
		b.Run(be.name, func(b *testing.B) {
			b.Run("None", func(b *testing.B) { benchmarkSlides(b, be.cfg(), nil) })
			b.Run("Off", func(b *testing.B) { benchmarkSlides(b, be.cfg(), offObs()) })
			b.Run("Sampled", func(b *testing.B) { benchmarkSlides(b, be.cfg(), sampledObs()) })
			b.Run("Full", func(b *testing.B) { benchmarkSlides(b, be.cfg(), metrics.NewSlideObs()) })
		})
	}
}

// TestObsOffOverhead pins the acceptance bound on every backend: with
// tracing off, the instrumented slide path (histogram observations,
// nil-span checks, the snapshot request check) must cost < 2% over
// running with no Obs at all, and allocate exactly what it allocates.
//
// The host this runs on changes speed by the second and hands the CPU to
// someone else for milliseconds at a time; a slide takes tens of
// microseconds. So the two arms are two runtimes advanced in lockstep —
// the same slide on one, then on the other, the order alternating — each
// Advance timed on the process CPU clock, which does not advance while
// the process waits for a CPU. A slow second slows both arms of thousands
// of pairs alike, and a stolen slice lands in the tail of the per-slide
// off/none ratios, not in their median. But the ratios are bimodal by which
// arm ran the slide first — the first of a pair pays some 4 % more, whichever
// it is, against the ~1.5 % being measured — so a pooled median sits on the
// seam between the two modes. The verdict is the geometric mean of the two
// per-order medians (off first, off second): a cost the order adds to
// either arm appears once as a factor and once as its inverse, and cancels.
// Each Advance also runs the previous slide's upkeep, on both arms alike.
//
// Under the race detector the test runs all the same, against what the
// detector leaves measurable. It turns each of the off path's atomic
// operations (three per histogram observation, the tracer's mode and
// sequence, the active-span stores) into a call into its runtime, which
// the none arm has none of: the same median reads 3.0–3.6 % there on every
// backend, run after run, against 1.0–1.5 % without it, so the budget
// under the detector is 5 % — a span allocated or a lock taken on the off
// path costs several times that. The allocation bound is the same with
// and without it.
func TestObsOffOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive; skipped in -short")
	}
	budget := 1.02
	if israce.Enabled {
		budget = 1.05
	}
	_, clockErr := cpuclock.Process(0)
	job := wordCountJob()
	const slides = 400
	initial := genSplits(0, 8, 4, 7)
	adds := make([][]mapreduce.Split, slides)
	for i := range adds {
		adds[i] = genSplits(8+i, 1, 4, 7)
	}

	for _, be := range obsBenchBackends() {
		be := be
		t.Run(be.name, func(t *testing.T) {
			obs := metrics.NewSlideObs() // one bundle for every off arm, as a process has
			obs.Tracer.SetMode(metrics.TraceOff, 0)
			start := func(obs *metrics.SlideObs) *Runtime {
				cfg := be.cfg()
				cfg.Obs = obs
				rt, err := New(job, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := rt.Initial(initial); err != nil {
					t.Fatal(err)
				}
				return rt
			}
			slide := func(rt *Runtime, i int) time.Duration {
				begin, _ := cpuclock.Process(0)
				if _, err := rt.Advance(1, adds[i]); err != nil {
					t.Fatal(err)
				}
				end, _ := cpuclock.Process(0)
				return end - begin
			}

			// Allocations: the off path adds none. Both arms allocate the
			// same up to what hash seeds make wander (a few allocations
			// in hundreds of slides), so their mean counts per slide must
			// agree to within half an allocation; anything the off path
			// allocated would add a whole one. What a slide finds in a
			// sync.Pool — the map task's scratch — must not differ
			// between the arms either, and under the race detector a pool
			// drops a quarter of what it is handed, at random: two
			// collections before each slide empty every pool, so each
			// slide of each arm starts from none.
			allocs := func(obs *metrics.SlideObs) float64 {
				rt := start(obs)
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := range adds {
					runtime.GC()
					runtime.GC()
					slide(rt, i)
				}
				runtime.ReadMemStats(&after)
				return float64(after.Mallocs-before.Mallocs) / slides
			}
			if none, off := allocs(nil), allocs(obs); off-none > 0.5 || none-off > 0.5 {
				t.Errorf("%s: %.2f allocs/slide with tracing off, %.2f with no Obs", be.name, off, none)
			} else {
				t.Logf("%s: %.2f allocs/slide with tracing off, %.2f with no Obs", be.name, off, none)
			}
			if clockErr != nil {
				t.Skipf("no process CPU clock to time the arms on: %v", clockErr)
			}

			// ratios[0] holds the slides the none arm ran first, ratios[1]
			// those the off arm ran first.
			var ratios [2][]float64
			median := func(xs []float64) float64 {
				sort.Float64s(xs)
				return xs[len(xs)/2]
			}
			measure := func(rounds int) float64 {
				for r := 0; r < rounds; r++ {
					none, off := start(nil), start(obs)
					// The CPU clock counts the collector's threads, and a
					// cycle that happens to run during one arm's slide is
					// not that arm's cost: both allocate the same (asserted
					// above), so the collector sits a round out.
					runtime.GC()
					gcPercent := debug.SetGCPercent(-1)
					for i := 0; i < slides; i++ {
						var tNone, tOff time.Duration
						if i%2 == 0 {
							tNone, tOff = slide(none, i), slide(off, i)
						} else {
							tOff, tNone = slide(off, i), slide(none, i)
						}
						ratios[i%2] = append(ratios[i%2], float64(tOff)/float64(tNone))
					}
					debug.SetGCPercent(gcPercent)
				}
				return math.Sqrt(median(ratios[0]) * median(ratios[1]))
			}
			ratio := measure(5) // the first round also pages in code and memo structures
			for retries := 0; ratio > budget && retries < 2; retries++ {
				// More rounds before declaring a regression: a noisy run
				// must not fail CI, a real regression keeps reproducing.
				ratio = measure(10)
			}
			n := len(ratios[0]) + len(ratios[1])
			t.Logf("%s obs-off overhead: off/none over %d slides = %.4f (median %.4f with none first, %.4f with off first)",
				be.name, n, ratio, median(ratios[0]), median(ratios[1]))
			if ratio > budget {
				t.Fatalf("%s: tracing-off overhead %.2f%% exceeds the %.0f%% budget (geometric mean of the per-order medians of %d slides)",
					be.name, (ratio-1)*100, (budget-1)*100, n)
			}
		})
	}
}
