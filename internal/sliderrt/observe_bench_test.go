package sliderrt

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
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
func obsBenchBackends() []obsBenchBackend {
	return []obsBenchBackend{
		{"folding", func() Config {
			return Config{Mode: Variable, Memo: testMemoConfig()}
		}, 2.72, 4.71},
		{"daba", func() Config {
			return Config{Mode: Fixed, BucketSplits: 1, WindowBuckets: 8, Memo: testMemoConfig()}
		}, 2.77, 4.65},
		{"rotating", func() Config {
			return Config{Mode: Fixed, Backend: BackendRotating, BucketSplits: 1, WindowBuckets: 8, Memo: testMemoConfig()}
		}, 2.59, 3.97},
		{"fingertree", func() Config {
			return Config{Mode: Fixed, BucketSplits: 1, WindowBuckets: 8, AllowedLateness: 1, Memo: testMemoConfig()}
		}, 2.97, 4.57},
	}
}

// obsBenchBackend is one configuration of obsBenchBackends. refs and
// raceRefs size TestObsOffOverhead's budget: the median none-arm slide of
// that test, in references, without and with the race detector, taken over
// ten runs of the engine the bound was set on.
type obsBenchBackend struct {
	name           string
	cfg            func() Config
	refs, raceRefs float64
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
// nil-span checks, the snapshot request check) must cost at most a fixed
// amount of work more than running with no Obs at all, and allocate
// exactly what it allocates.
//
// The host this runs on changes speed by the second and hands the CPU to
// someone else for milliseconds at a time; a slide takes tens of
// microseconds. So the two arms are two runtimes advanced in lockstep —
// the same slide on one, then on the other, the order alternating, each
// arm mapping its own copy of the input — each
// Advance timed on the process CPU clock, which does not advance while
// the process waits for a CPU, and after each pair a fixed reference
// (overheadReference) is timed the same way. A slow second slows both arms
// and the reference of thousands of triples alike, and a stolen slice
// lands in the tail of the per-slide differences, not in their median. The
// differences off − none are bimodal by which arm ran the slide first — the
// first of a pair pays some 4 % of a slide more, whichever it is, against
// the ~1.5 % being measured — so the verdict is the mean of the two
// per-order medians (none first, off first), in which a cost the order adds
// to either arm appears once with each sign and cancels, divided by the
// reference's median time. Each Advance also runs the previous slide's
// upkeep, on both arms alike.
//
// The budget is a fixed amount of work, not a share of a slide: a slide
// made cheaper elsewhere must not make the same off path fail. It is 2 %
// of the median none-arm slide, in references, of the engine the bound was
// last set on — the one whose memo store still had 64 shards and atomic
// counters, and whose slides ran 5–10 % longer (each backend's refs: the
// median over ten runs of this test there). So it is the 2 % bound in
// nanoseconds at that slide length, and the host's speed scales both sides
// of the comparison.
//
// Under the race detector the test runs all the same, against what the
// detector leaves measurable. It turns each of the off path's atomic
// operations (three per histogram observation, the tracer's mode and
// sequence, the active-span stores) into a call into its runtime, which
// the none arm has none of: the off path reads 2.7–3.3 % of a slide there
// on every backend, run after run, against 1.3–1.6 % without it, so the
// budget under the detector is 5 % of the slide — in references measured
// under the detector (raceRefs) — and a span allocated or a lock taken on
// the off path costs several times that. The allocation bound is the same
// with and without it.
func TestObsOffOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive; skipped in -short")
	}
	_, clockErr := cpuclock.Process(0)
	job := wordCountJob()
	const slides = 400
	// Each arm maps its own copy of the input, the same records in storage
	// of its own: an arm that read records the other had just read would
	// find them in cache, whichever of the two ran second.
	type input struct {
		initial []mapreduce.Split
		adds    [][]mapreduce.Split
	}
	newInput := func() *input {
		in := &input{initial: genSplits(0, 8, 4, 7), adds: make([][]mapreduce.Split, slides)}
		for i := range in.adds {
			in.adds[i] = genSplits(8+i, 1, 4, 7)
		}
		return in
	}
	noneIn, offIn := newInput(), newInput()
	ref := newOverheadReference()

	for _, be := range obsBenchBackends() {
		be := be
		t.Run(be.name, func(t *testing.T) {
			share, slideRefs := 0.02, be.refs
			if israce.Enabled {
				share, slideRefs = 0.05, be.raceRefs
			}
			budget := share * slideRefs
			obs := metrics.NewSlideObs() // one bundle for every off arm, as a process has
			obs.Tracer.SetMode(metrics.TraceOff, 0)
			// An arm is a runtime and the input it maps: the none arm's
			// (obs nil) or the off arm's.
			type arm struct {
				rt *Runtime
				in *input
			}
			start := func(obs *metrics.SlideObs) arm {
				cfg := be.cfg()
				cfg.Obs = obs
				rt, err := New(job, cfg)
				if err != nil {
					t.Fatal(err)
				}
				in := offIn
				if obs == nil {
					in = noneIn
				}
				if _, err := rt.Initial(in.initial); err != nil {
					t.Fatal(err)
				}
				return arm{rt, in}
			}
			timed := func(f func()) time.Duration {
				begin, _ := cpuclock.Process(0)
				f()
				end, _ := cpuclock.Process(0)
				return end - begin
			}
			slide := func(a arm, i int) time.Duration {
				return timed(func() {
					if _, err := a.rt.Advance(1, a.in.adds[i]); err != nil {
						t.Fatal(err)
					}
				})
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
				a := start(obs)
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := range slides {
					runtime.GC()
					runtime.GC()
					slide(a, i)
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

			// diffs[0] holds off − none of the slides the none arm ran
			// first, diffs[1] of those the off arm ran first; nones and
			// refs hold the none arm's and the reference's times.
			var diffs [2][]float64
			var nones, refs []float64
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
						diffs[i%2] = append(diffs[i%2], float64(tOff-tNone))
						nones = append(nones, float64(tNone))
						refs = append(refs, float64(timed(ref.run)))
					}
					debug.SetGCPercent(gcPercent)
				}
				return (median(diffs[0]) + median(diffs[1])) / 2 / median(refs)
			}
			cost := measure(10) // the first round also pages in code and memo structures
			for retries := 0; cost > budget && retries < 2; retries++ {
				// More rounds before declaring a regression: a noisy run
				// must not fail CI, a real regression keeps reproducing.
				cost = measure(15)
			}
			n := len(nones)
			t.Logf("%s obs-off overhead over %d slides: %.4f references a slide (off − none %.0f ns with none first, %.0f ns with off first; reference %.0f ns; none arm %.2f references), budget %.4f",
				be.name, n, cost, median(diffs[0]), median(diffs[1]), median(refs), median(nones)/median(refs), budget)
			if cost > budget {
				t.Fatalf("%s: tracing-off overhead %.4f references a slide exceeds the budget of %.4f (%.0f%% of a %.2f-reference slide; mean of the per-order medians of %d slides)",
					be.name, cost, budget, share*100, slideRefs, n)
			}
		})
	}
}

// overheadReference is the fixed work TestObsOffOverhead reads its slide
// timings against, a small copy of the benchmark's: each run counts the
// words of the next 16 of 512 seven-word lines (drawn from a Zipf
// distribution over 2048 words), looks every counted word up in the counts
// of all the lines, and sorts the result's keys. It hashes and compares
// strings and walks maps and a slice as a slide does, so what slows the
// host slows it as much; a loop over a handful of map keys tracked slides
// too loosely (its ratio to a slide wandered by half from run to run).
// Once built it allocates nothing.
type overheadReference struct {
	lines               []string
	base, delta, merged map[string]int64
	keys                []string
	next                int // first line of the next run
}

func newOverheadReference() *overheadReference {
	rng := rand.New(rand.NewSource(0x6f6273))
	zipf := rand.NewZipf(rng, 1.2, 1, 2047)
	r := &overheadReference{base: map[string]int64{}, delta: map[string]int64{}, merged: map[string]int64{}}
	for range 512 {
		words := make([]string, 7)
		for j := range words {
			words[j] = fmt.Sprintf("w%04d", zipf.Uint64())
		}
		line := strings.Join(words, " ")
		r.lines = append(r.lines, line)
		countWords(line, r.base)
	}
	for range len(r.lines) / 16 {
		r.run() // grows the maps and the key slice to their final size
	}
	return r
}

func (r *overheadReference) run() {
	clear(r.delta)
	for i := range 16 {
		countWords(r.lines[(r.next+i)%len(r.lines)], r.delta)
	}
	r.next = (r.next + 16) % len(r.lines)
	clear(r.merged)
	for w, n := range r.delta {
		r.merged[w] = r.base[w] + n
	}
	r.keys = r.keys[:0]
	for w := range r.merged {
		r.keys = append(r.keys, w)
	}
	sort.Strings(r.keys)
}

// countWords adds the space-separated words of line to counts without
// allocating: a word already counted is found by a substring of line.
func countWords(line string, counts map[string]int64) {
	for line != "" {
		w, rest, _ := strings.Cut(line, " ")
		counts[w]++
		line = rest
	}
}
