package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"slider/internal/dist"
	"slider/internal/mapreduce"
	"slider/internal/metrics"
	"slider/internal/sliderrt"
	"slider/internal/stream"
)

// limits bounds one run. The benchmark stops on the clock; the tier-1
// test stops on a slide count so that two runs cover the same slides.
type limits struct {
	seconds   float64
	maxSlides int // 0 = stop on the clock only
	warmup    int // slides discarded before measuring
	setups    int // set-ups timed for setup_s
}

// calibrateEvery is the CPU time of slides between two runs of the
// reference, which costs about 5 ms: a tenth of a run goes to learning how
// fast the host is, in a few hundred samples spread over it.
const calibrateEvery = 50 * time.Millisecond

// epoch is the event time of the first record of a time window; any
// multiple of the slide period works.
var epoch = time.Unix(1_700_000_000, 0)

// driver pushes a workload's record stream through one stream driver, one
// record per Push, in groups: every record of a group but the last only
// fills a buffer, and the last one makes the window slide.
type driver struct {
	w     *workloadData
	cw    *stream.CountWindow
	tw    *stream.TimeWindow
	pool  *dist.Pool // nil when map tasks run in-process
	stop  func()     // closes the pool and stops its workers
	clock *clock

	spawnMs float64       // wall time it took to start the workers
	born    time.Duration // the clock once the workers were up: where set-up time starts

	pos    int // stream index of the next record to push
	closed int // buckets pushed in full; the newest window is buckets [closed-windowBuckets, closed)
	cur    int // time windows: the period holding record pos-1

	// Filled in by the sink.
	outputs  int
	last     mapreduce.Output
	emitted  []stamp
	spaceSum int64

	// Traced run only.
	counters slideCounters
	perSlide func(*sliderrt.RunResult)
	rec      *recorder // set while a firing Push is inside its span
	fireSpan int
	died     <-chan error
}

// slideCounters sums the exact per-slide counters of sliderrt.RunResult.
type slideCounters struct {
	slides, merges, combines, nodesRecomputed, mapTasks, reduceCalls int64
}

// stamp is one moment on the wall clock and on the benchmark's clock.
type stamp struct {
	wall time.Time
	cpu  time.Duration
}

func (d *driver) stamp() stamp { return stamp{time.Now(), d.clock.now()} }

func (d *driver) sink(o stream.Output) error {
	d.emitted = append(d.emitted, d.stamp())
	if d.rec != nil {
		defer d.rec.end(d.rec.begin("bench.sink", d.fireSpan, o.SlideID))
	}
	d.outputs++
	d.last = o.Result.Output
	d.spaceSum += o.Result.SpaceBytes
	if d.perSlide != nil {
		d.perSlide(o.Result)
	}
	return nil
}

// newDriver builds the stream driver, and for a dist workload the workers
// and the pool in front of it. obs is nil except in the traced run.
func newDriver(w *workloadData, spawn spawnFunc, obs *metrics.SlideObs, ref *reference) (*driver, error) {
	d := &driver{w: w, stop: func() {}, clock: &clock{ref: ref}}
	var cfg sliderrt.Config
	cfg.Obs = obs
	if spawn != nil {
		begin := time.Now()
		ws, err := spawn(2)
		if err != nil {
			return nil, err
		}
		d.spawnMs = float64(time.Since(begin).Nanoseconds()) / 1e6
		pool, err := dist.NewPool(wordCountJobName, ws.addrs)
		if err != nil {
			ws.stop()
			return nil, fmt.Errorf("dial workers: %w", err)
		}
		d.pool = pool
		d.died = ws.died
		d.clock.pids = ws.pids
		d.stop = func() { pool.Close(); ws.stop() }
		cfg.MapRunner = pool
	}
	d.born = d.clock.now()
	var err error
	if w.timed() {
		tc := w.timeConfig()
		tc.Config = cfg
		d.tw, err = stream.NewTimeWindow(tc, d.sink)
	} else {
		cc := w.countConfig()
		cc.Config = cfg
		d.cw, err = stream.NewCountWindow(cc, d.sink)
	}
	if err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

func (d *driver) runtime() *sliderrt.Runtime {
	if d.tw != nil {
		return d.tw.Runtime()
	}
	return d.cw.Runtime()
}

// nextGroup returns the stream index one past the next firing record and
// the windows its Push must deliver. A count window fires on the record
// that completes a slide. A time window learns that a period is over from
// the first record of a later one, and that Push also closes every empty
// period in between.
func (d *driver) nextGroup() (end, windows int) {
	w := d.w
	if !w.timed() {
		if d.closed == 0 {
			return w.start(w.windowBuckets), 1
		}
		return w.start(d.closed + 1), 1
	}
	from := d.closed // the period whose first record fired last
	if from == 0 {
		from = w.windowBuckets - 1 // the first window needs periods [0, windowBuckets) closed
	}
	q := from + 1
	for w.bucketLen(q) == 0 {
		q++
	}
	if d.closed == 0 {
		return w.start(q) + 1, q - w.windowBuckets + 1
	}
	return w.start(q) + 1, q - d.closed
}

func (d *driver) push() error {
	i := d.pos
	d.pos++
	if d.tw == nil {
		return d.cw.Push(d.w.record(i))
	}
	for i >= d.w.start(d.cur+1) {
		d.cur++
	}
	lo := d.w.start(d.cur)
	at := epoch.Add(time.Duration(d.cur)*d.w.slide + time.Duration(i-lo)*d.w.slide/time.Duration(d.w.bucketLen(d.cur)))
	return d.tw.Push(stream.TimedRecord{At: at, Record: d.w.record(i)})
}

// fill pushes the non-firing records of the next group and returns the
// windows its last record is due to deliver.
func (d *driver) fill() (windows int, err error) {
	end, windows := d.nextGroup()
	for d.pos < end-1 {
		if err := d.push(); err != nil {
			return 0, err
		}
	}
	return windows, nil
}

// latencies holds, per window delivered, the milliseconds from the start
// of the Push that delivered it to its emission at the sink, on the wall
// clock and on the benchmark's.
type latencies struct{ wall, cpu []float64 }

// fire pushes the firing record and reports how many windows were missing
// or extra. The latencies of the delivered windows are appended to lat when
// lat is non-nil.
func (d *driver) fire(windows int, lat *latencies) (wrong int, err error) {
	before := d.outputs
	d.emitted = d.emitted[:0]
	start := d.stamp()
	if err := d.push(); err != nil {
		return 0, err
	}
	if lat != nil {
		for _, t := range d.emitted {
			lat.wall = append(lat.wall, float64(t.wall.Sub(start.wall).Nanoseconds())/1e6)
			lat.cpu = append(lat.cpu, float64(t.cpu-start.cpu)/1e6)
		}
	}
	if d.w.timed() {
		d.closed = d.cur
	} else if d.closed == 0 {
		d.closed = d.w.windowBuckets
	} else {
		d.closed++
	}
	return abs(d.outputs - before - windows), nil
}

// slideOnce runs one whole group.
func (d *driver) slideOnce(lat *latencies) (windows, wrong int, err error) {
	windows, err = d.fill()
	if err != nil {
		return 0, 0, err
	}
	wrong, err = d.fire(windows, lat)
	return windows, wrong, err
}

// firstWindow pushes until the first window comes out: the initial run.
func (d *driver) firstWindow() error {
	if _, wrong, err := d.slideOnce(nil); err != nil || wrong != 0 {
		return fmt.Errorf("set-up: first window not delivered (err=%v)", err)
	}
	return nil
}

// aligned reports whether the stream stands at a schedule block boundary,
// where per-slide means are comparable from run to run.
func (d *driver) aligned() bool { return d.closed%d.w.block == 0 }

// warm discards n slides, then goes on to the next block boundary.
func (d *driver) warm(n int) error {
	for i := 0; i < n || !d.aligned(); {
		windows, _, err := d.slideOnce(nil)
		if err != nil {
			return err
		}
		i += windows
	}
	return nil
}

// checkOracle recomputes the newest window from scratch and compares it
// with the last output the sink received.
func (d *driver) checkOracle() error {
	w := d.w
	splits := w.windowSplitsOf(d.closed-w.windowBuckets, d.closed)
	want, err := mapreduce.RunScratch(w.job, splits, 0, nil)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	if len(want) != len(d.last) {
		return fmt.Errorf("oracle: window has %d keys, sink got %d", len(want), len(d.last))
	}
	for k, v := range want {
		got, ok := d.last[k]
		if !ok || !sameValue(v, got, w.floatOutput) {
			return fmt.Errorf("oracle: key %q: want %v, got %v", k, v, got)
		}
	}
	return nil
}

// sameValue compares exactly, except K-Means means: their float sums
// depend on the order the tree adds them in, so each coordinate may differ
// by 1e-9 relative.
func sameValue(want, got mapreduce.Value, float bool) bool {
	if !float {
		return want == got
	}
	a, aok := want.([]float64)
	b, bok := got.([]float64)
	if !aok || !bok || len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9*math.Max(math.Abs(a[i]), math.Abs(b[i])) {
			return false
		}
	}
	return true
}

// outcome is what a run reports besides its metrics.
type outcome struct {
	attempted, failed int
	errs              []string
	host              hostState
}

func (o *outcome) fail(n int, format string, args ...any) {
	o.failed += n
	if len(o.errs) < 8 {
		o.errs = append(o.errs, fmt.Sprintf(format, args...))
	}
}

// runEndToEnd is the measured run: set-up, warm-up, the measured phase
// with tracing and Config.Obs off, and the oracle. Every timing is taken on
// the benchmark's clock and scaled to the reference (see clock).
func runEndToEnd(ctx context.Context, w *workloadData, spawn spawnFunc, lim limits, ref *reference) ([]sample, *outcome, error) {
	// Set-up, several times over: construction (with the pool dial, once
	// the workers are up) through the first window output. The reference
	// runs after each; the last driver is kept. The collection before each
	// keeps the previous driver's garbage off this one's clock.
	var d *driver
	var setupS, setupRef []float64
	for i := 0; i < lim.setups; i++ {
		if d != nil {
			d.stop()
			d = nil
		}
		runtime.GC()
		var err error
		if d, err = newDriver(w, spawn, nil, ref); err != nil {
			return nil, nil, err
		}
		if err := d.firstWindow(); err != nil {
			d.stop()
			return nil, nil, err
		}
		setupS = append(setupS, (d.clock.now() - d.born).Seconds())
		for j := 0; j < 3; j++ {
			d.clock.calibrate()
		}
		setupRef = append(setupRef, d.clock.samples...)
		if d.clock.err != nil {
			d.stop()
			return nil, nil, d.clock.err
		}
	}
	defer d.stop()
	if err := d.warm(lim.warmup); err != nil {
		return nil, nil, err
	}

	out := &outcome{}
	var m0, m1 runtime.MemStats
	d.spaceSum = 0
	runtime.GC()
	runtime.ReadMemStats(&m0)
	ph, err := d.measure(ctx, lim, nil, out)
	if err != nil {
		return nil, nil, err
	}
	runtime.ReadMemStats(&m1)
	out.attempted++
	if out.failed == 0 {
		if err := d.checkOracle(); err != nil {
			out.fail(1, "%v", err)
		}
	}
	if d.pool != nil {
		if r := d.pool.Retries(); r != 0 {
			out.fail(int(r), "dist: %d retries", r)
		}
	}
	n := len(ph.lat.cpu)
	if n == 0 {
		return nil, out, fmt.Errorf("no window was delivered")
	}
	out.host = ph.host()
	sort.Float64s(ph.lat.cpu)
	return []sample{
		{"records_per_s", float64(ph.records) / (ph.cpu * ph.scale()), ph.records},
		{"slide_p50_ms", quantile(ph.lat.cpu, 0.50) * ph.scale(), n},
		{"slide_p95_ms", quantile(ph.lat.cpu, 0.95) * ph.scale(), n},
		{"allocs_per_slide", float64(m1.Mallocs-m0.Mallocs) / float64(n), n},
		{"alloc_kb_per_slide", float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(n), n},
		{"state_mb", float64(d.spaceSum) / float64(n) / (1 << 20), n},
		{"setup_s", median(setupS) * referenceMs / median(setupRef), len(setupS)},
	}, out, nil
}

// alive reports a worker that ended early, a clock that could not be read
// or a cancelled run.
func (d *driver) alive(ctx context.Context) error {
	select {
	case err := <-d.died:
		return err
	default:
	}
	if d.clock.err != nil {
		return d.clock.err
	}
	return ctx.Err()
}

// quantile reads the q-quantile off a sorted slice (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
