package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"time"

	"slider/internal/core"
	"slider/internal/mapreduce"
	"slider/internal/memo"
	"slider/internal/metrics"
	"slider/internal/persist"
	"slider/internal/sliderrt"
)

// exactSlides is how many slides the exact per-slide counters average
// over: a fixed stretch, so that they repeat from run to run however far
// the clock let the run go. A multiple of the bursty schedule block.
const exactSlides = 128

// runTraced is the traced run. A third of the time goes to an untraced
// stream run to compare with, a third to the same run on a fresh driver with
// Config.Obs and the span recorder on, and the rest to the probes, which
// call each layer's public functions on the stream's own splits.
func runTraced(ctx context.Context, w *workloadData, spawn spawnFunc, lim limits, sc scale, rec *recorder, ref *reference) ([]sample, *outcome, error) {
	out := &outcome{}
	lim.seconds /= 3

	// Untraced, for comparison.
	plain, err := newDriver(w, spawn, nil, ref)
	if err != nil {
		return nil, nil, err
	}
	plainPhase, err := plain.startAndMeasure(ctx, lim, nil, out)
	plain.stop()
	if err != nil {
		return nil, nil, err
	}

	// Traced: the runtime's own phase histograms (tracer off, as in
	// production) plus the benchmark's spans around every Push.
	obs := metrics.NewSlideObs()
	obs.Tracer.SetMode(metrics.TraceOff, 0)
	d, err := newDriver(w, spawn, obs, ref)
	if err != nil {
		return nil, nil, err
	}
	defer d.stop()
	var hits, misses int64
	d.perSlide = func(res *sliderrt.RunResult) {
		st := d.runtime().Store().Stats() // read counters restart with every run
		hits += st.Hits
		misses += st.Misses
		c := &d.counters
		if c.slides == exactSlides {
			return
		}
		c.slides++
		c.merges += res.TreeStats.Merges
		c.combines += res.Report.Counters.CombineCalls
		c.nodesRecomputed += res.TreeStats.NodesRecomputed
		c.mapTasks += res.Report.Counters.MapTasks
		c.reduceCalls += res.Report.Counters.ReduceCalls
	}
	ph, err := d.startAndMeasure(ctx, lim, rec, out)
	if err != nil {
		return nil, nil, err
	}
	out.attempted++
	if out.failed == 0 {
		if err := d.checkOracle(); err != nil {
			out.fail(1, "%v", err)
		}
	}
	lat, plainLat := ph.lat.wall, plainPhase.lat.wall
	if len(lat) == 0 || len(plainLat) == 0 {
		return nil, out, fmt.Errorf("no window was delivered")
	}

	// What the untraced stream run looked like on the wall clock, and the
	// state of the host that the end-to-end timings are scaled by.
	var s samples
	sort.Float64s(plainLat)
	out.host = plainPhase.host()
	s.add("host.reference_ms", out.host.ReferenceMs, len(plain.clock.samples))
	s.add("host.cpu_per_wall", out.host.CPUPerWall, len(plainLat))
	s.add("stream.wall_records_per_s", float64(plainPhase.records)/plainPhase.elapsed, plainPhase.records)
	s.add("stream.wall_p50_ms", quantile(plainLat, 0.50), len(plainLat))
	s.add("stream.wall_p95_ms", quantile(plainLat, 0.95), len(plainLat))

	slides := float64(len(lat))
	sort.Float64s(lat)
	s.add("stream.form_us_per_slide", sum(rec.byName("stream.form"))*1e3/slides, len(lat))
	s.add("stream.form_allocs_per_slide", float64(ph.formAllocs)/slides, len(lat))
	s.add("stream.fire_p99_ms", quantile(lat, 0.99), len(lat))

	hist := func(h *metrics.Histogram, before metrics.HistogramSnapshot) float64 {
		return float64(h.Snapshot().Sub(before).SumNs) / 1e6
	}
	mapMs, contractMs, reduceMs := hist(&obs.Map, ph.obsBefore[0]), hist(&obs.Contract, ph.obsBefore[1]), hist(&obs.Reduce, ph.obsBefore[2])
	slideMs := hist(&obs.Slide, ph.obsBefore[3])
	s.add("sliderrt.map_ms_per_slide", mapMs/slides, len(lat))
	s.add("sliderrt.contract_ms_per_slide", contractMs/slides, len(lat))
	s.add("sliderrt.reduce_ms_per_slide", reduceMs/slides, len(lat))
	s.add("sliderrt.unattributed_share", 1-(mapMs+contractMs+reduceMs)/slideMs, len(lat))
	c := d.counters
	n := float64(c.slides)
	s.add("sliderrt.merges_per_slide", float64(c.merges)/n, int(c.slides))
	s.add("sliderrt.combines_per_slide", float64(c.combines)/n, int(c.slides))
	s.add("sliderrt.nodes_recomputed_per_slide", float64(c.nodesRecomputed)/n, int(c.slides))
	s.add("sliderrt.map_tasks_per_slide", float64(c.mapTasks)/n, int(c.slides))
	s.add("sliderrt.reduce_calls_per_slide", float64(c.reduceCalls)/n, int(c.slides))
	s.add("sliderrt.obs_overhead_share", 1-(float64(ph.records)/ph.elapsed)/(float64(plainPhase.records)/plainPhase.elapsed), len(lat))
	s.add("memo.hit_ratio", ratio(float64(hits), float64(hits+misses)), int(hits+misses))
	s.add("memo.resident_mb", float64(d.runtime().Store().Stats().Bytes)/(1<<20), 1)

	p := &probe{w: w, rec: rec, out: out, s: &s, slides: sc.probeSlides}
	if err := p.run(ctx, d); err != nil {
		return nil, nil, err
	}
	// What a firing Push costs beyond the runtime's Advance inside it,
	// which the runtime's own slide histogram timed in the same call.
	s.add("stream.overhead_us_per_slide", (sum(rec.byName("stream.fire"))-slideMs)*1e3/slides, len(lat))
	s.add("sliderrt.speedup_vs_scratch", ratio(p.scratchMs, quantile(lat, 0.50)), len(lat))
	s.add("sliderrt.work_bound_ratio", p.workBoundRatio(float64(c.merges)/n), int(c.slides))
	return s.list, out, nil
}

// phase is what one measured stretch of a stream run yields.
type phase struct {
	records    int
	elapsed    float64   // wall seconds inside the slides
	cpu        float64   // seconds on the benchmark's clock inside the slides
	refMs      float64   // the reference's median cost during the stretch
	lat        latencies // one per window delivered
	formAllocs uint64    // traced run: mallocs in the non-firing pushes
	obsBefore  [4]metrics.HistogramSnapshot
}

// scale is what cpu and lat.cpu are multiplied by to state them as times
// on the reference host.
func (ph *phase) scale() float64 { return referenceMs / ph.refMs }

// host is the state the host was in during the stretch.
func (ph *phase) host() hostState {
	return hostState{ReferenceMs: ph.refMs, CPUPerWall: ph.cpu / ph.elapsed}
}

// startAndMeasure delivers the first window, warms up and measures.
func (d *driver) startAndMeasure(ctx context.Context, lim limits, rec *recorder, out *outcome) (phase, error) {
	if err := d.firstWindow(); err != nil {
		return phase{}, err
	}
	if err := d.warm(lim.warmup); err != nil {
		return phase{}, err
	}
	d.counters = slideCounters{}
	runtime.GC()
	return d.measure(ctx, lim, rec, out)
}

// measure slides the window until the wall clock (or the slide count) says
// stop, at a block boundary, and runs the reference between slides. With a
// recorder it also wraps the non-firing and the firing pushes of every
// slide in spans and counts the mallocs of the former.
func (d *driver) measure(ctx context.Context, lim limits, rec *recorder, out *outcome) (phase, error) {
	ph := phase{lat: latencies{make([]float64, 0, 1<<14), make([]float64, 0, 1<<14)}}
	if obs := d.runtime().Observability(); obs != nil {
		ph.obsBefore = [4]metrics.HistogramSnapshot{obs.Map.Snapshot(), obs.Contract.Snapshot(), obs.Reduce.Snapshot(), obs.Slide.Snapshot()}
	}
	d.clock.samples = d.clock.samples[:0]
	d.clock.calibrate()
	var sinceCalibration time.Duration
	startPos := d.pos
	start := time.Now()
	slides := 0
	var m0, m1 runtime.MemStats
	for {
		var windows, wrong int
		var err error
		before := d.stamp()
		if rec == nil {
			windows, wrong, err = d.slideOnce(&ph.lat)
		} else {
			id := uint64(d.outputs) + 1 // the runtime numbers its runs from 1
			root := rec.begin("bench.slide", -1, id)
			runtime.ReadMemStats(&m0)
			form := rec.begin("stream.form", root, id)
			windows, err = d.fill()
			rec.end(form)
			runtime.ReadMemStats(&m1)
			ph.formAllocs += m1.Mallocs - m0.Mallocs
			if err == nil {
				d.fireSpan = rec.begin("stream.fire", root, id)
				d.rec = rec
				wrong, err = d.fire(windows, &ph.lat)
				d.rec = nil
				rec.end(d.fireSpan)
			}
			rec.end(root)
		}
		after := d.stamp()
		ph.elapsed += after.wall.Sub(before.wall).Seconds()
		ph.cpu += (after.cpu - before.cpu).Seconds()
		out.attempted += windows
		if err != nil {
			out.fail(windows, "push: %v", err)
			break
		}
		if wrong != 0 {
			out.fail(wrong, "slide %d: %d windows missing or extra", slides, wrong)
		}
		slides += windows
		if d.aligned() && (time.Since(start).Seconds() >= lim.seconds || lim.maxSlides > 0 && slides >= lim.maxSlides) {
			break
		}
		if sinceCalibration += after.cpu - before.cpu; sinceCalibration >= calibrateEvery {
			d.clock.calibrate()
			sinceCalibration = 0
		}
		if err := d.alive(ctx); err != nil {
			return ph, err
		}
	}
	ph.records = d.pos - startPos
	ph.refMs = median(d.clock.samples)
	return ph, d.clock.err
}

// probe replays the start of the workload's stream — the first window and
// the slides after it — through each layer's public functions. The input
// does not depend on how far the timed runs got, so every count it reports
// repeats exactly for a seed.
type probe struct {
	w      *workloadData
	rec    *recorder
	out    *outcome
	s      *samples
	slides int

	mapped       [][]mapreduce.MapResult // the slides' in-process map results, by slide and split
	scratchMs    float64
	deltaLeaves  float64 // leaves dropped + added per slide
	windowLeaves float64
}

func (p *probe) run(ctx context.Context, d *driver) error {
	w := p.w
	wb := w.windowBuckets
	window := w.windowSplitsOf(0, wb)
	slides := make([][]mapreduce.Split, p.slides)
	for i := range slides {
		slides[i] = w.bucketSplits(wb + i)
	}
	if err := p.sliderrt(d, window, slides); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	leaves, nWindow, err := p.mapreduce(window, slides)
	if err != nil {
		return err
	}
	p.core(leaves, nWindow)
	p.memoAndCodec(slides)
	if d.pool != nil {
		if err := p.dist(d, slides); err != nil {
			return err
		}
	} else {
		for _, name := range []string{"dist.spawn_ms", "dist.runmap_ms_per_batch", "dist.overhead_share", "dist.wire_kb_per_slide", "dist.rpc_p95_ms", "dist.retries"} {
			p.s.add(name, 0, 0) // no batch went through dist
		}
	}
	return nil
}

// runtimeConfig is the sliderrt.Config the stream drivers derive from
// their own configuration.
func (p *probe) runtimeConfig(d *driver) sliderrt.Config {
	cfg := sliderrt.Config{Mode: sliderrt.Variable}
	if !p.w.timed() {
		cfg.Mode = sliderrt.Fixed
		cfg.BucketSplits = p.w.slideSplits
		cfg.WindowBuckets = p.w.windowBuckets
	}
	if d.pool != nil {
		cfg.MapRunner = d.pool
	}
	return cfg
}

// sliderrt drives a runtime directly over the pre-formed splits, then
// checkpoints and restores it.
func (p *probe) sliderrt(d *driver, window []mapreduce.Split, slides [][]mapreduce.Split) error {
	w := p.w
	cfg := p.runtimeConfig(d)
	rt, err := sliderrt.New(w.job, cfg)
	if err != nil {
		return err
	}
	root := p.rec.begin("bench.probe.sliderrt", -1, 0)
	defer p.rec.end(root)
	if _, err := rt.Initial(window); err != nil {
		return err
	}
	var dropped, added int
	for i, add := range slides {
		drop := len(add)
		if w.timed() {
			drop = len(w.bucketSplits(i)) // the period leaving the window
		}
		dropped += drop
		added += len(add)
		var err error
		p.rec.call("sliderrt.Advance", root, func() { _, err = rt.Advance(drop, add) })
		if err != nil {
			return fmt.Errorf("direct Advance: %w", err)
		}
	}
	adv := p.rec.byName("sliderrt.Advance")
	sort.Float64s(adv)
	p.s.add("sliderrt.advance_p50_ms", quantile(adv, 0.50), len(adv))

	// A Fixed window's tree leaves are buckets, a Variable window's are
	// splits.
	if w.timed() {
		p.deltaLeaves = float64(dropped+added) / float64(len(slides))
		p.windowLeaves = float64(len(window))
	} else {
		p.deltaLeaves = 2
		p.windowLeaves = float64(w.windowBuckets)
	}

	var buf bytes.Buffer
	p.rec.call("sliderrt.Checkpoint", root, func() { err = rt.Checkpoint(&buf) })
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	p.s.add("persist.checkpoint_ms", last(p.rec.byName("sliderrt.Checkpoint")), 1)
	p.s.add("persist.checkpoint_mb", float64(buf.Len())/(1<<20), 1)
	var restored *sliderrt.Runtime
	p.rec.call("sliderrt.Restore", root, func() { restored, err = sliderrt.Restore(w.job, cfg, &buf) })
	if err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	p.s.add("persist.restore_ms", last(p.rec.byName("sliderrt.Restore")), 1)
	p.out.attempted++
	if a, b := rt.StateFingerprint(), restored.StateFingerprint(); a != b {
		p.out.fail(1, "restore: state fingerprint %x, checkpointed %x", b, a)
	}
	return nil
}

// workBoundRatio divides the merges a partition did per slide by
// delta + log2(window), both in tree leaves.
func (p *probe) workBoundRatio(mergesPerSlide float64) float64 {
	return mergesPerSlide / float64(p.w.job.NumPartitions()) / (p.deltaLeaves + math.Log2(p.windowLeaves))
}

// mapreduce maps the slides in-process, folds and reduces partition 0's
// payloads, and recomputes the window from scratch. It returns partition
// 0's tree leaves in stream order, the first nWindow of them the window's.
func (p *probe) mapreduce(window []mapreduce.Split, slides [][]mapreduce.Split) (leaves []mapreduce.Payload, nWindow int, err error) {
	w := p.w
	root := p.rec.begin("bench.probe.mapreduce", -1, 0)
	defer p.rec.end(root)
	exec := mapreduce.Executor{}

	// Partition 0's leaves: one per bucket for a Fixed window (its splits
	// folded), one per split for a Variable one.
	toLeaves := func(results []mapreduce.MapResult) {
		var parts []mapreduce.Payload
		for _, r := range results {
			parts = append(parts, r.Parts[0])
		}
		if w.timed() {
			leaves = append(leaves, parts...)
			return
		}
		for len(parts) > 0 {
			bucket, _ := mapreduce.MergeOrderedK(w.job, parts[:w.slideSplits]...)
			leaves = append(leaves, bucket)
			parts = parts[w.slideSplits:]
		}
	}
	results, err := exec.RunMap(w.job, window)
	if err != nil {
		return nil, 0, err
	}
	toLeaves(results)
	nWindow = len(leaves)

	var m0, m1 runtime.MemStats
	var splits, pairs int
	runtime.ReadMemStats(&m0)
	p.mapped = make([][]mapreduce.MapResult, len(slides))
	for i, add := range slides {
		p.rec.call("mapreduce.RunMap", root, func() { p.mapped[i], err = exec.RunMap(w.job, add) })
		if err != nil {
			return nil, 0, err
		}
		splits += len(add)
	}
	runtime.ReadMemStats(&m1)
	for _, results := range p.mapped {
		for _, r := range results {
			for _, part := range r.Parts {
				pairs += len(part)
			}
		}
		toLeaves(results)
	}
	p.s.add("mapreduce.map_us_per_split", sum(p.rec.byName("mapreduce.RunMap"))*1e3/float64(splits), splits)
	p.s.add("mapreduce.map_allocs_per_split", float64(m1.Mallocs-m0.Mallocs)/float64(splits), splits)
	p.s.add("mapreduce.pairs_per_split", float64(pairs)/float64(splits), splits)

	// Fold the window's leaves left to right, the shape of the work a
	// backend does when it adds a bucket to an aggregate.
	acc := leaves[0]
	keys := 0
	runtime.ReadMemStats(&m0)
	for _, leaf := range leaves[1:nWindow] {
		keys += len(acc) + len(leaf)
		p.rec.call("mapreduce.MergeOrderedK", root, func() { acc, _ = mapreduce.MergeOrderedK(w.job, acc, leaf) })
	}
	runtime.ReadMemStats(&m1)
	merges := p.rec.byName("mapreduce.MergeOrderedK")
	p.s.add("mapreduce.merge_us_per_call", ratio(sum(merges)*1e3, float64(len(merges))), len(merges))
	p.s.add("mapreduce.merge_allocs_per_call", ratio(float64(m1.Mallocs-m0.Mallocs), float64(len(merges))), len(merges))
	p.s.add("mapreduce.merge_ns_per_key", ratio(sum(merges)*1e6, float64(keys)), keys)

	const reps = 5
	for i := 0; i < reps; i++ {
		p.rec.call("mapreduce.ReducePayload", root, func() { mapreduce.ReducePayload(w.job, []mapreduce.Payload{acc}) })
	}
	p.s.add("mapreduce.reduce_us_per_call", median(p.rec.byName("mapreduce.ReducePayload"))*1e3, reps)
	p.s.add("mapreduce.reduce_keys", float64(len(acc)), 1)

	for i := 0; i < reps; i++ {
		p.rec.call("mapreduce.RunScratch", root, func() { _, err = mapreduce.RunScratch(w.job, window, 0, nil) })
		if err != nil {
			return nil, 0, err
		}
	}
	p.scratchMs = median(p.rec.byName("mapreduce.RunScratch"))
	p.s.add("mapreduce.scratch_ms_per_window", p.scratchMs, reps)
	return leaves, nWindow, nil
}

// core replays partition 0's leaves through every backend as a
// fixed-width window that slides one leaf at a time.
func (p *probe) core(leaves []mapreduce.Payload, nWindow int) {
	job := p.w.job
	merge := func(a, b mapreduce.Payload) mapreduce.Payload {
		out, _ := mapreduce.MergeOrdered(job, a, b)
		return out
	}
	window, rest := leaves[:nWindow], leaves[nWindow:]
	root := p.rec.begin("bench.probe.core", -1, 0)
	defer p.rec.end(root)

	replay := func(name string, init func() error, slide func(mapreduce.Payload) error, stats func() core.Stats) {
		if err := init(); err != nil {
			p.out.fail(1, "core.%s: init: %v", name, err)
			return
		}
		before := stats()
		spanName := "core." + name + ".Slide"
		for _, leaf := range rest {
			var err error
			p.rec.call(spanName, root, func() { err = slide(leaf) })
			if err != nil {
				p.out.fail(1, "core.%s: slide: %v", name, err)
				return
			}
		}
		p.s.add("core."+name+".us_per_slide", sum(p.rec.byName(spanName))*1e3/float64(len(rest)), len(rest))
		p.s.add("core."+name+".merges_per_slide", float64(stats().Merges-before.Merges)/float64(len(rest)), len(rest))
	}

	// Every slide asks for the root, as the runtime does before reducing.
	daba := core.NewDaba(merge, nWindow)
	replay("daba", func() error { return daba.Init(window) },
		func(l mapreduce.Payload) error { err := daba.Slide(l); daba.Root(); return err }, daba.Stats)
	rot := core.NewRotating(merge, nWindow)
	replay("rotating", func() error { return rot.Init(window) },
		func(l mapreduce.Payload) error { err := rot.Rotate(l); rot.Root(); return err }, rot.Stats)
	fold := core.NewFolding(merge)
	replay("folding", func() error { fold.Init(window); return nil },
		func(l mapreduce.Payload) error {
			err := fold.Slide(1, []mapreduce.Payload{l})
			fold.Root()
			return err
		}, fold.Stats)
	finger := core.NewFingerTree(merge)
	replay("fingertree", func() error { return finger.Init(window) },
		func(l mapreduce.Payload) error { err := finger.Slide(l); finger.Root(); return err }, finger.Stats)

	// Late arrivals: a bucket lands 4 behind the newest; the oldest is
	// then evicted, untimed, to keep the width.
	lateness := 4
	if lateness > finger.Len() {
		lateness = finger.Len()
	}
	for _, leaf := range rest {
		var err error
		p.rec.call("core.fingertree.InsertAt", root, func() { err = finger.InsertAt(finger.Len()-lateness, leaf); finger.Root() })
		if err == nil {
			err = finger.BulkEvict(1)
		}
		if err != nil {
			p.out.fail(1, "core.fingertree: late insert: %v", err)
			break
		}
	}
	late := p.rec.byName("core.fingertree.InsertAt")
	p.s.add("core.fingertree.late_us_per_insert", ratio(sum(late)*1e3, float64(len(late))), len(late))
}

// memoAndCodec times the memo store on an encoded map output and the
// split and payload-set codecs on every split of the probe's slides and
// its map result.
func (p *probe) memoAndCodec(slides [][]mapreduce.Split) {
	root := p.rec.begin("bench.probe.persist", -1, 0)
	defer p.rec.end(root)

	var m0, m1 runtime.MemStats
	var splits, splitBytes, setBytes int
	var blob []byte
	runtime.ReadMemStats(&m0)
	for i, add := range slides {
		for j, split := range add {
			var frame []byte
			var err error
			var back mapreduce.Split
			p.rec.call("persist.EncodeSplit", root, func() { frame, err = persist.EncodeSplit(split) })
			if err == nil {
				p.rec.call("persist.DecodeSplit", root, func() { back, err = persist.DecodeSplit(frame) })
			}
			if err != nil || len(back.Records) != len(split.Records) {
				p.out.fail(1, "persist: split round trip: %v", err)
				return
			}
			parts := p.mapped[i][j].Parts
			var set []mapreduce.Payload
			p.rec.call("persist.EncodePayloadSet", root, func() { blob, err = persist.EncodePayloadSet(parts) })
			if err == nil {
				p.rec.call("persist.DecodePayloadSet", root, func() { set, err = persist.DecodePayloadSet(blob) })
			}
			if err != nil || len(set) != len(parts) {
				p.out.fail(1, "persist: payload set round trip: %v", err)
				return
			}
			splits++
			splitBytes += len(frame)
			setBytes += len(blob)
		}
	}
	runtime.ReadMemStats(&m1)
	n := float64(splits)
	mean := func(name string) float64 { return sum(p.rec.byName(name)) * 1e3 / n }
	p.s.add("persist.encode_split_us", mean("persist.EncodeSplit"), splits)
	p.s.add("persist.decode_split_us", mean("persist.DecodeSplit"), splits)
	p.s.add("persist.split_kb", float64(splitBytes)/1024/n, splits)
	p.s.add("persist.encode_payloadset_us", mean("persist.EncodePayloadSet"), splits)
	p.s.add("persist.decode_payloadset_us", mean("persist.DecodePayloadSet"), splits)
	p.s.add("persist.payloadset_kb", float64(setBytes)/1024/n, splits)
	p.s.add("persist.codec_allocs_per_slide", float64(m1.Mallocs-m0.Mallocs)/float64(len(slides)), len(slides))

	// The memo store holds a map task's output as one payload-set blob.
	const entries = 512
	store := memo.NewStore(memo.DefaultConfig())
	mroot := p.rec.begin("bench.probe.memo", -1, 0)
	defer p.rec.end(mroot)
	for i := 0; i < entries; i++ {
		key := "map:probe-" + strconv.Itoa(i)
		p.rec.call("memo.Put", mroot, func() { store.Put(key, blob, int64(len(blob)), uint64(i), uint64(i)) })
	}
	for i := 0; i < entries; i++ {
		key := "map:probe-" + strconv.Itoa(i)
		var err error
		p.rec.call("memo.Get", mroot, func() { _, err = store.Get(key, 0) })
		if err != nil {
			p.out.fail(1, "memo: get: %v", err)
			return
		}
	}
	p.s.add("memo.put_us", median(p.rec.byName("memo.Put"))*1e3, entries)
	p.s.add("memo.get_us", median(p.rec.byName("memo.Get"))*1e3, entries)
}

// dist sends every slide's splits through the pool and sets the time
// against the in-process map of the same splits.
func (p *probe) dist(d *driver, slides [][]mapreduce.Split) error {
	job := p.w.job
	root := p.rec.begin("bench.probe.dist", -1, 0)
	defer p.rec.end(root)
	var wire int
	for _, add := range slides {
		var results []mapreduce.MapResult
		var err error
		p.rec.call("dist.RunMap", root, func() { results, err = d.pool.RunMap(job, add) })
		if err != nil {
			return fmt.Errorf("pool RunMap: %w", err)
		}
		// What crossed the wire: one frame per split out, one per
		// partition payload back.
		for i, split := range add {
			frame, err := persist.EncodeSplit(split)
			if err != nil {
				return err
			}
			wire += len(frame)
			for _, part := range results[i].Parts {
				if frame, err = persist.EncodePayload(part); err != nil {
					return err
				}
				wire += len(frame)
			}
		}
	}
	p.s.add("dist.spawn_ms", d.spawnMs, 1)
	remote := p.rec.byName("dist.RunMap")
	local := p.rec.byName("mapreduce.RunMap") // the same splits, mapped by the mapreduce probe
	p.s.add("dist.runmap_ms_per_batch", sum(remote)/float64(len(remote)), len(remote))
	p.s.add("dist.overhead_share", 1-sum(local)/sum(remote), len(remote))
	p.s.add("dist.wire_kb_per_slide", float64(wire)/1024/float64(len(slides)), len(slides))
	rpc := d.pool.FaultStats().RPCLatency
	p.s.add("dist.rpc_p95_ms", float64(rpc.Quantile(0.95).Nanoseconds())/1e6, int(rpc.Count))
	retries := d.pool.Retries()
	p.s.add("dist.retries", float64(retries), 1)
	if retries != 0 {
		p.out.fail(int(retries), "dist: %d retries", retries)
	}
	return nil
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func last(xs []float64) float64 { return xs[len(xs)-1] }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		return sorted[mid]
	}
	return (sorted[mid-1] + sorted[mid]) / 2
}

// ratio is a/b, and 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
