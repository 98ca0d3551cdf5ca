package dist

import (
	"strings"
	"testing"
	"time"

	"slider/internal/mapreduce"
	"slider/internal/metrics"
	"slider/internal/persist"
)

// TestTracePropagation runs a real batch over TCP with tracing on at
// both ends and checks the slide's span tree now crosses the process
// boundary: the pool's rpc attempt span contains the worker's stitched
// batch tree (decode, map+combine, encode), every stitched span lies
// inside the attempt's own bounds, and the worker retained its own copy
// keyed by the slide ID.
func TestTracePropagation(t *testing.T) {
	workers, addrs, _ := newCluster(t, 1)
	workers[0].SetObs(NewWorkerObs())

	tracer := metrics.NewTracer(8)
	pool, err := NewPoolConfig("dist-wordcount", addrs, PoolConfig{Tracer: tracer, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	slide := tracer.StartSlide(41, "slide 41")
	tracer.SetActive(slide)
	if _, err := pool.RunMap(testJob(), textSplits(0, 3)); err != nil {
		t.Fatal(err)
	}
	tracer.SetActive(nil)
	slide.End()

	text := tracer.Find(41).Format()
	for _, want := range []string{"rpc " + addrs[0], "w0 dist-wordcount", "split 0", "decode", "map+combine", "encode"} {
		if !strings.Contains(text, want) {
			t.Fatalf("slide trace missing %q:\n%s", want, text)
		}
	}

	// Worker kept its own ring entry under the same slide ID, annotated
	// with the propagated trace context.
	wtrace := workers[0].Obs().Tracer.Find(41)
	if wtrace == nil {
		t.Fatal("worker ring has no span for slide 41")
	}
	if !strings.Contains(wtrace.Format(), "trace ") {
		t.Fatalf("worker span missing trace-context event:\n%s", wtrace.Format())
	}
}

// TestTracePropagationRetry kills a worker mid-batch and checks both the
// failed and the successful attempt appear as separate rpc spans.
func TestTracePropagationRetry(t *testing.T) {
	workers, addrs, _ := newCluster(t, 2)
	workers[0].Faults().InjectCrash()

	tracer := metrics.NewTracer(8)
	tracer.SetActive(tracer.StartSlide(1, "slide 1"))
	pool, err := NewPoolConfig("dist-wordcount", addrs, PoolConfig{Tracer: tracer, Seed: 1,
		BackoffBase: time.Millisecond, BreakerCooldown: 5 * time.Millisecond, HealthInterval: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	if _, err := pool.RunMap(testJob(), textSplits(0, 4)); err != nil {
		t.Fatal(err)
	}
	slide := tracer.Active()
	tracer.SetActive(nil)
	slide.End()

	text := slide.Format()
	if strings.Count(text, "rpc ") < 2 {
		t.Fatalf("expected at least two rpc attempt spans (failure + retry):\n%s", text)
	}
	if !strings.Contains(text, "failed after") {
		t.Fatalf("failed attempt not annotated:\n%s", text)
	}
}

// TestStatsRPCFederation pulls worker stats through the real RPC and
// checks the pool's merged cluster view exactly matches what each worker
// reports about itself.
func TestStatsRPCFederation(t *testing.T) {
	workers, addrs, _ := newCluster(t, 3)
	for _, w := range workers {
		w.SetObs(NewWorkerObs())
	}
	pool, err := NewPoolConfig("dist-wordcount", addrs, PoolConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	for round := 0; round < 3; round++ {
		if _, err := pool.RunMap(testJob(), textSplits(round*6, round*6+6)); err != nil {
			t.Fatal(err)
		}
	}
	pool.PollStats()

	cs := pool.ClusterStats()
	if len(cs.Workers) != 3 {
		t.Fatalf("federated %d workers, want 3", len(cs.Workers))
	}
	merged := cs.Merged()

	var wantServed int64
	var wantBatch metrics.HistogramSnapshot
	for i, w := range workers {
		direct := w.StatsSnapshot()
		wantServed += direct.Served
		b, ok := direct.Hist("batch")
		if !ok {
			t.Fatalf("worker %d has no batch histogram", i)
		}
		wantBatch = wantBatch.Add(b)
	}
	if merged.Served != wantServed || merged.Served != 18 {
		t.Fatalf("merged served = %d, want %d (and 18 total splits ran)", merged.Served, wantServed)
	}
	got, ok := merged.Hist("batch")
	if !ok {
		t.Fatal("merged stats missing batch histogram")
	}
	if got != wantBatch {
		t.Fatalf("merged batch histogram differs from sum of per-worker snapshots:\n got %+v\nwant %+v", got, wantBatch)
	}
	for _, name := range []string{"decode", "map", "encode"} {
		h, ok := merged.Hist(name)
		if !ok || h.Count == 0 {
			t.Fatalf("merged %s histogram missing or empty (ok=%v count=%d)", name, ok, h.Count)
		}
	}
	if !strings.Contains(cs.String(), "3 workers") {
		t.Fatalf("cluster string = %q", cs.String())
	}
}

// TestStatsLoopPolls checks the background poller populates the cache
// without an explicit PollStats call — and that a poll never queues behind
// a running batch: with a delayed batch holding the connection, a poll
// skips it at once, keeps the previous snapshot, and trips nothing.
func TestStatsLoopPolls(t *testing.T) {
	workers, addrs, _ := newCluster(t, 1)
	workers[0].SetObs(NewWorkerObs())
	pool, err := NewPoolConfig("dist-wordcount", addrs, PoolConfig{Seed: 1, StatsInterval: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if _, err := pool.RunMap(testJob(), textSplits(0, 2)); err != nil {
		t.Fatal(err)
	}
	federated := func(served int64) func() bool {
		return func() bool {
			cs := pool.ClusterStats()
			return len(cs.Workers) == 1 && cs.Workers[0].Served == served
		}
	}
	waitFor(t, "the stats loop to federate the worker", federated(2))

	const delay = 300 * time.Millisecond
	workers[0].Faults().InjectDelay(delay)
	errC := make(chan error, 1)
	go func() {
		_, err := pool.RunMap(testJob(), textSplits(2, 4))
		errC <- err
	}()
	waitFor(t, "the delayed batch to be computed", func() bool { return workers[0].Served() == 4 })
	start := time.Now()
	pool.PollStats()
	if took := time.Since(start); took > delay/3 {
		t.Fatalf("a stats poll took %v with a batch in flight: it queued behind it", took)
	}
	if !federated(2)() {
		t.Fatalf("a skipped poll changed the snapshot: %+v", pool.ClusterStats())
	}
	if err := <-errC; err != nil {
		t.Fatalf("the batch the polls skipped: %v", err)
	}
	if st := pool.FaultStats(); pool.LiveWorkers() != 1 || st.BreakerOpened != 0 || st.Retries != 0 {
		t.Fatalf("skipped polls cost the worker: live = %d, %s", pool.LiveWorkers(), st)
	}
	waitFor(t, "the stats loop to catch up after the batch", federated(4))
}

// mapCall frames a map call for the two textSplits(0, 2) splits, as a
// pool would send it.
func mapCall(t testing.TB, traced bool) []byte {
	t.Helper()
	splits := textSplits(0, 2)
	msg := appendCall(nil, call{id: 1, op: opMap, traced: traced, items: uint32(len(splits)), traceID: 7, slideID: 3}, "dist-wordcount", "rpc x")
	for _, s := range splits {
		var err error
		if msg, err = persist.AppendSplit(msg, s); err != nil {
			t.Fatal(err)
		}
	}
	return msg
}

// TestWorkerNoObsZeroAllocDelta is the satellite guarantee, on the
// connection's own handler with its buffers warm: with no observability
// bundle installed, a traced call allocates exactly as much as an untraced
// one — the instrumentation is pure nil checks — and a batch costs what
// decoding its splits in place and running its map tasks cost, nothing per
// frame: no request copy, no result frame, no reply.
func TestWorkerNoObsZeroAllocDelta(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is nondeterministic under the race detector")
	}
	workers, _, _ := newCluster(t, 1)
	run := func(msg []byte) (func(), *loopConn) {
		lc := &loopConn{}
		c := newWireConn(lc)
		return func() {
			lc.in = msg
			if err := workers[0].serveCall(c); err != nil {
				t.Fatal(err)
			}
		}, lc
	}
	untraced, _ := run(mapCall(t, false))
	traced, lc := run(mapCall(t, true))
	base := testing.AllocsPerRun(50, untraced)
	if delta := testing.AllocsPerRun(50, traced) - base; delta != 0 {
		t.Fatalf("traced call allocates %.1f more than untraced with no obs installed (base %.1f)", delta, base)
	}
	// What the batch's own work allocates: the job out of the registry,
	// each split decoded where it lies, its map task framed into a warm
	// buffer.
	job := testJob()
	var frames [][]byte
	for _, s := range textSplits(0, 2) {
		frame, err := persist.EncodeSplit(s)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, frame)
	}
	var buf []byte
	work := testing.AllocsPerRun(50, func() {
		if _, err := workers[0].registry.Lookup("dist-wordcount"); err != nil {
			t.Fatal(err)
		}
		for _, frame := range frames {
			task, err := decodeTask(job, frame, nil)
			if err != nil {
				t.Fatal(err)
			}
			err = writeMapTask(job, task, func(out *mapreduce.TaskOutput) (err error) {
				buf, err = persist.AppendTaskOutput(buf[:0], out)
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	})
	// One more: the job's name as the string the registry is asked for.
	if base > work+1 {
		t.Fatalf("a warm batch allocates %.1f, its decode and map tasks %.1f: the handler allocates per frame", base, work)
	}
	// Sanity: with a bundle installed the same traced call must actually
	// record spans (the zero above is the no-op path, not a dead one).
	workers[0].SetObs(NewWorkerObs())
	lc.out = lc.out[:0]
	traced()
	c := newWireConn(&loopConn{in: lc.out})
	frame, err := c.next()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := decodeReply(frame)
	if err != nil || rep.status != statusOK || rep.items != 3 {
		t.Fatalf("traced reply = %+v, err %v, want two results and a frame of spans", rep, err)
	}
	if err := c.skip(2); err != nil {
		t.Fatal(err)
	}
	if frame, err = c.next(); err != nil {
		t.Fatal(err)
	}
	var spans []metrics.WireSpan
	if err := persist.Decode(frame, &spans); err != nil || len(spans) == 0 {
		t.Fatalf("obs-enabled worker returned %d spans for a traced call (err %v)", len(spans), err)
	}
}

// BenchmarkWorkerRunMapNoObs measures the handler's hot path with tracing
// requested but no bundle installed (the -obs-addr-unset deployment);
// compare against BenchmarkWorkerRunMapObs to see the tracing cost.
func BenchmarkWorkerRunMapNoObs(b *testing.B) {
	benchmarkWorkerRunMap(b, false)
}

// BenchmarkWorkerRunMapObs is the same path with a bundle installed and
// spans recorded.
func BenchmarkWorkerRunMapObs(b *testing.B) {
	benchmarkWorkerRunMap(b, true)
}

func benchmarkWorkerRunMap(b *testing.B, obs bool) {
	reg := &Registry{}
	if err := reg.Register("dist-wordcount", testJob); err != nil {
		b.Fatal(err)
	}
	w, err := NewWorker("bench", "127.0.0.1:0", reg)
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	if obs {
		w.SetObs(NewWorkerObs())
	}
	msg := mapCall(b, true)
	lc := &loopConn{}
	c := newWireConn(lc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lc.in, lc.out = msg, lc.out[:0]
		if err := w.serveCall(c); err != nil {
			b.Fatal(err)
		}
	}
}
