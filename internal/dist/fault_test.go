package dist

import (
	"errors"
	"testing"
	"time"

	"slider/internal/mapreduce"
	"slider/internal/memo"
	"slider/internal/sliderrt"
)

// blockyCluster starts n workers serving a job whose map blocks on gate
// whenever a record equals "block"; every handler entering the blocked
// path signals entered first. This gives tests deterministic control
// over where and for how long a batch is stuck.
func blockyCluster(t *testing.T, n int, gate chan struct{}, entered chan struct{}) ([]*Worker, []string) {
	t.Helper()
	reg := &Registry{}
	job := func() *mapreduce.Job {
		sum := func(_ string, values []mapreduce.Value) mapreduce.Value {
			var total int64
			for _, v := range values {
				total += v.(int64)
			}
			return total
		}
		return &mapreduce.Job{
			Name:       "blocky",
			Partitions: 1,
			Map: func(rec mapreduce.Record, emit mapreduce.Emit) error {
				if rec.(string) == "block" {
					entered <- struct{}{}
					<-gate
				}
				emit(rec.(string), int64(1))
				return nil
			},
			Combine:     sum,
			Reduce:      sum,
			Commutative: true,
		}
	}
	if err := reg.Register("blocky", job); err != nil {
		t.Fatal(err)
	}
	var workers []*Worker
	var addrs []string
	for i := 0; i < n; i++ {
		w, err := NewWorker("b"+string(rune('0'+i)), "127.0.0.1:0", reg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		workers = append(workers, w)
		addrs = append(addrs, w.Addr())
	}
	return workers, addrs
}

func blockyJob() *mapreduce.Job {
	j := testJob()
	j.Name = "blocky"
	j.Partitions = 1
	return j
}

func blockySplits() []mapreduce.Split {
	return []mapreduce.Split{
		{ID: "ok", Records: []mapreduce.Record{"alpha beta"}},
		{ID: "stuck", Records: []mapreduce.Record{"block"}},
	}
}

// TestRedialsGatedByBackoff is the reconnect-stampede regression test: a
// worker that is dead at pool construction must not be redialled on
// every batch. Revival attempts are gated by the worker's breaker and
// jittered backoff, so a burst of batches against a dead host performs
// at most a couple of redials.
func TestRedialsGatedByBackoff(t *testing.T) {
	workers, addrs, _ := newCluster(t, 2)
	workers[1].Kill()
	pool, err := NewPoolConfig("dist-wordcount", addrs, PoolConfig{
		BackoffBase:    250 * time.Millisecond,
		BackoffMax:     2 * time.Second,
		HealthInterval: -1, // isolate on-demand revival
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	for i := 0; i < 20; i++ {
		if _, err := pool.RunMap(testJob(), textSplits(i, i+2)); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	// 20 batches in well under one backoff window: the dead host saw at
	// most the construction-time dial plus one gated redial, not one per
	// batch.
	if redials := pool.FaultStats().Redials; redials > 2 {
		t.Fatalf("dead worker was redialled %d times across 20 batches (stampede)", redials)
	}
}

// TestMidBatchWorkerLossSalvagesCompletedSplits kills the workers one by
// one while a batch is in flight. The pool must give up with an
// *IncompleteError that carries exactly the splits that completed —
// counted once each, never duplicated by the in-flight batches that died
// with their workers.
func TestMidBatchWorkerLossSalvagesCompletedSplits(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	entered := make(chan struct{}, 8)
	workers, addrs := blockyCluster(t, 2, gate, entered)
	pool, err := NewPoolConfig("blocky", addrs, PoolConfig{
		TaskTimeout:    -1, // the kill, not a deadline, fails the call
		BackoffBase:    2 * time.Millisecond,
		BackoffMax:     30 * time.Millisecond,
		HealthInterval: -1,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	type runResult struct {
		results []mapreduce.MapResult
		err     error
	}
	doneC := make(chan runResult, 1)
	go func() {
		results, err := pool.RunMap(blockyJob(), blockySplits())
		doneC <- runResult{results, err}
	}()

	// Round 1: split "ok" completes on worker 0; split "stuck" blocks on
	// worker 1. Kill worker 1 mid-batch.
	<-entered
	workers[1].Kill()
	// Round 2: "stuck" is re-queued onto worker 0, and blocks again. Kill
	// worker 0 mid-batch too.
	<-entered
	workers[0].Kill()

	var res runResult
	select {
	case res = <-doneC:
	case <-time.After(10 * time.Second):
		t.Fatal("RunMap did not give up after losing every worker")
	}
	if res.err == nil {
		t.Fatal("RunMap succeeded with every worker dead")
	}
	if !errors.Is(res.err, ErrNoWorkers) {
		t.Fatalf("err = %v, want ErrNoWorkers", res.err)
	}
	var inc *IncompleteError
	if !errors.As(res.err, &inc) {
		t.Fatalf("err %T does not carry partial results", res.err)
	}
	results, done := inc.Completed()
	if len(done) != 2 || !done[0] || done[1] {
		t.Fatalf("done = %v, want exactly the first split salvaged", done)
	}
	if results[0].SplitID != "ok" || results[0].Records != 1 {
		t.Fatalf("salvaged result = %+v", results[0])
	}
	if got := pool.Retries(); got < 2 {
		t.Fatalf("retries = %d, want one per mid-batch kill", got)
	}
}

// TestHedgeRescuesSlowWorker arms a delay on the worker holding the only
// pending split; the pool must hedge the split onto the idle worker and
// take its (fast) result instead of waiting out the delay.
func TestHedgeRescuesSlowWorker(t *testing.T) {
	workers, addrs, _ := newCluster(t, 2)
	pool, err := NewPoolConfig("dist-wordcount", addrs, PoolConfig{
		TaskTimeout: 5 * time.Second, // hedge, not the deadline, must win
		Hedge:       true,
		HedgeMin:    5 * time.Millisecond,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	// Warm-up: two splits land one per worker (latency samples, and the
	// round-robin cursor returns to worker 0).
	if _, err := pool.RunMap(testJob(), textSplits(0, 2)); err != nil {
		t.Fatal(err)
	}
	const delay = time.Second
	workers[0].Faults().InjectDelay(delay)
	start := time.Now()
	results, err := pool.RunMap(testJob(), textSplits(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if len(results) != 1 || results[0].SplitID != "d2" {
		t.Fatalf("results = %+v", results)
	}
	st := pool.FaultStats()
	if st.HedgesLaunched == 0 {
		t.Fatal("no hedge launched against the slow worker")
	}
	if st.HedgesWon == 0 {
		t.Fatal("hedge launched but its result was not used")
	}
	if elapsed >= delay/2 {
		t.Fatalf("batch took %v: the hedge did not cut the delay short", elapsed)
	}
}

// TestStragglerHoldsUpNobody: when a hedge wins, RunMap returns while the
// batch it beat is still in flight — its sender holds the worker's
// connection until the late reply or the deadline. The next RunMap passes
// that worker over instead of queueing behind it, and the straggler, whose
// reply comes after the caller has its splits back and has overwritten
// them, reads none of them (under -race a read would be reported).
func TestStragglerHoldsUpNobody(t *testing.T) {
	workers, addrs, _ := newCluster(t, 2)
	pool, err := NewPoolConfig("dist-wordcount", addrs, PoolConfig{
		TaskTimeout:    5 * time.Second,
		Hedge:          true,
		HedgeMin:       5 * time.Millisecond,
		HealthInterval: -1,
		StatsInterval:  -1,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	job := testJob()
	if _, err := pool.RunMap(job, textSplits(0, 2)); err != nil { // the cursor returns to worker 0
		t.Fatal(err)
	}
	const delay = time.Second
	workers[0].Faults().InjectDelay(delay)
	first := textSplits(2, 4)
	if _, err := pool.RunMap(job, first); err != nil {
		t.Fatal(err)
	}
	hedges := pool.FaultStats().HedgesLaunched
	if pool.FaultStats().HedgesWon == 0 {
		t.Fatal("the delayed batch was not hedged")
	}
	for i := range first {
		clear(first[i].Records) // the caller's again, records and all (stream reuses them)
		first[i] = mapreduce.Split{}
	}
	held := workers[0].Served()

	second := textSplits(4, 8)
	start := time.Now()
	remote, err := pool.RunMap(job, second)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed >= delay/2 {
		t.Fatalf("the next RunMap took %v: it queued behind the straggler", elapsed)
	}
	matchesLocal(t, job, second, remote)
	if n := workers[0].Served(); n != held {
		t.Fatalf("the straggling worker was handed %d splits of the next RunMap", n-held)
	}
	if n := pool.FaultStats().HedgesLaunched; n != hedges {
		t.Fatal("the next RunMap gave the straggling worker a batch and needed a hedge to get past it")
	}

	// The late reply is read, checked against the ids it answers and
	// dropped; the worker is idle and healthy again, and is used.
	waitFor(t, "the straggler's reply", func() bool {
		pool.mu.Lock()
		defer pool.mu.Unlock()
		return pool.workers[0].inflight == 0
	})
	third := textSplits(8, 10)
	if remote, err = pool.RunMap(job, third); err != nil {
		t.Fatal(err)
	}
	matchesLocal(t, job, third, remote)
	if st := pool.FaultStats(); workers[0].Served() == held || st.Retries != 0 || pool.LiveWorkers() != 2 {
		t.Fatalf("after the straggler: worker 0 served %d (was %d), retries %d, live %d", workers[0].Served(), held, st.Retries, pool.LiveWorkers())
	}
}

// TestLateSenderSendsNothing: a sender that comes to its connection after
// its RunMap has returned (it queued behind a straggler and a hedge
// finished the round) frames nothing — the splits are the caller's again —
// and leaves the connection in step and the worker in service.
func TestLateSenderSendsNothing(t *testing.T) {
	job := testJob()
	p := loopPool(job.Name)
	lc := &loopConn{}
	worker := &poolWorker{addr: "loop", conn: newWireConn(lc)}
	p.workers = []*poolWorker{worker}
	run := &mapRun{job: job, splits: textSplits(0, 2)}
	run.end()
	o := batchOutcome{a: &batchAssign{w: worker, conn: worker.conn, indices: []int{0, 1}}}
	p.runBatch(&o, call{op: opMap, items: 2}, "", run)
	if o.err != errAbandoned || o.fatal || len(o.results) != 0 {
		t.Fatalf("outcome = %+v, want the batch abandoned", o)
	}
	if len(lc.out) != 0 || worker.conn == nil {
		t.Fatalf("%d bytes sent, worker down = %v: an abandoned batch touched its connection", len(lc.out), worker.conn == nil)
	}
}

// TestRetryBudgetExhausted drives a split that can never finish (its map
// blocks forever) against a small retry budget: every attempt dies at
// the task deadline, and once the budget is spent the pool reports
// ErrRetryBudget — workers are still alive, so this is flapping, not
// total loss — while salvaging the split that did complete.
func TestRetryBudgetExhausted(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	entered := make(chan struct{}, 8)
	_, addrs := blockyCluster(t, 2, gate, entered)
	pool, err := NewPoolConfig("blocky", addrs, PoolConfig{
		TaskTimeout:    30 * time.Millisecond,
		RetryBudget:    2,
		BackoffBase:    40 * time.Millisecond, // between-round sleep covers the redial backoff
		BackoffMax:     200 * time.Millisecond,
		HealthInterval: 5 * time.Millisecond, // revives deadline-failed (but alive) workers
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	_, err = pool.RunMap(blockyJob(), blockySplits())
	if err == nil {
		t.Fatal("RunMap succeeded although one split can never finish")
	}
	if !errors.Is(err, ErrRetryBudget) && !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("err = %v, want a budget/no-workers give-up", err)
	}
	var inc *IncompleteError
	if !errors.As(err, &inc) {
		t.Fatalf("err %T does not carry partial results", err)
	}
	if _, done := inc.Completed(); !done[0] || done[1] {
		t.Fatalf("done = %v, want the completable split salvaged", done)
	}
	st := pool.FaultStats()
	if st.DeadlinesExpired == 0 {
		t.Fatal("no task deadline expired")
	}
	if st.BudgetExhausted == 0 {
		t.Fatal("budget exhaustion not recorded")
	}
}

// TestCorruptResponseRetriedElsewhere: a corrupted payload frame must be
// caught by the checksummed codec, counted, and the affected splits
// re-executed on another worker — the batch still succeeds and the
// results match a local execution.
func TestCorruptResponseRetriedElsewhere(t *testing.T) {
	workers, addrs, _ := newCluster(t, 2)
	pool, err := NewPoolConfig("dist-wordcount", addrs, PoolConfig{
		BackoffBase: 2 * time.Millisecond,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	workers[0].Faults().InjectCorrupt()
	workers[1].Faults().InjectCorrupt()
	splits := textSplits(0, 6)
	remote, err := pool.RunMap(testJob(), splits)
	if err != nil {
		t.Fatal(err)
	}
	local, err := mapreduce.Executor{}.RunMap(testJob(), splits)
	if err != nil {
		t.Fatal(err)
	}
	for i := range remote {
		if remote[i].SplitID != local[i].SplitID {
			t.Fatalf("result %d out of order: %s", i, remote[i].SplitID)
		}
		for p := range remote[i].Parts {
			if mapreduce.FingerprintPayload(remote[i].Parts[p]) !=
				mapreduce.FingerprintPayload(local[i].Parts[p]) {
				t.Fatalf("payload %d/%d differs from local execution", i, p)
			}
		}
	}
	if st := pool.FaultStats(); st.CorruptFrames == 0 {
		t.Fatal("corruption went undetected")
	}
}

// TestWorkerRevivesThroughBreaker walks one worker through the full
// breaker cycle: failures open it, the background health checker probes
// it half-open, and a successful probe closes it again once the worker
// is restarted on the same address.
func TestWorkerRevivesThroughBreaker(t *testing.T) {
	workers, addrs, _ := newCluster(t, 2)
	pool, err := NewPoolConfig("dist-wordcount", addrs, PoolConfig{
		BackoffBase:      2 * time.Millisecond,
		BreakerThreshold: 1, // first failure opens the breaker
		BreakerCooldown:  5 * time.Millisecond,
		HealthInterval:   5 * time.Millisecond,
		Seed:             1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	workers[1].Kill()
	if _, err := pool.RunMap(testJob(), textSplits(0, 4)); err != nil {
		t.Fatalf("batch after kill: %v", err)
	}
	if pool.LiveWorkers() != 1 {
		t.Fatalf("live = %d after kill", pool.LiveWorkers())
	}

	reg := &Registry{}
	if err := reg.Register("dist-wordcount", testJob); err != nil {
		t.Fatal(err)
	}
	var revived *Worker
	deadline := time.Now().Add(5 * time.Second)
	for revived == nil {
		if revived, err = NewWorker("w1b", addrs[1], reg); err != nil {
			if time.Now().After(deadline) {
				t.Fatalf("could not rebind %s: %v", addrs[1], err)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	t.Cleanup(func() { revived.Close() })

	for pool.LiveWorkers() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("health checker never revived the worker; faults: %s", pool.FaultStats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := pool.FaultStats()
	if st.BreakerOpened == 0 || st.BreakerHalfOpen == 0 || st.BreakerClosed == 0 {
		t.Fatalf("breaker did not cycle open→half-open→closed: %s", st)
	}
	if _, err := pool.RunMap(testJob(), textSplits(4, 8)); err != nil {
		t.Fatalf("batch after revival: %v", err)
	}
	if revived.Served() == 0 {
		t.Fatal("revived worker was never assigned work")
	}
}

// TestHealthCheckerRedials: the health checker revives through the same
// routine as a RunMap round, so its attempts count as redials too. A
// worker dead when the pool is built and restarted later comes back with
// no batch ever run.
func TestHealthCheckerRedials(t *testing.T) {
	workers, addrs, reg := newCluster(t, 2)
	workers[1].Kill()
	pool, err := NewPoolConfig("dist-wordcount", addrs, PoolConfig{
		BackoffBase:     2 * time.Millisecond,
		BreakerCooldown: 5 * time.Millisecond,
		HealthInterval:  5 * time.Millisecond,
		Seed:            1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		revived, err := NewWorker("w1b", addrs[1], reg)
		if err == nil {
			t.Cleanup(func() { revived.Close() })
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("could not rebind %s: %v", addrs[1], err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for pool.LiveWorkers() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("health checker never revived the worker; faults: %s", pool.FaultStats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := pool.FaultStats(); st.Redials == 0 {
		t.Fatalf("the health checker's revival went uncounted: %s", st)
	}
}

// TestBreakerOpenedAtConstruction: a worker unreachable when the pool is
// built fails its first contact there, and with a threshold of one that
// opens its breaker — counted as every other open is. Once the health
// checker has revived it, no breaker has closed that was not counted open.
func TestBreakerOpenedAtConstruction(t *testing.T) {
	workers, addrs, reg := newCluster(t, 2)
	workers[1].Kill()
	pool, err := NewPoolConfig("dist-wordcount", addrs, PoolConfig{
		BackoffBase:      2 * time.Millisecond,
		BreakerThreshold: 1,
		BreakerCooldown:  200 * time.Millisecond, // no probe before the first read
		HealthInterval:   5 * time.Millisecond,
		Seed:             1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if st := pool.FaultStats(); st.BreakerOpened != 1 {
		t.Fatalf("the worker down at construction opened its breaker uncounted: %s", st)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		revived, err := NewWorker("w1b", addrs[1], reg)
		if err == nil {
			t.Cleanup(func() { revived.Close() })
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("could not rebind %s: %v", addrs[1], err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for pool.LiveWorkers() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("health checker never revived the worker; faults: %s", pool.FaultStats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := pool.FaultStats(); st.BreakerClosed == 0 || st.BreakerOpened < st.BreakerClosed {
		t.Fatalf("breakers closed that were never counted open: %s", st)
	}
}

// TestRuntimeLocalFallback is the top rung of the degradation ladder: a
// slide whose remote map phase loses every worker must still succeed by
// re-executing the missing splits in-process, and the result must match
// recomputation from scratch.
func TestRuntimeLocalFallback(t *testing.T) {
	workers, addrs, _ := newCluster(t, 2)
	pool, err := NewPoolConfig("dist-wordcount", addrs, PoolConfig{
		BackoffBase:    2 * time.Millisecond,
		BackoffMax:     30 * time.Millisecond,
		HealthInterval: -1,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	memoCfg := memo.DefaultConfig()
	memoCfg.Nodes = 4
	rt, err := sliderrt.New(testJob(), sliderrt.Config{
		Mode: sliderrt.Fixed, BucketSplits: 2, WindowBuckets: 4,
		Memo:      memoCfg,
		MapRunner: pool,
	})
	if err != nil {
		t.Fatal(err)
	}
	window := textSplits(0, 8)
	if _, err := rt.Initial(window); err != nil {
		t.Fatal(err)
	}
	for _, w := range workers {
		w.Kill()
	}
	add := textSplits(8, 10)
	res, err := rt.Advance(2, add)
	if err != nil {
		t.Fatalf("advance with every worker dead: %v", err)
	}
	window = append(window[2:], add...)
	want, err := mapreduce.RunScratch(testJob(), window, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != len(want) {
		t.Fatalf("output sizes differ: %d vs %d", len(res.Output), len(want))
	}
	for k, v := range want {
		if res.Output[k].(int64) != v.(int64) {
			t.Fatalf("key %q: %v vs %v", k, res.Output[k], v)
		}
	}
	if st := rt.FaultStats(); st.LocalFallbacks == 0 {
		t.Fatalf("degraded slide not recorded: %s", st)
	}
}
