package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRecorderSnapshotMidRun freezes Reports while workers are still
// recording tasks and counters, asserting every snapshot is internally
// consistent (Work equals the phase-work sum; reused tasks contribute no
// work) and counters are monotone across successive snapshots.
func TestRecorderSnapshotMidRun(t *testing.T) {
	r := NewRecorder()
	const workers = 6
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			phase := []Phase{PhaseMap, PhaseContraction, PhaseReduce}[w%3]
			for i := 0; i < perWorker; i++ {
				r.RecordTask(Task{Phase: phase, Cost: time.Microsecond, Reused: i%4 == 0})
				r.Add(Counters{MapTasksReused: 1})
			}
		}(w)
	}

	var prev Report
	for i := 0; i < 500; i++ {
		rep := r.Snapshot()
		var phaseSum time.Duration
		for _, w := range rep.PhaseWork {
			phaseSum += w
		}
		if rep.Work != phaseSum {
			t.Fatalf("torn snapshot: Work %v != phase sum %v", rep.Work, phaseSum)
		}
		if rep.Counters.MapTasksReused < prev.Counters.MapTasksReused {
			t.Fatalf("counter regressed: %d after %d", rep.Counters.MapTasksReused, prev.Counters.MapTasksReused)
		}
		if len(rep.Tasks) < len(prev.Tasks) {
			t.Fatalf("task list shrank: %d after %d", len(rep.Tasks), len(prev.Tasks))
		}
		prev = rep
	}
	wg.Wait()

	final := r.Snapshot()
	if got, want := len(final.Tasks), workers*perWorker; got != want {
		t.Fatalf("final task count = %d, want %d", got, want)
	}
	if got, want := final.Counters.MapTasksReused, int64(workers*perWorker); got != want {
		t.Fatalf("final MapTasksReused = %d, want %d", got, want)
	}
	// 1 in 4 tasks was a reuse and must not have contributed work.
	want := time.Duration(workers*perWorker) * time.Microsecond * 3 / 4
	if final.Work != want {
		t.Fatalf("final Work = %v, want %v", final.Work, want)
	}
}

// TestFaultStatsRPCLatency covers the satellite that moved the pool's
// private latency tracker into FaultStats: quantiles survive Snapshot,
// show up in String, and Sub subtracts the histogram too.
func TestFaultStatsRPCLatency(t *testing.T) {
	var r FaultRecorder
	if got := r.Snapshot().String(); strings.Contains(got, "rpc-") {
		t.Fatalf("String with no RPC samples mentions rpc: %q", got)
	}
	for i := 0; i < 99; i++ {
		r.RPCLatency.Observe(time.Millisecond)
	}
	r.RPCLatency.Observe(100 * time.Millisecond)
	s := r.Snapshot()
	if got := s.RPCLatency.Quantile(0.50); got < time.Millisecond || got > 2*time.Millisecond {
		t.Errorf("rpc p50 = %v, want ~1ms (bucket upper bound)", got)
	}
	if got := s.RPCLatency.Quantile(1.0); got < 100*time.Millisecond {
		t.Errorf("rpc p100 = %v, want ≥ 100ms", got)
	}
	str := s.String()
	for _, want := range []string{"rpc-batches=100", "rpc-p50=", "rpc-p95=", "rpc-p99="} {
		if !strings.Contains(str, want) {
			t.Errorf("String %q missing %q", str, want)
		}
	}
	// FaultStats stays comparable (the dist tests rely on == against the
	// zero value) and Sub covers the histogram.
	if s == (FaultStats{}) {
		t.Fatalf("snapshot with RPC samples compares equal to zero")
	}
	d := s.Sub(s)
	if d.RPCLatency.total() != 0 || d != (FaultStats{}) {
		t.Fatalf("self-subtraction not zero: %+v", d)
	}
}

// TestFaultStatsDegraded pins which counters mark a slide degraded.
func TestFaultStatsDegraded(t *testing.T) {
	if (FaultStats{}).Degraded() {
		t.Fatalf("zero stats degraded")
	}
	degrading := []FaultStats{
		{Retries: 1}, {DeadlinesExpired: 1}, {CorruptFrames: 1},
		{BudgetExhausted: 1}, {LocalFallbacks: 1}, {MemoRecomputes: 1},
		{HedgesLaunched: 1},
	}
	for _, s := range degrading {
		if !s.Degraded() {
			t.Errorf("%+v not degraded", s)
		}
	}
	benign := []FaultStats{{HedgesWon: 1}, {BreakerOpened: 1}, {BreakerHalfOpen: 1}, {BreakerClosed: 1}}
	for _, s := range benign {
		if s.Degraded() {
			t.Errorf("%+v reported degraded", s)
		}
	}
}

// TestFaultStatsEachCounter checks every counter is visited exactly once
// with its value.
func TestFaultStatsEachCounter(t *testing.T) {
	s := FaultStats{Retries: 1, HedgesLaunched: 2, MemoRecomputes: 3}
	seen := map[string]int64{}
	s.EachCounter(func(name string, v int64) {
		if _, dup := seen[name]; dup {
			t.Fatalf("counter %q visited twice", name)
		}
		seen[name] = v
	})
	if len(seen) != 12 {
		t.Fatalf("visited %d counters, want 12", len(seen))
	}
	if seen["retries"] != 1 || seen["hedges"] != 2 || seen["memo-recomputes"] != 3 {
		t.Fatalf("wrong values: %v", seen)
	}
}
