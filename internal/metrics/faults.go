package metrics

import (
	"fmt"
	"sync/atomic"
)

// FaultStats is a point-in-time snapshot of the fault-tolerance event
// counters (FaultRecorder.Snapshot). Every retry, hedge, breaker
// transition, and degradation event in the distributed runtime increments
// exactly one of these, so a run's failure handling is fully observable.
type FaultStats struct {
	// Retries counts splits re-queued for execution after a worker
	// failure (RPC error, deadline expiry, or corrupted response).
	Retries int64
	// DeadlinesExpired counts RPCs abandoned at their per-task deadline.
	DeadlinesExpired int64
	// Redials counts reconnect attempts to down workers (each one gated
	// by the breaker/backoff state, so this stays small against a dead
	// host).
	Redials int64
	// CorruptFrames counts responses discarded because a payload frame
	// failed its checksum.
	CorruptFrames int64
	// HedgesLaunched counts speculative duplicate batches issued for
	// slow in-flight work; HedgesWon counts hedges that delivered at
	// least one result before the original.
	HedgesLaunched int64
	HedgesWon      int64
	// BreakerOpened / BreakerHalfOpen / BreakerClosed count per-worker
	// circuit-breaker transitions (closed→open, open→half-open probe,
	// half-open→closed).
	BreakerOpened   int64
	BreakerHalfOpen int64
	BreakerClosed   int64
	// BudgetExhausted counts batches abandoned after the per-batch retry
	// budget ran out.
	BudgetExhausted int64
	// LocalFallbacks counts map batches that degraded from remote to
	// in-process execution after the pool gave up.
	LocalFallbacks int64
	// MemoRecomputes counts memoized nodes recomputed because their home
	// node and every replica were unreachable (or the entry was evicted).
	MemoRecomputes int64
	// RPCLatency is the distribution of successful batch RPC latencies —
	// the samples the pool's hedging quantile is computed from, exported
	// here instead of living as pool-private state.
	RPCLatency HistogramSnapshot
}

// EachCounter visits every fault-event counter with its stable name, in
// declaration order (shared by String and the Prometheus renderer, so
// names cannot drift between the two).
func (s FaultStats) EachCounter(fn func(name string, v int64)) {
	fn("retries", s.Retries)
	fn("deadlines", s.DeadlinesExpired)
	fn("redials", s.Redials)
	fn("corrupt", s.CorruptFrames)
	fn("hedges", s.HedgesLaunched)
	fn("hedge-wins", s.HedgesWon)
	fn("breaker-open", s.BreakerOpened)
	fn("breaker-half", s.BreakerHalfOpen)
	fn("breaker-close", s.BreakerClosed)
	fn("budget-exhausted", s.BudgetExhausted)
	fn("local-fallbacks", s.LocalFallbacks)
	fn("memo-recomputes", s.MemoRecomputes)
}

// Sub returns the event deltas s − o (the fault activity between two
// snapshots of the same recorder) — how a single slide's degradation
// events are attributed to its span trace.
func (s FaultStats) Sub(o FaultStats) FaultStats {
	return FaultStats{
		Retries:          s.Retries - o.Retries,
		DeadlinesExpired: s.DeadlinesExpired - o.DeadlinesExpired,
		Redials:          s.Redials - o.Redials,
		CorruptFrames:    s.CorruptFrames - o.CorruptFrames,
		HedgesLaunched:   s.HedgesLaunched - o.HedgesLaunched,
		HedgesWon:        s.HedgesWon - o.HedgesWon,
		BreakerOpened:    s.BreakerOpened - o.BreakerOpened,
		BreakerHalfOpen:  s.BreakerHalfOpen - o.BreakerHalfOpen,
		BreakerClosed:    s.BreakerClosed - o.BreakerClosed,
		BudgetExhausted:  s.BudgetExhausted - o.BudgetExhausted,
		LocalFallbacks:   s.LocalFallbacks - o.LocalFallbacks,
		MemoRecomputes:   s.MemoRecomputes - o.MemoRecomputes,
		RPCLatency:       s.RPCLatency.Sub(o.RPCLatency),
	}
}

// Degraded reports whether the snapshot records any event that degraded
// work (a retry, an expired deadline, a corrupt frame, an exhausted
// budget, a local fallback, or a memo recompute). Breaker transitions
// and hedge wins alone do not count — they are the machinery working.
func (s FaultStats) Degraded() bool {
	return s.Retries != 0 || s.DeadlinesExpired != 0 || s.CorruptFrames != 0 ||
		s.BudgetExhausted != 0 || s.LocalFallbacks != 0 || s.MemoRecomputes != 0 ||
		s.HedgesLaunched != 0
}

// String renders the non-zero counters (and the RPC latency quantiles,
// when any batches were recorded) on one line (diagnostics).
func (s FaultStats) String() string {
	out := ""
	add := func(name string, v int64) {
		if v != 0 {
			if out != "" {
				out += " "
			}
			out += fmt.Sprintf("%s=%d", name, v)
		}
	}
	s.EachCounter(add)
	if n := s.RPCLatency.total(); n > 0 {
		if out != "" {
			out += " "
		}
		out += fmt.Sprintf("rpc-batches=%d rpc-p50=%v rpc-p95=%v rpc-p99=%v",
			n, s.RPCLatency.Quantile(0.50), s.RPCLatency.Quantile(0.95), s.RPCLatency.Quantile(0.99))
	}
	if out == "" {
		return "no fault events"
	}
	return out
}

// FaultRecorder accumulates fault-tolerance events. All fields are
// atomics, so producers on any goroutine (pool senders, the health
// checker, partition workers) increment without locking. A dist.Pool owns
// one, and a sliderrt.Runtime whose map tasks run on the pool records into
// it too, so the whole degradation ladder lands in a single snapshot. Use
// by pointer; the zero value is ready.
type FaultRecorder struct {
	Retries          atomic.Int64
	DeadlinesExpired atomic.Int64
	Redials          atomic.Int64
	CorruptFrames    atomic.Int64
	HedgesLaunched   atomic.Int64
	HedgesWon        atomic.Int64
	BreakerOpened    atomic.Int64
	BreakerHalfOpen  atomic.Int64
	BreakerClosed    atomic.Int64
	BudgetExhausted  atomic.Int64
	LocalFallbacks   atomic.Int64
	MemoRecomputes   atomic.Int64
	// RPCLatency records every successful batch RPC's latency; the pool's
	// hedging threshold is a quantile of it, and Snapshot exports it so
	// the hedging decision is never computed from numbers an operator
	// cannot see.
	RPCLatency Histogram
}

// Snapshot returns the current counter values.
func (r *FaultRecorder) Snapshot() FaultStats {
	return FaultStats{
		RPCLatency:       r.RPCLatency.Snapshot(),
		Retries:          r.Retries.Load(),
		DeadlinesExpired: r.DeadlinesExpired.Load(),
		Redials:          r.Redials.Load(),
		CorruptFrames:    r.CorruptFrames.Load(),
		HedgesLaunched:   r.HedgesLaunched.Load(),
		HedgesWon:        r.HedgesWon.Load(),
		BreakerOpened:    r.BreakerOpened.Load(),
		BreakerHalfOpen:  r.BreakerHalfOpen.Load(),
		BreakerClosed:    r.BreakerClosed.Load(),
		BudgetExhausted:  r.BudgetExhausted.Load(),
		LocalFallbacks:   r.LocalFallbacks.Load(),
		MemoRecomputes:   r.MemoRecomputes.Load(),
	}
}
