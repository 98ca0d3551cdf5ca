package metrics

import (
	"fmt"
	"strings"
)

// This file is the metrics-federation layer: every process exports its
// counters and histograms as a NodeStats snapshot (the dist stats call's
// payload), the pool folds the per-worker snapshots into a ClusterStats,
// and because every Histogram shares the same fixed bucket bounds the
// cluster aggregate is an exact sum — Merged() loses nothing, and the
// invariant "merged totals == sum of per-worker totals" is testable to
// the last observation.

// NamedSnapshot pairs a histogram snapshot with its stable metric name
// ("batch", "decode", "map", "encode" for workers).
type NamedSnapshot struct {
	// Name is the metric family suffix (the obs server renders worker
	// family "batch" as slider_worker_batch_seconds).
	Name string
	// Snap is the snapshot itself.
	Snap HistogramSnapshot
}

// NodeStats is one process's exportable observability state: identity,
// work count, fault counters, and named latency histograms. It is the
// unit of metrics federation — what a worker returns from a stats call
// and what the pool caches per worker.
type NodeStats struct {
	// Node is the process's self-reported name.
	Node string
	// Addr is the dial address the pool reached it on (filled by the
	// pool; empty in a worker's own snapshot).
	Addr string
	// Served counts map tasks the node has executed.
	Served int64
	// Faults is the node's fault-event snapshot.
	Faults FaultStats
	// Hists holds the node's named histograms in a stable order.
	Hists []NamedSnapshot
}

// Hist returns the named histogram snapshot and whether it exists.
func (n NodeStats) Hist(name string) (HistogramSnapshot, bool) {
	for _, h := range n.Hists {
		if h.Name == name {
			return h.Snap, true
		}
	}
	return HistogramSnapshot{}, false
}

// Add returns the bucket-wise sum of two snapshots — exact because every
// Histogram shares the same fixed bounds (the property Merge relies on,
// lifted to the value type so federation can fold snapshots that crossed
// the wire without reconstructing live histograms).
func (s HistogramSnapshot) Add(o HistogramSnapshot) HistogramSnapshot {
	out := HistogramSnapshot{Count: s.Count + o.Count, SumNs: s.SumNs + o.SumNs}
	for i := range s.Counts {
		out.Counts[i] = s.Counts[i] + o.Counts[i]
	}
	return out
}

// Merge returns the counter-wise sum of two fault snapshots, including
// their RPC latency histograms — the cluster-level fold.
func (s FaultStats) Merge(o FaultStats) FaultStats {
	return FaultStats{
		Retries:          s.Retries + o.Retries,
		DeadlinesExpired: s.DeadlinesExpired + o.DeadlinesExpired,
		Redials:          s.Redials + o.Redials,
		CorruptFrames:    s.CorruptFrames + o.CorruptFrames,
		HedgesLaunched:   s.HedgesLaunched + o.HedgesLaunched,
		HedgesWon:        s.HedgesWon + o.HedgesWon,
		BreakerOpened:    s.BreakerOpened + o.BreakerOpened,
		BreakerHalfOpen:  s.BreakerHalfOpen + o.BreakerHalfOpen,
		BreakerClosed:    s.BreakerClosed + o.BreakerClosed,
		BudgetExhausted:  s.BudgetExhausted + o.BudgetExhausted,
		LocalFallbacks:   s.LocalFallbacks + o.LocalFallbacks,
		MemoRecomputes:   s.MemoRecomputes + o.MemoRecomputes,
		RPCLatency:       s.RPCLatency.Add(o.RPCLatency),
	}
}

// ClusterStats is the pool's federated view of its workers: one NodeStats
// per worker that has answered a Stats poll, ordered by address.
type ClusterStats struct {
	// Workers holds the latest snapshot from each worker.
	Workers []NodeStats
}

// Merged folds every worker snapshot into one cluster-level NodeStats:
// served counts and fault counters sum, and histograms with the same name
// merge bucket-by-bucket. Because the fold is exact (fixed shared bucket
// bounds), Merged's totals always equal the sum of the per-worker totals.
func (c ClusterStats) Merged() NodeStats {
	out := NodeStats{Node: "cluster"}
	idx := make(map[string]int)
	for _, w := range c.Workers {
		out.Served += w.Served
		out.Faults = out.Faults.Merge(w.Faults)
		for _, h := range w.Hists {
			if i, ok := idx[h.Name]; ok {
				out.Hists[i].Snap = out.Hists[i].Snap.Add(h.Snap)
			} else {
				idx[h.Name] = len(out.Hists)
				out.Hists = append(out.Hists, h)
			}
		}
	}
	return out
}

// String renders the cluster section of a stats line: worker count,
// total served tasks, the merged batch-latency quantiles, and the merged
// fault counters.
func (c ClusterStats) String() string {
	if len(c.Workers) == 0 {
		return "cluster: no worker stats federated yet"
	}
	m := c.Merged()
	var b strings.Builder
	fmt.Fprintf(&b, "cluster[%d workers served=%d", len(c.Workers), m.Served)
	if batch, ok := m.Hist("batch"); ok && batch.total() > 0 {
		fmt.Fprintf(&b, " batch-p50=%v batch-p95=%v", batch.Quantile(0.50), batch.Quantile(0.95))
	}
	b.WriteString("]")
	for _, w := range c.Workers {
		fmt.Fprintf(&b, " %s=%d", w.Node, w.Served)
	}
	fmt.Fprintf(&b, "; faults: %s", m.Faults)
	return b.String()
}
