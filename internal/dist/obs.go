package dist

import (
	"slider/internal/metrics"
)

// This file is the worker-side observability bundle. A Worker with no
// bundle installed (the default, and what running slider-worker without
// -obs-addr gets) records nothing: the batch handler's instrumentation is
// a nil pointer load plus nil-safe span calls, with zero allocations —
// the property TestWorkerNoObsZeroAllocDelta pins down. Installing a
// bundle (Worker.SetObs) turns on the per-batch span ring that trace
// propagation exports and the histograms the stats call federates.

// DefaultWorkerTraceCapacity is the worker batch-span ring size.
const DefaultWorkerTraceCapacity = 128

// WorkerObs bundles a worker's observability state: a bounded span ring
// for batch traces plus the fault counters and per-phase latency
// histograms the stats call exports for federation.
type WorkerObs struct {
	// Tracer retains the last batches' span trees (decode, map+combine,
	// encode per split). Batch spans are keyed by the originating slide ID.
	Tracer *metrics.Tracer
	// Faults records worker-side fault events (a request frame failing
	// its checksum counts as a corrupt frame).
	Faults *metrics.FaultRecorder
	// Batch, Decode, Map, Encode are per-phase latency histograms; Map
	// includes the fused map-side combine. Mergeable with any other
	// metrics.Histogram, which is what the pool's federation loop does.
	Batch  *metrics.Histogram
	Decode *metrics.Histogram
	Map    *metrics.Histogram
	Encode *metrics.Histogram
}

// NewWorkerObs returns a ready-to-install bundle.
func NewWorkerObs() *WorkerObs {
	return &WorkerObs{
		Tracer: metrics.NewTracer(DefaultWorkerTraceCapacity),
		Faults: &metrics.FaultRecorder{},
		Batch:  &metrics.Histogram{},
		Decode: &metrics.Histogram{},
		Map:    &metrics.Histogram{},
		Encode: &metrics.Histogram{},
	}
}

// histSnapshots exports the bundle's histograms in their stable wire
// order ("batch", "decode", "map", "encode").
func (o *WorkerObs) histSnapshots() []metrics.NamedSnapshot {
	if o == nil {
		return nil
	}
	return []metrics.NamedSnapshot{
		{Name: "batch", Snap: o.Batch.Snapshot()},
		{Name: "decode", Snap: o.Decode.Snapshot()},
		{Name: "map", Snap: o.Map.Snapshot()},
		{Name: "encode", Snap: o.Encode.Snapshot()},
	}
}

// SetObs installs (or, with nil, removes) the worker's observability
// bundle. Safe to call while batches run; in-flight batches keep the
// bundle they loaded at entry.
func (w *Worker) SetObs(o *WorkerObs) { w.obs.Store(o) }

// Obs returns the installed observability bundle, or nil.
func (w *Worker) Obs() *WorkerObs { return w.obs.Load() }

// StatsSnapshot exports the worker's federation snapshot: identity, work
// count, fault counters, and per-phase histograms — what a stats call is
// answered with (one value frame), also usable in-process.
func (w *Worker) StatsSnapshot() metrics.NodeStats {
	out := metrics.NodeStats{Node: w.name, Served: w.Served()}
	if o := w.obs.Load(); o != nil {
		out.Faults = o.Faults.Snapshot()
		out.Hists = o.histSnapshots()
	}
	return out
}
