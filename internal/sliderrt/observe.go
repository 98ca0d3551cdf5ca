package sliderrt

import (
	"strconv"
	"time"

	"slider/internal/core"
	"slider/internal/mapreduce"
	"slider/internal/metrics"
)

// This file is the runtime's observability surface: per-slide latency
// histograms and span traces (Config.Obs), plus the atomically published
// contraction-tree snapshot behind the obs server's /debug/tree. The
// Runtime itself is not safe for concurrent use, so nothing here lets an
// HTTP goroutine touch live trees: readers get immutable snapshots
// swapped in at slide boundaries.

// TreeSnapshot is an immutable structural snapshot of the runtime's
// contraction trees, published at the end of a slide's upkeep. It is what
// /debug/tree serves: the §3 shape invariants (height, per-level node
// population), the memoization hit ratio, and the window fingerprint,
// all safe to read while the next slide runs.
type TreeSnapshot struct {
	// SlideID identifies the slide whose upkeep published this snapshot
	// (1 = initial run).
	SlideID uint64
	// Mode is the window mode letter ("A", "F", "V").
	Mode string
	// Variant names the backend in use (Backend.String).
	Variant string
	// Partitions holds one shape per reduce partition.
	Partitions []core.TreeShape
	// Live is the number of live splits in the window; WindowLo the
	// sequence number of the oldest.
	Live     int
	WindowLo uint64
	// MemoHits/MemoMisses are the memoization layer's read counters for
	// the slide that published the snapshot (the runtime resets read
	// stats at the start of every run).
	MemoHits   int64
	MemoMisses int64
	// Fingerprint is an order-dependent combination of every partition
	// tree's payload fingerprint — two runtimes that processed the same
	// window agree on it (the sim harness's differential-oracle check,
	// made visible to operators).
	Fingerprint uint64
}

// HitRatio returns the memoization hit ratio in [0, 1] (0 when no reads
// have happened).
func (s *TreeSnapshot) HitRatio() float64 {
	if s == nil || s.MemoHits+s.MemoMisses == 0 {
		return 0
	}
	return float64(s.MemoHits) / float64(s.MemoHits+s.MemoMisses)
}

// TreeSnapshot returns the latest published tree snapshot (nil before
// the first slide's upkeep has run) and requests a fresh one: the runtime
// re-publishes once the next slide's upkeep has run (Background, or the
// entry point after it that runs it first). Safe to call from any
// goroutine — repeated polling (the /debug/tree endpoint) therefore
// stays at most one slide stale while costing the slide path nothing
// beyond one atomic check.
func (rt *Runtime) TreeSnapshot() *TreeSnapshot {
	rt.snapReq.Store(true)
	return rt.treeSnap.Load()
}

// Observability returns the installed instrumentation bundle (nil when
// the runtime runs unobserved).
func (rt *Runtime) Observability() *metrics.SlideObs { return rt.cfg.Obs }

// FaultRecorder returns the runtime's fault-event recorder: its MapRunner's
// when the runner has one (a dist.Pool does), else its own.
func (rt *Runtime) FaultRecorder() *metrics.FaultRecorder { return rt.faults }

// publishTreeSnapshot swaps in a fresh snapshot when one was requested
// (or none exists yet). Called at the end of every slide's upkeep
// (Background) from the runtime's own goroutine, where walking live trees
// is safe: off the answer path, and with nothing left pending, so that the
// shapes and the fingerprint describe one state and taking the fingerprint
// replays nothing.
func (rt *Runtime) publishTreeSnapshot() {
	requested := rt.snapReq.Swap(false)
	if !requested && rt.treeSnap.Load() != nil {
		return
	}
	rt.treeSnap.Store(rt.buildTreeSnapshot())
}

// buildTreeSnapshot walks every partition tree for its shape and payload
// fingerprint. O(materialized nodes) — runs only when a snapshot was
// requested.
func (rt *Runtime) buildTreeSnapshot() *TreeSnapshot {
	snap := &TreeSnapshot{
		SlideID:  uint64(rt.runs),
		Mode:     rt.cfg.Mode.String(),
		Variant:  rt.backend.String(),
		Live:     rt.live,
		WindowLo: rt.windowLo,
	}
	ms := rt.store.Stats()
	snap.MemoHits, snap.MemoMisses = ms.Hits, ms.Misses
	pfp := func(s sized) uint64 { return mapreduce.FingerprintPayload(s.P) }
	for _, agg := range rt.aggs {
		snap.Partitions = append(snap.Partitions, agg.Shape())
		snap.Fingerprint = snap.Fingerprint*0x9e3779b97f4a7c15 + agg.FingerprintWith(pfp)
	}
	return snap
}

// slideObs carries one slide's instrumentation state: the root span, the
// fault-counter baseline, and the end-to-end clock. With Config.Obs nil
// every method degenerates to nil checks.
type slideObs struct {
	rt     *Runtime
	span   *metrics.Span
	start  time.Time
	before metrics.FaultStats
	ended  bool
}

// beginSlide opens the slide's root span (subject to the tracer's
// sampling), publishes it as the active span for cross-cutting
// components (the dist pool), and snapshots the fault counters so the
// slide's degradation events can be attributed to it by difference.
func (rt *Runtime) beginSlide(label string) slideObs {
	s := slideObs{rt: rt, start: time.Now()}
	if o := rt.cfg.Obs; o != nil {
		s.span = o.Tracer.StartSlide(uint64(rt.runs)+1, label)
		o.Tracer.SetActive(s.span)
		if s.span != nil {
			s.before = rt.faults.Snapshot()
		}
	}
	return s
}

// phaseObs times one phase of a slide.
type phaseObs struct {
	span  *metrics.Span
	hist  *metrics.Histogram
	start time.Time
}

// phase opens a phase sub-span and selects the phase's latency
// histogram ("map", "contract", "reduce").
func (s *slideObs) phase(name string) phaseObs {
	p := phaseObs{start: time.Now(), span: s.span.Child(name + " phase")}
	if o := s.rt.cfg.Obs; o != nil {
		switch name {
		case "map":
			p.hist = &o.Map
		case "contract":
			p.hist = &o.Contract
		case "reduce":
			p.hist = &o.Reduce
		}
	}
	return p
}

// end closes the phase: one histogram observation plus the sub-span.
func (p phaseObs) end() {
	if p.hist != nil {
		p.hist.Observe(time.Since(p.start))
	}
	p.span.End()
}

// partitionSpan opens one partition's sub-span under a phase span, with
// no formatting cost when tracing is off.
func partitionSpan(parent *metrics.Span, p int) *metrics.Span {
	if parent == nil {
		return nil
	}
	return parent.Child("partition " + strconv.Itoa(p))
}

// endPartitionSpan annotates a partition span with the tree work and
// shape the partition's update produced, then closes it. before is the
// partition tree's stats at span start. No-op (and no tree walk) when
// the span was not recorded.
func (rt *Runtime) endPartitionSpan(ps *metrics.Span, p int, before core.Stats) {
	if ps == nil {
		return
	}
	d := statsDelta(before, rt.aggs[p].Stats())
	ps.Event("tree: merges=%d recomputed=%d reused=%d", d.Merges, d.NodesRecomputed, d.NodesReused)
	sh := rt.aggs[p].Shape()
	ps.Event("shape: %s height=%d live=%d nodes=%d levels=%v", sh.Variant, sh.Height, sh.Live, sh.Nodes, sh.Levels)
	ps.End()
}

// finish completes a successful slide: the end-to-end histogram
// observation, the fault-delta annotation (marking the slide degraded
// when any degradation-path event fired during it) and the span commit.
// It also stamps the slide ID onto the result.
func (s *slideObs) finish(res *RunResult) {
	s.ended = true
	res.SlideID = uint64(s.rt.runs)
	o := s.rt.cfg.Obs
	if o != nil {
		o.Slide.Observe(time.Since(s.start))
		o.Tracer.SetActive(nil)
	}
	if s.span != nil {
		d := s.rt.faults.Snapshot().Sub(s.before)
		if d.Degraded() {
			s.span.MarkDegraded()
		}
		d.EachCounter(func(name string, v int64) {
			if v != 0 {
				s.span.Event("faults: %s=%d", name, v)
			}
		})
		s.span.End()
	}
}

// abort closes the slide's span on an error return (deferred; a no-op
// after finish).
func (s *slideObs) abort() {
	if s.ended {
		return
	}
	s.ended = true
	if o := s.rt.cfg.Obs; o != nil {
		o.Tracer.SetActive(nil)
	}
	if s.span != nil {
		s.span.Event("slide aborted with error")
		s.span.End()
	}
}
