package metrics

import "time"

// This file is the cross-process half of the span tracer: a worker
// records its batch as an ordinary *Span tree, flattens it into WireSpans
// (ExportWireSpans), and ships those back inline in the RPC response; the
// pool reconstructs them as children of its own batch-attempt span
// (StitchWireSpans), so one slide's trace tree spans every machine that
// touched it.
//
// Wire spans deliberately carry no absolute timestamps — only offsets
// relative to the remote root's start and durations, both measured on the
// remote monotonic clock. Stitching anchors the remote tree at the
// pool-observed send time and clamps every span into the pool-observed
// [send, receive] interval, so arbitrary cross-machine clock skew cannot
// move a worker span outside the RPC that carried it.

// WireEvent is a SpanEvent in wire form.
type WireEvent struct {
	// AtNs is the event's offset from its span's start, in nanoseconds.
	AtNs int64
	// Msg is the annotation text.
	Msg string
}

// WireSpan is one span of a remote trace tree in wire form. Spans travel
// as a flat pre-order slice; Parent links them back into a tree.
type WireSpan struct {
	// Name labels the span.
	Name string
	// Parent is the index of the span's parent within the slice, or −1
	// for the remote root. Exported trees are pre-order, so a valid
	// parent index is always smaller than the span's own.
	Parent int
	// OffsetNs is the span's start offset from the remote root's start,
	// in nanoseconds on the remote clock.
	OffsetNs int64
	// DurationNs is the span's duration in nanoseconds.
	DurationNs int64
	// Degraded marks spans whose slide took a degradation path.
	Degraded bool
	// Events carries the span's annotations.
	Events []WireEvent
}

// ExportWireSpans flattens a span tree into wire form: a pre-order slice
// of WireSpans whose offsets are relative to root's own start. Returns
// nil on a nil root. Safe to call while descendants are still being
// appended (each span is copied under its lock), though callers normally
// export only finished trees.
func ExportWireSpans(root *Span) []WireSpan {
	if root == nil {
		return nil
	}
	var out []WireSpan
	base := root.Start
	var walk func(s *Span, parent int)
	walk = func(s *Span, parent int) {
		s.mu.Lock()
		dur := s.dur
		if !s.done {
			dur = time.Since(s.Start)
		}
		events := append([]SpanEvent(nil), s.events...)
		children := append([]*Span(nil), s.children...)
		degraded := s.degraded
		s.mu.Unlock()

		idx := len(out)
		ws := WireSpan{
			Name:       s.Name,
			Parent:     parent,
			OffsetNs:   s.Start.Sub(base).Nanoseconds(),
			DurationNs: int64(dur),
			Degraded:   degraded,
		}
		if len(events) > 0 {
			ws.Events = make([]WireEvent, 0, len(events))
			for _, ev := range events {
				ws.Events = append(ws.Events, WireEvent{AtNs: int64(ev.At), Msg: ev.Msg})
			}
		}
		out = append(out, ws)
		for _, c := range children {
			walk(c, idx)
		}
	}
	walk(root, -1)
	return out
}

// StitchWireSpans reconstructs a remote span tree as children of parent,
// anchored at the pool-observed send time with the pool-observed RPC
// window (receive − send). Every remote offset and duration is clamped
// into [0, window], so a skewed or lying remote clock can never place a
// span outside the RPC that carried it — the spans stay truthful about
// relative structure and the anchor stays truthful about wall time.
// No-op on a nil parent or empty spans (nil-safety mirrors Span methods).
func StitchWireSpans(parent *Span, spans []WireSpan, anchor time.Time, window time.Duration) {
	if parent == nil || len(spans) == 0 {
		return
	}
	if window < 0 {
		window = 0
	}
	nodes := make([]*Span, len(spans))
	for i, ws := range spans {
		off := time.Duration(ws.OffsetNs)
		if off < 0 {
			off = 0
		}
		if off > window {
			off = window
		}
		dur := time.Duration(ws.DurationNs)
		if dur < 0 {
			dur = 0
		}
		// off+dur can wrap negative for a duration near MaxInt64;
		// window−off cannot, since 0 ≤ off ≤ window.
		if dur > window-off {
			dur = window - off
		}
		s := &Span{
			ID:       parent.ID,
			Trace:    parent.Trace,
			Name:     ws.Name,
			Start:    anchor.Add(off),
			dur:      dur,
			done:     true,
			degraded: ws.Degraded,
		}
		if len(ws.Events) > 0 {
			s.events = make([]SpanEvent, 0, len(ws.Events))
			for _, ev := range ws.Events {
				at := time.Duration(ev.AtNs)
				if at < 0 {
					at = 0
				}
				if at > dur {
					at = dur
				}
				s.events = append(s.events, SpanEvent{At: at, Msg: ev.Msg})
			}
		}
		nodes[i] = s
	}
	for i, ws := range spans {
		// Only backward parent links are honored (exports are pre-order);
		// anything else — including a cycle a corrupted frame could smuggle
		// in — attaches to the local parent instead.
		p := parent
		if ws.Parent >= 0 && ws.Parent < i {
			p = nodes[ws.Parent]
		}
		p.mu.Lock()
		p.children = append(p.children, nodes[i])
		p.mu.Unlock()
	}
}
