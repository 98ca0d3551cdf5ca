package metrics

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

// buildRemoteTree makes a worker-shaped span tree: batch root with three
// phase children and an event, as the worker batch handler records it.
func buildRemoteTree() *Span {
	root := &Span{ID: 7, Name: "batch", Start: time.Now()}
	for _, name := range []string{"decode", "map+combine", "encode"} {
		c := root.Child(name)
		c.Event("split 0")
		c.End()
	}
	root.End()
	return root
}

func TestExportWireSpansShape(t *testing.T) {
	root := buildRemoteTree()
	spans := ExportWireSpans(root)
	if len(spans) != 4 {
		t.Fatalf("exported %d spans, want 4", len(spans))
	}
	if spans[0].Parent != -1 || spans[0].Name != "batch" {
		t.Fatalf("root span = %+v, want parent -1 name batch", spans[0])
	}
	for i := 1; i < 4; i++ {
		if spans[i].Parent != 0 {
			t.Fatalf("span %d parent = %d, want 0", i, spans[i].Parent)
		}
		if spans[i].OffsetNs < 0 {
			t.Fatalf("span %d offset = %d, want >= 0", i, spans[i].OffsetNs)
		}
		if len(spans[i].Events) != 1 || spans[i].Events[0].Msg != "split 0" {
			t.Fatalf("span %d events = %+v", i, spans[i].Events)
		}
	}
	if ExportWireSpans(nil) != nil {
		t.Fatal("nil root should export nil")
	}
}

// TestStitchClockSkewClamped is the skew test the issue asks for: worker
// spans with deliberately absurd clocks — offsets before the RPC was
// sent, durations longer than the RPC took — must land strictly inside
// the pool-observed [send, receive] anchor bounds after stitching.
func TestStitchClockSkewClamped(t *testing.T) {
	anchor := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	window := 10 * time.Millisecond

	spans := []WireSpan{
		// Root claims to have started 5s before the pool sent the RPC and
		// run for a minute.
		{Name: "batch", Parent: -1, OffsetNs: -int64(5 * time.Second), DurationNs: int64(time.Minute),
			Events: []WireEvent{{AtNs: -int64(time.Second), Msg: "early"}, {AtNs: int64(time.Hour), Msg: "late"}}},
		// Child starts far beyond the window.
		{Name: "map+combine", Parent: 0, OffsetNs: int64(time.Hour), DurationNs: int64(time.Second)},
		// Child with a plausible offset but an overlong duration.
		{Name: "encode", Parent: 0, OffsetNs: int64(4 * time.Millisecond), DurationNs: int64(time.Minute)},
	}

	parent := &Span{ID: 42, Trace: 99, Name: "rpc w1", Start: anchor}
	StitchWireSpans(parent, spans, anchor, window)

	parent.mu.Lock()
	kids := append([]*Span(nil), parent.children...)
	parent.mu.Unlock()
	if len(kids) != 1 {
		t.Fatalf("parent has %d direct children, want 1 (the remote root)", len(kids))
	}
	lo, hi := anchor, anchor.Add(window)
	var check func(s *Span)
	check = func(s *Span) {
		if s.ID != 42 || s.Trace != 99 {
			t.Fatalf("span %q ID/Trace = %d/%d, want 42/99", s.Name, s.ID, s.Trace)
		}
		if s.Start.Before(lo) || s.Start.After(hi) {
			t.Fatalf("span %q starts at %v, outside anchor bounds [%v, %v]", s.Name, s.Start, lo, hi)
		}
		s.mu.Lock()
		dur, events, children := s.dur, append([]SpanEvent(nil), s.events...), append([]*Span(nil), s.children...)
		s.mu.Unlock()
		if end := s.Start.Add(dur); end.After(hi) {
			t.Fatalf("span %q ends at %v, after anchor bound %v", s.Name, end, hi)
		}
		for _, ev := range events {
			if ev.At < 0 || ev.At > dur {
				t.Fatalf("span %q event %q at %v, outside [0, %v]", s.Name, ev.Msg, ev.At, dur)
			}
		}
		for _, c := range children {
			check(c)
		}
	}
	check(kids[0])

	// The remote structure must survive the clamping: batch has two
	// children with their original names.
	kids[0].mu.Lock()
	grand := append([]*Span(nil), kids[0].children...)
	kids[0].mu.Unlock()
	if len(grand) != 2 || grand[0].Name != "map+combine" || grand[1].Name != "encode" {
		t.Fatalf("remote tree structure lost: %+v", grand)
	}
}

// TestStitchClampsOverflowingDuration: a duration near MaxInt64 behind a
// positive offset is clamped like any other overlong one. (The clamp used to
// test off+dur > window, which that sum wraps negative: the span kept its
// 2 562 047-hour duration inside a 1 ms RPC.)
func TestStitchClampsOverflowingDuration(t *testing.T) {
	anchor := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	window := time.Millisecond
	for _, off := range []int64{1, int64(window / 2), int64(window)} {
		parent := &Span{Name: "rpc", Start: anchor}
		StitchWireSpans(parent, []WireSpan{{Name: "batch", Parent: -1, OffsetNs: off, DurationNs: math.MaxInt64,
			Events: []WireEvent{{AtNs: math.MaxInt64, Msg: "late"}}}}, anchor, window)
		s := parent.children[0]
		if end := s.Start.Add(s.dur); end.After(anchor.Add(window)) || s.dur < 0 {
			t.Fatalf("offset %d: span lasts %v and ends %v after the anchor, window %v", off, s.dur, end.Sub(anchor), window)
		}
		if at := s.events[0].At; at < 0 || at > s.dur {
			t.Fatalf("offset %d: event at %v, outside [0, %v]", off, at, s.dur)
		}
	}
}

// FuzzStitchWireSpans: whatever a reply carries — any offsets, durations,
// event times and parent links — stitching does not panic, every span and
// event lands inside [anchor, anchor+window], and the spans form a tree under
// the local parent: each reached once, by a path that ends there.
func FuzzStitchWireSpans(f *testing.F) {
	f.Add([]byte{}, int64(time.Millisecond))
	f.Add([]byte("\x00\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d\x0e\x0f\x10\x11\x12"), int64(0))
	f.Add(bytes.Repeat([]byte{0x7f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, 6), int64(time.Second))
	f.Add(bytes.Repeat([]byte{0x80, 0, 0, 0, 0, 0, 0, 0, 0xfe}, 6), int64(-1))
	f.Fuzz(func(t *testing.T, data []byte, windowNs int64) {
		// Each span takes 25 bytes: offset, duration and one event's time,
		// eight big-endian bytes each, and a parent index (one signed byte).
		var spans []WireSpan
		for len(data) >= 25 && len(spans) < 64 {
			word := func(i int) int64 { return int64(binary.BigEndian.Uint64(data[8*i:])) }
			spans = append(spans, WireSpan{
				Name:       fmt.Sprint("s", len(spans)),
				Parent:     int(int8(data[24])),
				OffsetNs:   word(0),
				DurationNs: word(1),
				Events:     []WireEvent{{AtNs: word(2), Msg: "e"}},
			})
			data = data[25:]
		}
		anchor := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
		window := time.Duration(windowNs)
		parent := &Span{ID: 1, Trace: 2, Name: "rpc", Start: anchor}
		StitchWireSpans(parent, spans, anchor, window)
		hi := anchor.Add(max(window, 0))
		seen := map[*Span]bool{}
		var walk func(s *Span)
		walk = func(s *Span) {
			for _, c := range s.children {
				if seen[c] {
					t.Fatalf("span %q is reached twice", c.Name)
				}
				seen[c] = true
				if c.Start.Before(anchor) || c.Start.Add(c.dur).After(hi) || c.dur < 0 {
					t.Fatalf("span %q covers [%v, %v] after the anchor, window %v", c.Name, c.Start.Sub(anchor), c.Start.Add(c.dur).Sub(anchor), window)
				}
				for _, ev := range c.events {
					if at := c.Start.Add(ev.At); ev.At < 0 || at.After(hi) {
						t.Fatalf("span %q: event at %v after the anchor, window %v", c.Name, at.Sub(anchor), window)
					}
				}
				walk(c)
			}
		}
		walk(parent)
		if len(seen) != len(spans) {
			t.Fatalf("%d of %d spans hang under the local parent", len(seen), len(spans))
		}
	})
}

func TestStitchRejectsForwardAndCyclicParents(t *testing.T) {
	anchor := time.Now()
	spans := []WireSpan{
		{Name: "a", Parent: 1, DurationNs: 100}, // forward link: invalid
		{Name: "b", Parent: 1, DurationNs: 100}, // self link: invalid
		{Name: "c", Parent: 0, DurationNs: 100}, // valid backward link
	}
	parent := &Span{ID: 1, Name: "rpc", Start: anchor}
	StitchWireSpans(parent, spans, anchor, time.Millisecond)
	parent.mu.Lock()
	defer parent.mu.Unlock()
	// a and b both attach to the local parent; c attaches under a.
	if len(parent.children) != 2 {
		t.Fatalf("parent has %d children, want 2 (invalid links fall back to local parent)", len(parent.children))
	}
}

func TestStitchNilSafe(t *testing.T) {
	StitchWireSpans(nil, []WireSpan{{Name: "x"}}, time.Now(), time.Second)
	StitchWireSpans(&Span{Name: "p", Start: time.Now()}, nil, time.Now(), time.Second)
}

func TestExportStitchRoundTripInFormat(t *testing.T) {
	remote := buildRemoteTree()
	wire := ExportWireSpans(remote)

	tr := NewTracer(4)
	slide := tr.StartSlide(3, "slide")
	rpc := slide.Child("rpc worker-1")
	StitchWireSpans(rpc, wire, rpc.Start, 5*time.Millisecond)
	rpc.End()
	slide.End()

	got := tr.Find(3)
	if got == nil {
		t.Fatal("Find(3) returned nil after commit")
	}
	text := got.Format()
	for _, want := range []string{"rpc worker-1", "batch", "decode", "map+combine", "encode"} {
		if !strings.Contains(text, want) {
			t.Fatalf("flame summary missing %q:\n%s", want, text)
		}
	}
}

func TestTracerFind(t *testing.T) {
	tr := NewTracer(2)
	for id := uint64(1); id <= 3; id++ {
		s := tr.StartSlide(id, "s")
		s.End()
	}
	if tr.Find(1) != nil {
		t.Fatal("slide 1 should have been evicted from a 2-slot ring")
	}
	if s := tr.Find(3); s == nil || s.ID != 3 {
		t.Fatalf("Find(3) = %v", s)
	}
	if (*Tracer)(nil).Find(3) != nil {
		t.Fatal("nil tracer Find should return nil")
	}
}

func TestSpanNilGetters(t *testing.T) {
	var s *Span
	if s.SlideID() != 0 || s.TraceID() != 0 {
		t.Fatal("nil span getters should return 0")
	}
	tr := NewTracer(1)
	a := tr.StartSlide(9, "a")
	if a.SlideID() != 9 || a.TraceID() == 0 {
		t.Fatalf("slide=%d trace=%d", a.SlideID(), a.TraceID())
	}
	if c := a.Child("c"); c.TraceID() != a.TraceID() {
		t.Fatal("child must inherit the trace ID")
	}
	b := tr.StartSlide(10, "b")
	if b.TraceID() == a.TraceID() {
		t.Fatal("distinct slides must get distinct trace IDs")
	}
}
