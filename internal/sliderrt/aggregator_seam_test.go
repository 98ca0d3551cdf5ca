package sliderrt

import (
	"errors"
	"strings"
	"testing"

	"slider/internal/core"
	"slider/internal/metrics"
)

// The runtime holds its window structures behind core.Aggregator, so a
// package-internal test can put a fake in rt.aggs to provoke what the real
// structures only do under a bug: a failing background step, a snapshot the
// target of a live switch cannot restore.

// fakeAgg wraps a real aggregator and overrides one behaviour.
type fakeAgg struct {
	core.Aggregator[sized]
	backgroundErr error
	snapshot      func(core.State[sized]) core.State[sized]
}

func (f *fakeAgg) Background() (bool, error) {
	if f.backgroundErr != nil {
		return false, f.backgroundErr
	}
	return f.Aggregator.Background()
}

func (f *fakeAgg) Snapshot() core.State[sized] {
	st := f.Aggregator.Snapshot()
	if f.snapshot != nil {
		st = f.snapshot(st)
	}
	return st
}

// TestBackgroundErrorFailsTheSlide: a background step that fails used to be
// dropped — Advance reported success while the partitions after the failing
// one never installed their bucket. Now the slide fails, names the
// partition, and the runtime refuses to slide a window it can no longer
// vouch for.
func TestBackgroundErrorFailsTheSlide(t *testing.T) {
	job := wordCountJob()
	cfg := Config{Mode: Fixed, Backend: BackendRotating, SplitProcessing: true,
		BucketSplits: 2, WindowBuckets: 4, Memo: testMemoConfig()}
	rt, err := New(job, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Initial(genSplits(0, 8, 4, 7)); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Advance(2, genSplits(8, 2, 4, 7)); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk on fire")
	rt.aggs[1] = &fakeAgg{Aggregator: rt.aggs[1], backgroundErr: boom}

	_, err = rt.Advance(2, genSplits(10, 2, 4, 7))
	if !errors.Is(err, boom) {
		t.Fatalf("Advance error = %v, want the background failure", err)
	}
	if !strings.Contains(err.Error(), "partition 1") {
		t.Fatalf("error does not name the partition: %v", err)
	}
	// The fault is gone, the damage is not: partition 2 never ran its
	// background step, so the window must stay refused.
	rt.aggs[1] = rt.aggs[1].(*fakeAgg).Aggregator
	if _, err := rt.Advance(2, genSplits(12, 2, 4, 7)); !errors.Is(err, boom) {
		t.Fatalf("Advance after a failed background step = %v, want refusal", err)
	}
}

// TestFailedLiveSwitchKeepsTheWindow: the live switch used to drop the
// current structures before restoring into the new ones and panicked when a
// restore failed. Now the targets are built aside; one partition whose
// snapshot cannot be restored abandons the switch, the runtime stays on its
// backend with every window intact, and the slide's span says why.
func TestFailedLiveSwitchKeepsTheWindow(t *testing.T) {
	job := wordCountJob()
	obs := metrics.NewSlideObs()
	want := BackendDaba
	cfg := Config{Mode: Fixed, BucketSplits: 2, WindowBuckets: 4, Memo: testMemoConfig(), Obs: obs,
		SwitchHook: func(Backend, metrics.HistogramSnapshot) Backend { return want }}
	rt, err := New(job, cfg)
	if err != nil {
		t.Fatal(err)
	}
	window := genSplits(0, 8, 4, 7)
	next := 8
	if _, err := rt.Initial(window); err != nil {
		t.Fatal(err)
	}
	advance := func() {
		t.Helper()
		add := genSplits(next, 2, 4, 7)
		next += 2
		before := rt.Backend()
		res, err := rt.Advance(2, add)
		if err != nil {
			t.Fatal(err)
		}
		window = append(window[2:], add...)
		wantSameOutput(t, res.Output, scratch(t, job, window))
		if rt.Backend() == before { // SpaceBytes describes the structure the slide ran on
			wantSpaceOracle(t, rt, job, res)
		}
	}
	advance()

	// Partition 2 hands the switch a window one bucket short.
	rt.aggs[2] = &fakeAgg{Aggregator: rt.aggs[2], snapshot: func(st core.State[sized]) core.State[sized] {
		st.Elems = st.Elems[:len(st.Elems)-1]
		return st
	}}
	want = BackendRotating
	advance()
	if rt.Backend() != BackendDaba {
		t.Fatalf("backend = %v after a switch that could not complete, want daba", rt.Backend())
	}
	trace := obs.Tracer.Recent(1)[0].Format()
	if !strings.Contains(trace, "abandoned") || !strings.Contains(trace, "partition 2") {
		t.Fatalf("span does not record the abandoned switch:\n%s", trace)
	}
	rt.aggs[2] = rt.aggs[2].(*fakeAgg).Aggregator

	// With the fault gone the same hook switches, and the window carried
	// over is the one the failed attempt left alone.
	advance()
	if rt.Backend() != BackendRotating {
		t.Fatalf("backend = %v, want rotating", rt.Backend())
	}
	advance()
}
