package sliderrt

import (
	"errors"
	"strings"
	"testing"

	"slider/internal/core"
)

// The runtime holds its window structures behind core.Aggregator, so a
// package-internal test can put a fake in rt.aggs to provoke what the real
// structures only do under a bug: a failing background step.

// fakeAgg wraps a real aggregator and overrides one behaviour.
type fakeAgg struct {
	core.Aggregator[sized]
	backgroundErr error
}

func (f *fakeAgg) Background() (bool, error) {
	if f.backgroundErr != nil {
		return false, f.backgroundErr
	}
	return f.Aggregator.Background()
}

// TestBackgroundErrorFailsTheSlide: a background step that fails used to be
// dropped — Advance reported success while the partitions after the failing
// one never installed their bucket. Now the call that runs it fails — here
// the next Advance, which runs the last slide's upkeep first — names the
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
