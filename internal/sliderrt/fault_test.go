package sliderrt

import (
	"errors"
	"testing"

	"slider/internal/core"
	"slider/internal/mapreduce"
)

// TestMemoUnavailableDegradesToRecompute fails a partition-state key's
// home node and every persistent replica, then slides the window: the
// memoized root-path read comes back memo.ErrUnavailable, the runtime
// degrades to recomputation (counted, and charged to the cost model),
// and the slide output still matches recomputation from scratch. After
// RecoverNode the entry is readable again and memo hits resume.
func TestMemoUnavailableDegradesToRecompute(t *testing.T) {
	job := wordCountJob()
	memoCfg := testMemoConfig()
	memoCfg.Replicas = 2
	rt, err := New(job, Config{Mode: Variable, Memo: memoCfg})
	if err != nil {
		t.Fatal(err)
	}

	window := genSplits(0, 8, 4, 7)
	next := 8
	if _, err := rt.Initial(window); err != nil {
		t.Fatal(err)
	}
	advance := func() *RunResult {
		t.Helper()
		add := genSplits(next, 2, 4, 7)
		next += 2
		res, err := rt.Advance(2, add)
		if err != nil {
			t.Fatalf("advance: %v", err)
		}
		window = append(window[2:], add...)
		wantSameOutput(t, res.Output, scratch(t, job, window))
		return res
	}

	// Healthy slide: the partition-state reads must all hit.
	advance()
	if n := rt.FaultStats().MemoRecomputes; n != 0 {
		t.Fatalf("healthy slide recorded %d memo recomputes", n)
	}

	// Take down partition 0's state entirely: its key's home node plus
	// both replicas (home+1, home+2 — the store's placement rule).
	store := rt.Store()
	home := store.HomeNode("part:0")
	nodes := memoCfg.Nodes
	failed := []int{home, (home + 1) % nodes, (home + 2) % nodes}
	for _, n := range failed {
		store.FailNode(n)
	}

	advance()
	recomputes := rt.FaultStats().MemoRecomputes
	if recomputes == 0 {
		t.Fatal("full-replica failure did not trigger a recompute")
	}
	if store.Stats().Unavailable == 0 {
		t.Fatal("store never reported an unavailable read")
	}

	for _, n := range failed {
		store.RecoverNode(n)
	}
	// First slide after recovery reads the surviving persistent replica
	// (a miss, with read-repair); no new recomputes.
	advance()
	if n := rt.FaultStats().MemoRecomputes; n != recomputes {
		t.Fatalf("recomputes grew to %d after recovery", n)
	}
	// Read-repair restored the in-memory copy: the next slide's state
	// read is a memory hit again.
	hits := store.Stats().Hits
	advance()
	if store.Stats().Hits <= hits {
		t.Fatal("memo hits did not resume after recovery")
	}
}

// TestMemoRecomputeChargesCostModel: the degraded read must charge the
// re-materialized state to the write-cost model rather than silently
// dropping the I/O (Table 2 accounting stays honest under faults).
func TestMemoRecomputeChargesCostModel(t *testing.T) {
	job := wordCountJob()
	rt, err := New(job, Config{Mode: Variable, Memo: testMemoConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Initial(genSplits(0, 6, 4, 7)); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < testMemoConfig().Nodes; n++ {
		rt.Store().FailNode(n)
	}
	before := rt.Store().Stats().WriteTimeNs
	if _, err := rt.Advance(1, genSplits(6, 1, 4, 7)); err != nil {
		t.Fatalf("advance with every memo node down: %v", err)
	}
	if rt.FaultStats().MemoRecomputes == 0 {
		t.Fatal("no recompute recorded with every node down")
	}
	if rt.Store().Stats().WriteTimeNs <= before {
		t.Fatal("recompute did not charge the write-cost model")
	}
}

// failingAgg is a partition's aggregator whose updates fail.
type failingAgg struct {
	core.Aggregator[sized]
	core.OutOfOrder[sized]
}

var errApply = errors.New("apply failed")

func (failingAgg) Slide(int, []sized) ([]sized, error) { return nil, errApply }
func (failingAgg) InsertAt(int, sized) error           { return errApply }

// TestFailedRunPoisonsStartedWindow: a run that fails once the window has
// begun to move leaves some partitions moved and others not, so a started
// window refuses every later run with the failure; a first window that
// could not be built has lost nothing and Initial may be called again.
func TestFailedRunPoisonsStartedWindow(t *testing.T) {
	for _, c := range []struct {
		name string
		run  func(h *oooHarness) error
	}{
		{"advance", func(h *oooHarness) error { _, err := h.rt.Advance(2, h.take(2)); return err }},
		{"late", func(h *oooHarness) error { _, err := h.rt.AdvanceLate(1, h.take(1)); return err }},
	} {
		t.Run(c.name, func(t *testing.T) {
			h := newOOOHarness(t, oooConfig(1))
			h.rt.aggs[1] = failingAgg{h.rt.aggs[1], h.rt.aggs[1].(core.OutOfOrder[sized])}
			if err := c.run(h); !errors.Is(err, errApply) {
				t.Fatalf("err = %v, want the apply failure", err)
			}
			h.rt.aggs[1] = h.rt.aggs[1].(failingAgg).Aggregator
			_, errSlide := h.rt.Advance(2, h.take(2))
			_, errLate := h.rt.AdvanceLate(1, h.take(1))
			if !errors.Is(errSlide, errApply) || !errors.Is(errLate, errApply) {
				t.Fatalf("after a failed %s run: Advance err = %v, AdvanceLate err = %v, want both refused with it", c.name, errSlide, errLate)
			}
		})
	}
	t.Run("initial", func(t *testing.T) {
		job := wordCountJob()
		rt, err := New(job, oooConfig(1))
		if err != nil {
			t.Fatal(err)
		}
		window := genSplits(0, 10, 4, 7)
		bad := append([]mapreduce.Split{}, window...)
		bad[9] = mapreduce.Split{ID: "bad", Records: []mapreduce.Record{42}}
		if _, err := rt.Initial(bad); err == nil {
			t.Fatal("initial run over an unmappable record succeeded")
		}
		res, err := rt.Initial(window)
		if err != nil {
			t.Fatalf("Initial after a failed first Initial: %v", err)
		}
		wantSameOutput(t, res.Output, scratch(t, job, window))
		add := genSplits(10, 2, 4, 7)
		if res, err = rt.Advance(2, add); err != nil {
			t.Fatal(err)
		}
		wantSameOutput(t, res.Output, scratch(t, job, append(window[2:], add...)))
	})
}
