package sliderrt

import (
	"reflect"
	"strings"
	"testing"

	"slider/internal/metrics"
)

// TestObsInstrumentsSlides runs an observed window and checks every
// instrument fires: slide IDs on results, one observation per run in the
// end-to-end and per-phase histograms, memo read/write latencies, and a
// complete span tree per slide.
func TestObsInstrumentsSlides(t *testing.T) {
	job := wordCountJob()
	obs := metrics.NewSlideObs()
	rt, err := New(job, Config{Mode: Variable, Memo: testMemoConfig(), Obs: obs})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.Initial(genSplits(0, 6, 4, 7))
	if err != nil {
		t.Fatal(err)
	}
	if res.SlideID != 1 {
		t.Fatalf("initial SlideID = %d, want 1", res.SlideID)
	}
	const slides = 4
	next := 6
	for i := 0; i < slides; i++ {
		res, err = rt.Advance(1, genSplits(next, 1, 4, 7))
		if err != nil {
			t.Fatal(err)
		}
		next++
		if want := uint64(i + 2); res.SlideID != want {
			t.Fatalf("slide %d SlideID = %d, want %d", i, res.SlideID, want)
		}
	}

	runs := int64(slides + 1)
	if got := obs.Slide.Count(); got != runs {
		t.Errorf("slide histogram count = %d, want %d", got, runs)
	}
	for _, nh := range obs.All() {
		switch nh.Phase {
		case "map", "contract", "reduce":
			if got := nh.Hist.Count(); got != runs {
				t.Errorf("%s phase count = %d, want %d", nh.Phase, got, runs)
			}
		}
	}
	if obs.MemoRead.Count() == 0 || obs.MemoWrite.Count() == 0 {
		t.Errorf("memo latency not observed: reads=%d writes=%d",
			obs.MemoRead.Count(), obs.MemoWrite.Count())
	}

	if got := obs.Tracer.Committed(); got != runs {
		t.Fatalf("tracer committed %d slides, want %d", got, runs)
	}
	spans := obs.Tracer.Recent(1)
	if len(spans) != 1 || spans[0].ID != uint64(runs) {
		t.Fatalf("Recent(1) = %v", spans)
	}
	out := spans[0].Format()
	for _, want := range []string{"map phase", "contract phase", "reduce phase", "partition 0", "slide: drop=1 add=1", "shape: "} {
		if !strings.Contains(out, want) {
			t.Errorf("span trace missing %q:\n%s", want, out)
		}
	}
	if spans[0].Degraded() {
		t.Errorf("healthy slide marked degraded:\n%s", out)
	}
	if obs.Tracer.Active() != nil {
		t.Error("active span not cleared after slide")
	}

	// Every kind of run goes through one skeleton: an initial run, a slide
	// and a late arrival each leave the same four phases under their own
	// label, and the incremental ones their opening event. The fourth is the
	// run's upkeep, which goes under the run's span whenever it runs: at the
	// start of the next run, or when the caller asks for it.
	cfg := oooConfig(1)
	cfg.Obs = metrics.NewSlideObs()
	h := newOOOHarness(t, cfg)
	h.slide(1, 1)
	h.late(1, 1)
	if err := h.rt.Background(); err != nil {
		t.Fatal(err)
	}
	kinds := []struct{ label, event string }{
		{"initial", ""}, {"advance", "slide: drop=2 add=2"}, {"late", "late: lateness=1 add=1"},
	}
	for i, span := range cfg.Obs.Tracer.Recent(len(kinds)) {
		want := kinds[len(kinds)-1-i] // newest first
		out := span.Format()
		var phases []string
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "  ") && line[2] != ' ' && line[2] != '@' {
				phases = append(phases, strings.TrimSpace(line[:26]))
			}
		}
		if got := strings.Join(phases, ","); got != "map phase,contract phase,reduce phase,background" {
			t.Errorf("%s run has phases %q:\n%s", want.label, got, out)
		}
		if !strings.Contains(out, `"`+want.label+`"`) || !strings.Contains(out, want.event) {
			t.Errorf("%s run: label or event %q missing:\n%s", want.label, want.event, out)
		}
		if want.event == "" && (strings.Contains(out, "slide: ") || strings.Contains(out, "late: ")) {
			t.Errorf("initial run carries an incremental run's event:\n%s", out)
		}
	}
}

// TestObsDegradedSlideTrace fails every memo node mid-stream and checks
// the fault-diff attribution: the slide that had to recompute memoized
// state is marked degraded and carries the fault-event delta.
func TestObsDegradedSlideTrace(t *testing.T) {
	job := wordCountJob()
	obs := metrics.NewSlideObs()
	rt, err := New(job, Config{Mode: Variable, Memo: testMemoConfig(), Obs: obs})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Initial(genSplits(0, 6, 4, 7)); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < testMemoConfig().Nodes; n++ {
		rt.Store().FailNode(n)
	}
	if _, err := rt.Advance(1, genSplits(6, 1, 4, 7)); err != nil {
		t.Fatal(err)
	}
	if rt.FaultStats().MemoRecomputes == 0 {
		t.Fatal("expected memo recomputes with every node down")
	}
	spans := obs.Tracer.Recent(1)
	if len(spans) != 1 {
		t.Fatal("degraded slide not recorded")
	}
	if !spans[0].Degraded() {
		t.Fatalf("slide with recomputes not marked degraded:\n%s", spans[0].Format())
	}
	out := spans[0].Format()
	if !strings.Contains(out, "faults: memo-recomputes=") {
		t.Fatalf("trace missing fault delta:\n%s", out)
	}
	if !strings.Contains(out, "[DEGRADED]") {
		t.Fatalf("format missing degraded mark:\n%s", out)
	}
}

// TestTreeSnapshotPublish covers the request-flag protocol: a snapshot
// appears after the first slide's upkeep — not on its answer path —, goes
// stale while nobody polls, and refreshes on the slide after a poll.
func TestTreeSnapshotPublish(t *testing.T) {
	job := wordCountJob()
	rt, err := New(job, Config{Mode: Fixed, BucketSplits: 2, WindowBuckets: 4, Memo: testMemoConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if rt.TreeSnapshot() != nil {
		t.Fatal("snapshot before any slide")
	}
	slide := func(from int) {
		t.Helper()
		if _, err := rt.Advance(2, genSplits(from, 2, 4, 7)); err != nil {
			t.Fatal(err)
		}
		if err := rt.Background(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rt.Initial(genSplits(0, 8, 4, 7)); err != nil {
		t.Fatal(err)
	}
	if rt.treeSnap.Load() != nil {
		t.Fatal("snapshot published before the initial run's upkeep")
	}
	if err := rt.Background(); err != nil {
		t.Fatal(err)
	}
	// The poll above left a pending request, so the initial run's upkeep
	// published.
	snap := rt.TreeSnapshot()
	if snap == nil || snap.SlideID != 1 {
		t.Fatalf("snapshot after initial = %+v", snap)
	}
	if snap.Mode != "F" || snap.Variant != "daba" {
		t.Fatalf("snapshot mode/variant = %q/%q", snap.Mode, snap.Variant)
	}
	if len(snap.Partitions) != job.Partitions {
		t.Fatalf("%d partition shapes, want %d", len(snap.Partitions), job.Partitions)
	}
	if snap.Live != 8 || snap.Fingerprint == 0 {
		t.Fatalf("snapshot = %+v", snap)
	}

	// That poll requested a refresh; the next slide publishes slide 2.
	slide(8)
	// No poll happened since publishing: a further slide must NOT rebuild.
	slide(10)
	snap = rt.TreeSnapshot()
	if snap.SlideID != 2 {
		t.Fatalf("unpolled snapshot advanced to slide %d, want stale slide 2", snap.SlideID)
	}
	// Now a request is pending again: the next slide refreshes.
	slide(12)
	if snap = rt.TreeSnapshot(); snap.SlideID != 4 {
		t.Fatalf("snapshot after poll = slide %d, want 4", snap.SlideID)
	}
	// Published with nothing pending: shapes and fingerprint are of one
	// state, the one the runtime holds until its next run.
	if again := rt.buildTreeSnapshot(); !reflect.DeepEqual(again, snap) {
		t.Fatalf("snapshot of slide 4 = %+v, the state it was taken of reads %+v", snap, again)
	}
	if snap.MemoHits == 0 {
		t.Fatal("no memo hits after three slides")
	}
	if r := snap.HitRatio(); r <= 0 || r > 1 {
		t.Fatalf("hit ratio = %v", r)
	}
}

// TestTreeSnapshotFingerprintAgrees: two runtimes that processed the same
// window report the same fingerprint — the sim harness's differential
// oracle, exposed to operators.
func TestTreeSnapshotFingerprintAgrees(t *testing.T) {
	job := wordCountJob()
	run := func() *TreeSnapshot {
		rt, err := New(job, Config{Mode: Variable, Memo: testMemoConfig()})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Initial(genSplits(0, 6, 4, 7)); err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Advance(2, genSplits(6, 2, 4, 7)); err != nil {
			t.Fatal(err)
		}
		if err := rt.Background(); err != nil {
			t.Fatal(err)
		}
		snap := rt.TreeSnapshot()
		if snap == nil {
			t.Fatal("no snapshot")
		}
		return snap
	}
	a, b := run(), run()
	if a.Fingerprint != b.Fingerprint {
		t.Fatalf("fingerprints disagree: %016x vs %016x", a.Fingerprint, b.Fingerprint)
	}
	// A different window disagrees (with overwhelming probability).
	rt, err := New(job, Config{Mode: Variable, Memo: testMemoConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Initial(genSplits(0, 6, 4, 99)); err != nil {
		t.Fatal(err)
	}
	if err := rt.Background(); err != nil {
		t.Fatal(err)
	}
	if c := rt.TreeSnapshot(); c.Fingerprint == a.Fingerprint {
		t.Fatal("different windows fingerprint equal")
	}
}

// TestObsNilIsInert: with Config.Obs unset the runtime still stamps slide
// IDs and publishes tree snapshots, and nothing panics.
func TestObsNilIsInert(t *testing.T) {
	rt, err := New(wordCountJob(), Config{Mode: Variable, Memo: testMemoConfig()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.Initial(genSplits(0, 4, 4, 7))
	if err != nil {
		t.Fatal(err)
	}
	if res.SlideID != 1 {
		t.Fatalf("SlideID = %d, want 1", res.SlideID)
	}
	if rt.Observability() != nil {
		t.Fatal("Observability non-nil without Config.Obs")
	}
	if err := rt.Background(); err != nil {
		t.Fatal(err)
	}
	if rt.TreeSnapshot() == nil {
		t.Fatal("tree snapshot unavailable without Obs")
	}
}

// TestObsSampledSlides: with 1-in-2 sampling, half the slides commit
// traces but every slide still lands in the histograms.
func TestObsSampledSlides(t *testing.T) {
	obs := metrics.NewSlideObs()
	obs.Tracer.SetMode(metrics.TraceSampled, 2)
	rt, err := New(wordCountJob(), Config{Mode: Variable, Memo: testMemoConfig(), Obs: obs})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Initial(genSplits(0, 4, 4, 7)); err != nil {
		t.Fatal(err)
	}
	next := 4
	for i := 0; i < 5; i++ {
		if _, err := rt.Advance(1, genSplits(next, 1, 4, 7)); err != nil {
			t.Fatal(err)
		}
		next++
	}
	if got := obs.Slide.Count(); got != 6 {
		t.Fatalf("histogram count = %d, want 6 (sampling must not skip histograms)", got)
	}
	if got := obs.Tracer.Committed(); got != 3 {
		t.Fatalf("committed traces = %d, want 3 (1-in-2 of 6)", got)
	}
}
