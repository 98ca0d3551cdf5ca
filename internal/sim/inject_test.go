package sim

import (
	"strings"
	"testing"

	"slider/internal/core"
)

// TestInjectedBugIsCaughtAndShrinks is the harness's acceptance test
// (ISSUE acceptance criterion): inject a known bug — drop one pairwise
// merge in rotating split processing via the BuggifyRotatingDropSibling
// fault point — and demonstrate that
//
//  1. the harness catches it within 1000 trace steps,
//  2. the failing trace shrinks to a reproducer of ≤ 20 steps,
//  3. the reproducer prints as a copy-pasteable Go test, and
//  4. reverting the injection makes the same trace pass.
func TestInjectedBugIsCaughtAndShrinks(t *testing.T) {
	buggy := Options{Buggify: core.BuggifyRotatingDropSibling}

	var failing Trace
	var firstErr error
	for _, seed := range []uint64{1, 2, 3, 4, 5, 6, 7, 8} {
		tr := Generate(RotatingSplit, seed, 1000)
		if err := Run(tr, buggy); err != nil {
			failing, firstErr = tr, err
			break
		}
	}
	if firstErr == nil {
		t.Fatal("injected bug (dropped pairwise merge in rotating split processing) was not caught within 1000 steps on any seed")
	}
	ce, ok := firstErr.(*CheckError)
	if !ok {
		t.Fatalf("expected *CheckError, got %T: %v", firstErr, firstErr)
	}
	if ce.Step >= 1000 {
		t.Fatalf("bug caught only at step %d", ce.Step)
	}
	t.Logf("caught at step %d: %s check\n%s", ce.Step, ce.Check, ReplayLine(failing))

	min := Shrink(failing, buggy, 0)
	if err := Run(min, buggy); err == nil {
		t.Fatal("shrunken trace no longer fails")
	}
	if len(min.Ops) > 20 {
		t.Fatalf("shrunken reproducer has %d steps, want ≤ 20", len(min.Ops))
	}
	t.Logf("shrunk %d ops → %d ops", len(failing.Ops), len(min.Ops))

	repro := FormatRepro("RotatingSplitDroppedMergeRepro", min, buggy)
	for _, want := range []string{"func Test", "sim.Trace{", "sim.Run(tr, opt)"} {
		if !strings.Contains(repro, want) {
			t.Fatalf("repro is not a pasteable Go test (missing %q):\n%s", want, repro)
		}
	}
	t.Logf("minimal reproducer:\n%s", repro)

	// Revert the injection: the exact same minimal trace must pass on the
	// unmodified tree.
	if err := Run(min, Options{}); err != nil {
		t.Fatalf("trace fails even without the injected bug — harness found a real bug?\n%v", err)
	}
}

// TestInjectedBugWrongRelease is the ownership oracle's acceptance test:
// inject the wrong release — DabaLite handing the release hook an aggregate
// slot that aliases the raw bucket, via the BuggifyDabaReleaseRaw fault point
// — and demonstrate that the tree-layer matrix catches it as an ownership
// failure (the bucket is live: a root, a slot, the snapshot and later the
// evicted list all reach it), that the failing trace shrinks to a short
// reproducer, and that the same trace passes with the injection reverted.
func TestInjectedBugWrongRelease(t *testing.T) {
	buggy := Options{Buggify: core.BuggifyDabaReleaseRaw}

	var failing Trace
	var firstErr error
	for _, seed := range []uint64{1, 2, 3, 4, 5, 6, 7, 8} {
		tr := Generate(Daba, seed, 1000)
		if err := Run(tr, buggy); err != nil {
			failing, firstErr = tr, err
			break
		}
	}
	if firstErr == nil {
		t.Fatal("injected bug (release of a raw-aliased DABA slot) was not caught within 1000 steps on any seed")
	}
	ce, ok := firstErr.(*CheckError)
	if !ok {
		t.Fatalf("expected *CheckError, got %T: %v", firstErr, firstErr)
	}
	if ce.Check != "ownership" {
		t.Fatalf("caught by the %s check, want the ownership oracle to name it first: %v", ce.Check, ce)
	}
	t.Logf("caught at step %d: %s\n%s", ce.Step, ce.Msg, ReplayLine(failing))

	min := Shrink(failing, buggy, 0)
	if err := Run(min, buggy); err == nil {
		t.Fatal("shrunken trace no longer fails")
	}
	if len(min.Ops) > 20 {
		t.Fatalf("shrunken reproducer has %d steps, want ≤ 20", len(min.Ops))
	}
	t.Logf("shrunk %d ops → %d ops:\n%s", len(failing.Ops), len(min.Ops), FormatRepro("DabaReleasedRawBucketRepro", min, buggy))

	if err := Run(min, Options{}); err != nil {
		t.Fatalf("trace fails even without the injected bug — harness found a real bug?\n%v", err)
	}
}

// TestInjectedBugWrongDeferral is the deferral's acceptance test: inject the
// wrong deferral — DabaLite leaving an evict's fixup for the upkeep although
// the evict emptied the front, via the BuggifyDabaDeferEmptyFront fault
// point, so that the query reads a partial aggregate that misses midSum —
// and demonstrate that the tree-layer matrix catches it within 1000 steps,
// that the failing trace shrinks to a reproducer of ≤ 20 steps, and that the
// same trace passes with the injection reverted. The upkeep repairs the
// state as if nothing had happened, so only the answers given before it
// can show the bug.
func TestInjectedBugWrongDeferral(t *testing.T) {
	buggy := Options{Buggify: core.BuggifyDabaDeferEmptyFront}

	var failing Trace
	var firstErr error
	for _, seed := range []uint64{1, 2, 3, 4, 5, 6, 7, 8} {
		tr := Generate(Daba, seed, 1000)
		if err := Run(tr, buggy); err != nil {
			failing, firstErr = tr, err
			break
		}
	}
	if firstErr == nil {
		t.Fatal("injected bug (an evict's fixup deferred with the front empty) was not caught within 1000 steps on any seed")
	}
	ce, ok := firstErr.(*CheckError)
	if !ok {
		t.Fatalf("expected *CheckError, got %T: %v", firstErr, firstErr)
	}
	if ce.Step >= 1000 {
		t.Fatalf("bug caught only at step %d", ce.Step)
	}
	t.Logf("caught at step %d: %s check: %s\n%s", ce.Step, ce.Check, ce.Msg, ReplayLine(failing))

	min := Shrink(failing, buggy, 0)
	if err := Run(min, buggy); err == nil {
		t.Fatal("shrunken trace no longer fails")
	}
	if len(min.Ops) > 20 {
		t.Fatalf("shrunken reproducer has %d steps, want ≤ 20", len(min.Ops))
	}
	t.Logf("shrunk %d ops → %d ops:\n%s", len(failing.Ops), len(min.Ops), FormatRepro("DabaDeferredEmptyFrontRepro", min, buggy))

	if err := Run(min, Options{}); err != nil {
		t.Fatalf("trace fails even without the injected bug — harness found a real bug?\n%v", err)
	}
}

// TestBuggifyOffByDefault: the fault point must be inert unless armed.
func TestBuggifyOffByDefault(t *testing.T) {
	tr := Generate(RotatingSplit, 11, 300)
	if err := Run(tr, Options{}); err != nil {
		t.Fatal(err)
	}
}
