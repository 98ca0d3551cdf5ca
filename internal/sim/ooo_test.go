package sim

import (
	"reflect"
	"strings"
	"testing"

	"slider/internal/core"
)

// TestGenerateUnchangedByOutOfOrderOps pins Generate's output: adding
// the out-of-order generator must not perturb the existing seed matrix
// (replay lines from old CI logs stay valid), and Generate must never
// emit the new op kinds.
func TestGenerateUnchangedByOutOfOrderOps(t *testing.T) {
	for _, kind := range Kinds() {
		tr := Generate(kind, 42, 200)
		for i, op := range tr.Ops {
			switch op.Kind {
			case OpLateAppend, OpBulkEvict, OpBulkInsert:
				t.Fatalf("%v: Generate emitted out-of-order op %v at step %d", kind, op.Kind, i)
			}
			if op.Pos != 0 {
				t.Fatalf("%v: Generate set Pos=%d on %v at step %d", kind, op.Pos, op.Kind, i)
			}
		}
		if tr.OutOfOrder {
			t.Fatalf("%v: Generate marked its trace out-of-order", kind)
		}
	}
}

func TestGenerateOutOfOrderIsDeterministic(t *testing.T) {
	for _, kind := range Kinds() {
		a := GenerateOutOfOrder(kind, 42, 200)
		b := GenerateOutOfOrder(kind, 42, 200)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%v: GenerateOutOfOrder is not deterministic", kind)
		}
		if !a.OutOfOrder {
			t.Fatalf("%v: out-of-order trace not marked", kind)
		}
		c := GenerateOutOfOrder(kind, 43, 200)
		if reflect.DeepEqual(a.Ops, c.Ops) && a.Initial == c.Initial {
			t.Fatalf("%v: different seeds produced identical traces", kind)
		}
		if !reflect.DeepEqual(ReplayOutOfOrder(kind, 42, 200), a) {
			t.Fatalf("%v: ReplayOutOfOrder did not regenerate the trace", kind)
		}
	}
	line := ReplayLine(GenerateOutOfOrder(FingerTree, 42, 200))
	if !strings.Contains(line, "ReplayOutOfOrder") {
		t.Fatalf("replay line names the wrong generator: %s", line)
	}
}

// TestGenerateOutOfOrderOpsAreLegal replays the generator's live-bucket
// bookkeeping: late appends stay within the simLateness watermark
// budget, bulk evictions never drain the window, bulk insertions
// respect the cap — and the finger-tree kind actually gets all three.
func TestGenerateOutOfOrderOpsAreLegal(t *testing.T) {
	tr := GenerateOutOfOrder(FingerTree, 7, 500)
	live := tr.Initial
	var lates, evicts, inserts int
	for i, op := range tr.Ops {
		switch op.Kind {
		case OpSlide:
			if op.Drop != op.Add || op.Drop < 0 {
				t.Fatalf("op %d: illegal fixed-width slide %+v", i, op)
			}
		case OpLateAppend:
			lates++
			if op.Pos < 0 || op.Pos > simLateness || op.Pos > live {
				t.Fatalf("op %d: lateness %d out of range at live=%d", i, op.Pos, live)
			}
			live++
		case OpBulkEvict:
			evicts++
			if op.Drop < 1 || op.Drop > live-1 {
				t.Fatalf("op %d: bulk evict %d at live=%d", i, op.Drop, live)
			}
			live -= op.Drop
		case OpBulkInsert:
			inserts++
			if op.Add < 1 || live+op.Add > maxWindow {
				t.Fatalf("op %d: bulk insert %d at live=%d", i, op.Add, live)
			}
			live += op.Add
		}
		if live < 1 {
			t.Fatalf("op %d: window drained to %d buckets", i, live)
		}
	}
	if lates == 0 || evicts == 0 || inserts == 0 {
		t.Fatalf("out-of-order trace missing op coverage: %d late, %d evict, %d insert", lates, evicts, inserts)
	}
	// Non-out-of-order kinds degrade the ooo draws to plain slides.
	for _, op := range GenerateOutOfOrder(Daba, 7, 500).Ops {
		switch op.Kind {
		case OpLateAppend, OpBulkEvict, OpBulkInsert:
			t.Fatalf("Daba out-of-order trace emitted %v", op.Kind)
		}
	}
}

// TestOutOfOrderTreeSeedMatrix is the tentpole check at the tree layer:
// out-of-order traces over the finger tree, compared after every step
// against the non-commutative left-fold oracle, with the no-log-factor bulk bound
// c·(K + log w) asserted per bulk op and checkpoint round-trips
// enforced.
func TestOutOfOrderTreeSeedMatrix(t *testing.T) {
	steps := 250
	if testing.Short() {
		steps = 60
	}
	for _, seed := range simSeeds {
		if err := Run(GenerateOutOfOrder(FingerTree, seed, steps), Options{}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOutOfOrderRuntimeSeedMatrix drives the same grammar through the
// full sliderrt runtime at parallelism 1/4/8: watermark-routed
// AdvanceLate calls, bulk Advance evictions and insertions against the
// variable-width bucket ledger, the from-scratch MapReduce oracle after
// every run, and checkpoint round-trips through the real persist codec.
func TestOutOfOrderRuntimeSeedMatrix(t *testing.T) {
	steps := 50
	if testing.Short() {
		steps = 20
	}
	for _, seed := range simSeeds {
		tr := GenerateOutOfOrder(FingerTree, seed, steps)
		if err := Run(tr, Options{Layer: LayerRuntime, Pars: []int{1, 4, 8}}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestInjectedBugBulkEvictOffByOne is the harness acceptance check for
// the out-of-order grammar: inject a known bug — BulkEvict dropping
// k−1 buckets instead of k via the BuggifyFingerBulkEvictOffByOne fault
// point — and demonstrate that
//
//  1. the harness catches it within 1000 trace steps,
//  2. the failing trace shrinks to a reproducer of ≤ 20 steps,
//  3. the reproducer prints as a copy-pasteable Go test, and
//  4. reverting the injection makes the same trace pass.
func TestInjectedBugBulkEvictOffByOne(t *testing.T) {
	buggy := Options{Buggify: core.BuggifyFingerBulkEvictOffByOne}

	var failing Trace
	var firstErr error
	for _, seed := range []uint64{1, 2, 3, 4, 5, 6, 7, 8} {
		tr := GenerateOutOfOrder(FingerTree, seed, 1000)
		if err := Run(tr, buggy); err != nil {
			failing, firstErr = tr, err
			break
		}
	}
	if firstErr == nil {
		t.Fatal("injected bug (bulk evict off by one) was not caught within 1000 steps on any seed")
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

	repro := FormatRepro("FingerTreeBulkEvictOffByOneRepro", min, buggy)
	for _, want := range []string{"func Test", "sim.Trace{", "sim.Run(tr, opt)"} {
		if !strings.Contains(repro, want) {
			t.Fatalf("repro is not a pasteable Go test (missing %q):\n%s", want, repro)
		}
	}
	t.Logf("minimal reproducer:\n%s", repro)

	// Revert the injection: the exact same minimal trace must pass on
	// the unmodified tree.
	if err := Run(min, Options{}); err != nil {
		t.Fatalf("trace fails even without the injected bug — harness found a real bug?\n%v", err)
	}
}
