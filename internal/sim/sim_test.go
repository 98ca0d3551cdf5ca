package sim

import (
	"reflect"
	"slices"
	"testing"
)

// simSeeds is the fixed CI seed matrix. Failures print a replay line;
// paste the seed here (or into Replay) to reproduce locally.
var simSeeds = []uint64{1, 2, 3, 0xdecaf}

func TestGenerateIsDeterministic(t *testing.T) {
	for _, kind := range Kinds() {
		a := Generate(kind, 42, 200)
		b := Generate(kind, 42, 200)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%v: Generate is not deterministic", kind)
		}
		c := Generate(kind, 43, 200)
		if reflect.DeepEqual(a.Ops, c.Ops) && a.Initial == c.Initial {
			t.Fatalf("%v: different seeds produced identical traces", kind)
		}
	}
}

func TestGenerateSlidesAreLegal(t *testing.T) {
	for _, kind := range Kinds() {
		tr := Generate(kind, 7, 500)
		live := tr.Initial
		for i, op := range tr.Ops {
			if op.Kind != OpSlide {
				continue
			}
			switch {
			case kind.periods():
				if op.Drop != 1 || op.Add < 0 {
					t.Fatalf("%v op %d: period slide %+v", kind, i, op)
				}
				continue // one bucket in, one out
			case kind.fixedWidth():
				if op.Drop != op.Add || op.Drop < 1 {
					t.Fatalf("%v op %d: fixed-width slide %+v", kind, i, op)
				}
			case kind.appendOnly():
				if op.Drop != 0 || op.Add < 1 {
					t.Fatalf("%v op %d: append slide %+v", kind, i, op)
				}
			default:
				if op.Drop > live || (op.Drop == 0 && op.Add == 0) {
					t.Fatalf("%v op %d: illegal slide %+v at live=%d", kind, i, op, live)
				}
			}
			live += op.Add - op.Drop
			// Append-only windows can only grow, so the cap is soft for
			// them (growth throttles to +1 per slide past the cap).
			if !kind.appendOnly() && live > maxWindow+4 {
				t.Fatalf("%v op %d: window %d exceeds cap", kind, i, live)
			}
		}
	}
}

// TestTreeSeedMatrix is the tentpole check at the tree layer: every kind,
// several seeds, a few hundred steps each, one aggregator compared after
// every step against the from-scratch oracle, with ownership, work bounds
// and checkpoint round-trips enforced.
func TestTreeSeedMatrix(t *testing.T) {
	steps := 250
	if testing.Short() {
		steps = 60
	}
	for _, kind := range Kinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			for _, seed := range simSeeds {
				if err := Run(Generate(kind, seed, steps), Options{}); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestRuntimeSeedMatrix drives the same trace grammar through the full
// sliderrt runtime: real map tasks, the distributed memo store (with
// node failures and GC pressure), and the gob checkpoint codec.
func TestRuntimeSeedMatrix(t *testing.T) {
	steps := 60
	if testing.Short() {
		steps = 25
	}
	for _, kind := range Kinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			for _, seed := range simSeeds[:2] {
				tr := Generate(kind, seed, steps)
				if err := Run(tr, Options{Layer: LayerRuntime, Pars: []int{1, 4}}); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestOwnershipRuntimeMatrix runs the runtime layer's matrices — the seed
// matrix, the out-of-order one, the chaos one — with the storage the
// structures release scribbled over instead of recycled, at parallelism
// 1/4/8: after every run nothing a runtime holds, would checkpoint or has
// delivered may be released storage, no payload is released twice, and every
// other check of the layer holds as it does when the storage is recycled.
// (The tree layer's matrices always run this way.) Only the kinds that
// release have anything to show; the finger tree's out-of-order traces ride
// along for the day it does.
func TestOwnershipRuntimeMatrix(t *testing.T) {
	steps, chaosSteps := 60, 35
	if testing.Short() {
		steps, chaosSteps = 25, 12
	}
	own := Options{Layer: LayerRuntime, Pars: []int{1, 4, 8}, Ownership: true}
	chaos := own
	chaos.DistFaults = true
	for _, kind := range []Kind{Daba, Folding, FingerTree, Periods} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			for _, seed := range simSeeds[:2] {
				for _, run := range []struct {
					tr  Trace
					opt Options
				}{
					{Generate(kind, seed, steps), own},
					{GenerateOutOfOrder(kind, seed, steps), own},
					{GenerateChaos(kind, seed, chaosSteps), chaos},
				} {
					if err := Run(run.tr, run.opt); err != nil {
						t.Fatal(err)
					}
				}
			}
		})
	}
}

// TestShrinkPreservesPassingTrace: shrinking a passing trace is a no-op.
func TestShrinkPreservesPassingTrace(t *testing.T) {
	tr := Generate(Folding, 5, 40)
	got := Shrink(tr, Options{}, 50)
	if !reflect.DeepEqual(got, tr) {
		t.Fatalf("Shrink modified a passing trace")
	}
}

func TestReplayLineRoundTrip(t *testing.T) {
	tr := Generate(Rotating, 9, 30)
	if Replay(Rotating, 9, 30).String() != tr.String() {
		t.Fatal("Replay did not regenerate the trace")
	}
	line := ReplayLine(tr)
	if line == "" {
		t.Fatal("empty replay line")
	}
	t.Logf("%s", line)
}

// TestDabaRuntimeParallelismMatrix pins the new DABA backend against the
// from-scratch MapReduce oracle at parallelism 1, 4, and 8 — including the
// trace's checkpoint/restore round-trips through the real persist codec —
// at a longer horizon than the all-kinds runtime matrix.
func TestDabaRuntimeParallelismMatrix(t *testing.T) {
	steps := 80
	if testing.Short() {
		steps = 30
	}
	for _, seed := range simSeeds {
		tr := Generate(Daba, seed, steps)
		if err := Run(tr, Options{Layer: LayerRuntime, Pars: []int{1, 4, 8}}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPeriodsRuntimeMatrix drives the window of period buckets — one bucket
// a slide of however many splits its period carried, empty periods among
// them, so that a slide may drop nothing — through runtimes at parallelism
// 1, 4 and 8 under the ownership oracle, at a longer horizon than the
// all-kinds matrix: from-scratch outputs, cross-parallelism parity,
// checkpoint round-trips and the daba kind's trace-wide bound of two merges
// a bucket. It also holds the traces to what they are meant to cover.
func TestPeriodsRuntimeMatrix(t *testing.T) {
	steps := 120
	if testing.Short() {
		steps = 40
	}
	for _, seed := range simSeeds {
		tr := Generate(Periods, seed, steps)
		sizes := initialPeriods(tr.Seed, tr.Initial)
		dropNone, widths := 0, map[int]bool{}
		for _, op := range tr.Ops {
			if op.Kind == OpSlide {
				if sizes[0] == 0 {
					dropNone++
				}
				widths[op.Add] = true
				sizes = append(sizes[1:], op.Add)
			}
		}
		if dropNone == 0 || !widths[0] || len(widths) < 4 {
			t.Fatalf("seed %#x: %d slides drop no split, bucket widths %v", seed, dropNone, widths)
		}
		if err := Run(tr, Options{Layer: LayerRuntime, Pars: []int{1, 4, 8}, Ownership: true}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBucketLedgerRuntimeMatrix drives every kind whose window is of buckets
// — the rotating tree with and without split processing, the daba kind over
// buckets of w and over periods, the finger tree over its out-of-order
// grammar — through runtimes at parallelism 1, 4 and 8: after every op, and
// after every restore, each runtime reports the live buckets of the
// harness's ledger model (Runtime.WindowStats), and every checkpoint, cut
// at a seeded offset or with a seeded bit of its body flipped, is refused.
func TestBucketLedgerRuntimeMatrix(t *testing.T) {
	steps := 40
	if testing.Short() {
		steps = 20
	}
	for _, kind := range []Kind{Rotating, RotatingSplit, Daba, Periods, FingerTree} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			for _, seed := range simSeeds[:2] {
				tr := Generate(kind, seed, steps)
				if kind.outOfOrder() {
					tr = GenerateOutOfOrder(kind, seed, steps)
				}
				if !slices.ContainsFunc(tr.Ops, func(op Op) bool { return op.Kind == OpCheckpoint }) {
					t.Fatalf("seed %#x: the trace takes no checkpoint", seed)
				}
				if err := Run(tr, Options{Layer: LayerRuntime, Pars: []int{1, 4, 8}}); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
