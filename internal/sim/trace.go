package sim

import (
	"fmt"
	"math/rand"
	"strings"

	"slider/internal/core"
	"slider/internal/sliderrt"
)

// Kind selects the contraction structure a trace drives, and how: each
// trace kind is a row of kindTable. Tree-layer runs build the row's
// core.Kind directly; runtime-layer runs configure a sliderrt runtime from
// the same row.
type Kind int

// Trace kinds, one per contraction tree (split-processing variants drive
// the same tree through its background/foreground API).
const (
	Folding Kind = iota + 1
	Randomized
	Rotating
	RotatingSplit
	Coalescing
	CoalescingSplit
	Strawman
	Daba
	FingerTree
)

// kindSpec is what a trace kind stands for.
type kindSpec struct {
	name  string        // the kind's Go identifier (FormatRepro)
	kind  core.Kind     // the structure
	split bool          // driven with split processing
	mode  sliderrt.Mode // the window mode it is driven in
}

// kindTable is the one mapping from trace kinds to structures, read by the
// tree driver, the runtime configuration and the kind predicates alike.
var kindTable = [...]kindSpec{
	Folding:         {"Folding", core.KindFolding, false, sliderrt.Variable},
	Randomized:      {"Randomized", core.KindRandomizedFolding, false, sliderrt.Variable},
	Rotating:        {"Rotating", core.KindRotating, false, sliderrt.Fixed},
	RotatingSplit:   {"RotatingSplit", core.KindRotating, true, sliderrt.Fixed},
	Coalescing:      {"Coalescing", core.KindCoalescing, false, sliderrt.Append},
	CoalescingSplit: {"CoalescingSplit", core.KindCoalescing, true, sliderrt.Append},
	Strawman:        {"Strawman", core.KindStrawman, false, sliderrt.Variable},
	Daba:            {"Daba", core.KindDaba, false, sliderrt.Fixed},
	FingerTree:      {"FingerTree", core.KindFingerTree, false, sliderrt.Fixed},
}

// spec returns the kind's row (the zero row for a value that is no kind).
func (k Kind) spec() kindSpec {
	if k < 0 || int(k) >= len(kindTable) {
		return kindSpec{}
	}
	return kindTable[k]
}

// String returns the Go identifier of the kind (used by FormatRepro).
func (k Kind) String() string {
	if name := k.spec().name; name != "" {
		return name
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// fixedWidth reports whether the kind slides in fixed-width bucket units
// (rotating trees, the DABA queue, and the finger tree — though the
// finger tree's window additionally drifts under out-of-order ops).
func (k Kind) fixedWidth() bool { return k.spec().mode == sliderrt.Fixed }

// outOfOrder reports whether the kind supports the out-of-order
// operations (late appends, bulk evictions, bulk insertions). Only the
// finger tree does; every other kind skips those ops, which keeps a
// single trace replayable across the whole family.
func (k Kind) outOfOrder() bool { return k.spec().kind == core.KindFingerTree }

// reorders reports whether the kind's root may permute bucket age relative
// to window order (rotating trees, whose merge must therefore be
// commutative). Order-preserving fixed-width kinds like Daba are checked
// against the exact window sequence.
func (k Kind) reorders() bool { return k.spec().kind == core.KindRotating }

// appendOnly reports whether the kind's window only grows.
func (k Kind) appendOnly() bool { return k.spec().mode == sliderrt.Append }

// Kinds lists every trace kind (the full tree family).
func Kinds() []Kind {
	kinds := make([]Kind, 0, len(kindTable)-1)
	for k := Folding; int(k) < len(kindTable); k++ {
		kinds = append(kinds, k)
	}
	return kinds
}

// OpKind tags one trace operation.
type OpKind int

// Trace operations. Memo-layer ops (fail/recover/GC) only have an effect
// at the runtime layer; the tree layer skips them, which keeps a single
// trace replayable through both layers.
const (
	// OpSlide moves the window: Drop oldest items, Add new ones. For
	// fixed-width kinds Drop == Add counts buckets; for append-only
	// kinds Drop is 0.
	OpSlide OpKind = iota + 1
	// OpCheckpoint round-trips the structure through its checkpoint /
	// restore path and checks the restored state (fingerprint and work
	// counters) against a freshly restored copy.
	OpCheckpoint
	// OpFailNode crashes memo node Node (runtime layer).
	OpFailNode
	// OpRecoverNode brings memo node Node back (runtime layer).
	OpRecoverNode
	// OpGCPressure evicts every memoized entry after the next slide
	// (runtime layer): correctness must never depend on the cache.
	OpGCPressure
	// OpWorkerCrash arms a mid-batch crash on dist worker Node: it dies
	// after computing the first split of its next batch, before replying
	// (runtime layer with Options.DistFaults).
	OpWorkerCrash
	// OpWorkerRestart restarts dist worker Node on its original address
	// (runtime layer with Options.DistFaults).
	OpWorkerRestart
	// OpWorkerDelay arms a delayed response on dist worker Node, long
	// enough to trip the pool's hedging and per-task deadline (runtime
	// layer with Options.DistFaults).
	OpWorkerDelay
	// OpWorkerDrop arms a dropped response on dist worker Node: the batch
	// is computed but the connection closes before the reply (runtime
	// layer with Options.DistFaults).
	OpWorkerDrop
	// OpWorkerCorrupt arms a corrupted frame in dist worker Node's next
	// response; the pool's checksummed codec must catch it and re-execute
	// (runtime layer with Options.DistFaults).
	OpWorkerCorrupt
	// OpLateAppend lands one new bucket Pos buckets behind the newest
	// live bucket (Pos 0 appends at the window's edge) — the out-of-order
	// arrival path. Kinds without out-of-order support skip it.
	OpLateAppend
	// OpBulkEvict drops the Drop oldest buckets in one bulk eviction
	// (out-of-order kinds only).
	OpBulkEvict
	// OpBulkInsert appends Add new buckets in one bulk insertion
	// (out-of-order kinds only).
	OpBulkInsert
)

// String returns the Go identifier of the op kind (used by FormatRepro).
func (k OpKind) String() string {
	switch k {
	case OpSlide:
		return "OpSlide"
	case OpCheckpoint:
		return "OpCheckpoint"
	case OpFailNode:
		return "OpFailNode"
	case OpRecoverNode:
		return "OpRecoverNode"
	case OpGCPressure:
		return "OpGCPressure"
	case OpWorkerCrash:
		return "OpWorkerCrash"
	case OpWorkerRestart:
		return "OpWorkerRestart"
	case OpWorkerDelay:
		return "OpWorkerDelay"
	case OpWorkerDrop:
		return "OpWorkerDrop"
	case OpWorkerCorrupt:
		return "OpWorkerCorrupt"
	case OpLateAppend:
		return "OpLateAppend"
	case OpBulkEvict:
		return "OpBulkEvict"
	case OpBulkInsert:
		return "OpBulkInsert"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Op is one step of a trace.
type Op struct {
	Kind OpKind
	// Drop and Add describe an OpSlide (items for variable kinds,
	// buckets for fixed-width kinds).
	Drop, Add int
	// Node is the memo node of an OpFailNode / OpRecoverNode.
	Node int
	// Pos is an OpLateAppend's lateness in buckets behind the newest
	// live bucket (0 = the window's newest edge).
	Pos int
}

// Trace is a deterministic window schedule: everything a run does is a
// pure function of the trace, so any failure replays from (Kind, Seed,
// step count) alone.
type Trace struct {
	Kind    Kind
	Seed    uint64
	Initial int // initial window: items (variable/append) or buckets (fixed)
	Ops     []Op
	// Chaos marks a GenerateChaos trace, so ReplayLine names the right
	// generator.
	Chaos bool
	// OutOfOrder marks a GenerateOutOfOrder trace (ReplayLine naming,
	// like Chaos).
	OutOfOrder bool
}

// String summarizes a trace for log lines.
func (tr Trace) String() string {
	var slides, cps, fails, gcs, chaos, ooo int
	for _, op := range tr.Ops {
		switch op.Kind {
		case OpSlide:
			slides++
		case OpCheckpoint:
			cps++
		case OpFailNode, OpRecoverNode:
			fails++
		case OpGCPressure:
			gcs++
		case OpWorkerCrash, OpWorkerRestart, OpWorkerDelay, OpWorkerDrop, OpWorkerCorrupt:
			chaos++
		case OpLateAppend, OpBulkEvict, OpBulkInsert:
			ooo++
		}
	}
	return fmt.Sprintf("sim.Trace{Kind: %s, Seed: %#x, Initial: %d, Ops: %d (%d slides, %d checkpoints, %d fail/recover, %d gc, %d worker-faults, %d ooo)}",
		tr.Kind, tr.Seed, tr.Initial, len(tr.Ops), slides, cps, fails, gcs, chaos, ooo)
}

// maxWindow caps the model window so wild growth stays cheap enough to
// oracle-check after every step.
const maxWindow = 384

// simNodes is the memo cluster size used by the runtime layer; fail and
// recover ops target nodes in [0, simNodes).
const simNodes = 4

// chaosWorkers is the dist worker count chaos traces run against; worker
// fault ops target workers in [0, chaosWorkers).
const chaosWorkers = 3

// simLateness is the deepest lateness (in buckets) out-of-order traces
// draw; the runtime layer configures Config.AllowedLateness to match, so
// every generated OpLateAppend is inside the watermark budget.
const simLateness = 6

// Generate builds a randomized trace for the kind: a seeded mix of
// appends, variable-width slides, wild width fluctuation, checkpoint /
// restore cycles, memo fail/recover events, and GC pressure. The same
// (kind, seed, steps) always yields the same trace.
func Generate(kind Kind, seed uint64, steps int) Trace {
	rng := rand.New(rand.NewSource(int64(seed*0x9e3779b97f4a7c15 + uint64(kind))))
	tr := Trace{Kind: kind, Seed: seed}
	switch {
	case kind.fixedWidth():
		tr.Initial = 2 + rng.Intn(11) // window of N buckets, fixed forever
	case kind.appendOnly():
		tr.Initial = 1 + rng.Intn(6)
	default:
		tr.Initial = 1 + rng.Intn(24)
	}
	live := tr.Initial
	for len(tr.Ops) < steps {
		r := rng.Intn(100)
		switch {
		case r < 68:
			tr.Ops = append(tr.Ops, genSlide(kind, rng, &live))
		case r < 80:
			tr.Ops = append(tr.Ops, Op{Kind: OpCheckpoint})
		case r < 87:
			tr.Ops = append(tr.Ops, Op{Kind: OpFailNode, Node: rng.Intn(simNodes)})
		case r < 94:
			tr.Ops = append(tr.Ops, Op{Kind: OpRecoverNode, Node: rng.Intn(simNodes)})
		default:
			tr.Ops = append(tr.Ops, Op{Kind: OpGCPressure})
		}
	}
	return tr
}

// genSlide draws one legal slide for the kind, tracking the live window.
func genSlide(kind Kind, rng *rand.Rand, live *int) Op {
	switch {
	case kind.fixedWidth():
		k := 1
		if rng.Intn(4) == 0 {
			k = 1 + rng.Intn(3)
			if k > *live {
				k = *live
			}
		}
		return Op{Kind: OpSlide, Drop: k, Add: k}
	case kind.appendOnly():
		add := 1 + rng.Intn(4)
		if *live+add > maxWindow {
			add = 1
		}
		*live += add
		return Op{Kind: OpSlide, Add: add}
	default:
		var drop, add int
		if rng.Intn(8) == 0 { // wild width fluctuation
			if rng.Intn(2) == 0 && *live > 1 {
				// Shrink drastically — sometimes draining the window.
				drop = *live - rng.Intn(2)
			} else {
				// Grow past the current size.
				add = *live + rng.Intn(*live+8)
			}
		} else {
			maxDrop := *live
			if maxDrop > 4 {
				maxDrop = 4
			}
			drop = rng.Intn(maxDrop + 1)
			add = rng.Intn(5)
		}
		if *live-drop+add > maxWindow {
			add = maxWindow - (*live - drop)
			if add < 0 {
				add = 0
			}
		}
		if drop == 0 && add == 0 {
			add = 1
		}
		*live += add - drop
		return Op{Kind: OpSlide, Drop: drop, Add: add}
	}
}

// GenerateChaos builds a randomized trace like Generate with dist-layer
// fault injections mixed in: worker crashes and restarts, delayed,
// dropped, and corrupted responses. It is a separate generator so
// Generate's output stays byte-identical for existing seeds. Run chaos
// traces at the runtime layer with Options.DistFaults; without it (and
// at the tree layer) the worker ops are ignored, so one trace stays
// replayable everywhere. Restarts outweigh crashes slightly so the
// cluster tends to recover rather than drain.
func GenerateChaos(kind Kind, seed uint64, steps int) Trace {
	rng := rand.New(rand.NewSource(int64(seed*0x9e3779b97f4a7c15 + uint64(kind) + 0xc4a05)))
	tr := Trace{Kind: kind, Seed: seed, Chaos: true}
	switch {
	case kind.fixedWidth():
		tr.Initial = 2 + rng.Intn(11)
	case kind.appendOnly():
		tr.Initial = 1 + rng.Intn(6)
	default:
		tr.Initial = 1 + rng.Intn(24)
	}
	live := tr.Initial
	for len(tr.Ops) < steps {
		r := rng.Intn(100)
		switch {
		case r < 55:
			tr.Ops = append(tr.Ops, genSlide(kind, rng, &live))
		case r < 62:
			tr.Ops = append(tr.Ops, Op{Kind: OpCheckpoint})
		case r < 68:
			tr.Ops = append(tr.Ops, Op{Kind: OpFailNode, Node: rng.Intn(simNodes)})
		case r < 74:
			tr.Ops = append(tr.Ops, Op{Kind: OpRecoverNode, Node: rng.Intn(simNodes)})
		case r < 78:
			tr.Ops = append(tr.Ops, Op{Kind: OpGCPressure})
		case r < 84:
			tr.Ops = append(tr.Ops, Op{Kind: OpWorkerCrash, Node: rng.Intn(chaosWorkers)})
		case r < 92:
			tr.Ops = append(tr.Ops, Op{Kind: OpWorkerRestart, Node: rng.Intn(chaosWorkers)})
		case r < 95:
			tr.Ops = append(tr.Ops, Op{Kind: OpWorkerDelay, Node: rng.Intn(chaosWorkers)})
		case r < 98:
			tr.Ops = append(tr.Ops, Op{Kind: OpWorkerDrop, Node: rng.Intn(chaosWorkers)})
		default:
			tr.Ops = append(tr.Ops, Op{Kind: OpWorkerCorrupt, Node: rng.Intn(chaosWorkers)})
		}
	}
	return tr
}

// GenerateOutOfOrder builds a randomized trace like Generate with
// out-of-order window operations mixed in: late appends at a bounded
// lateness, bulk evictions of many oldest buckets at once, and bulk
// insertions of many new ones. It is a separate generator so Generate's
// output stays byte-identical for existing seeds. For kinds without
// out-of-order support the ooo draws degrade to ordinary slides, so the
// trace stays legal for the whole family; only the finger-tree kind
// actually exercises the new operations.
func GenerateOutOfOrder(kind Kind, seed uint64, steps int) Trace {
	rng := rand.New(rand.NewSource(int64(seed*0x9e3779b97f4a7c15 + uint64(kind) + 0x1a7e0)))
	tr := Trace{Kind: kind, Seed: seed, OutOfOrder: true}
	switch {
	case kind.fixedWidth():
		tr.Initial = 2 + rng.Intn(11)
	case kind.appendOnly():
		tr.Initial = 1 + rng.Intn(6)
	default:
		tr.Initial = 1 + rng.Intn(24)
	}
	live := tr.Initial
	for len(tr.Ops) < steps {
		r := rng.Intn(100)
		switch {
		case r < 40:
			tr.Ops = append(tr.Ops, genSlide(kind, rng, &live))
		case r < 55:
			tr.Ops = append(tr.Ops, genOutOfOrder(kind, OpLateAppend, rng, &live))
		case r < 65:
			tr.Ops = append(tr.Ops, genOutOfOrder(kind, OpBulkEvict, rng, &live))
		case r < 75:
			tr.Ops = append(tr.Ops, genOutOfOrder(kind, OpBulkInsert, rng, &live))
		case r < 85:
			tr.Ops = append(tr.Ops, Op{Kind: OpCheckpoint})
		case r < 90:
			tr.Ops = append(tr.Ops, Op{Kind: OpFailNode, Node: rng.Intn(simNodes)})
		case r < 95:
			tr.Ops = append(tr.Ops, Op{Kind: OpRecoverNode, Node: rng.Intn(simNodes)})
		default:
			tr.Ops = append(tr.Ops, Op{Kind: OpGCPressure})
		}
	}
	return tr
}

// genOutOfOrder draws one legal out-of-order op, tracking the live
// bucket count: late appends stay within simLateness, bulk evictions
// always leave at least one bucket, bulk insertions respect the window
// cap. Kinds without out-of-order support get a plain slide instead.
func genOutOfOrder(kind Kind, op OpKind, rng *rand.Rand, live *int) Op {
	if !kind.outOfOrder() {
		return genSlide(kind, rng, live)
	}
	switch op {
	case OpLateAppend:
		deepest := *live
		if deepest > simLateness {
			deepest = simLateness
		}
		*live++
		return Op{Kind: OpLateAppend, Pos: rng.Intn(deepest + 1)}
	case OpBulkEvict:
		if *live < 2 {
			return genSlide(kind, rng, live)
		}
		max := *live - 1
		if max > 48 {
			max = 48
		}
		k := 1 + rng.Intn(max)
		*live -= k
		return Op{Kind: OpBulkEvict, Drop: k}
	default: // OpBulkInsert
		k := 1 + rng.Intn(12)
		if *live+k > maxWindow {
			k = 1
		}
		*live += k
		return Op{Kind: OpBulkInsert, Add: k}
	}
}

// Replay regenerates the exact trace a CI failure log names: paste the
// kind, seed, and step count from the "replay:" line.
func Replay(kind Kind, seed uint64, steps int) Trace { return Generate(kind, seed, steps) }

// ReplayChaos is Replay for GenerateChaos traces.
func ReplayChaos(kind Kind, seed uint64, steps int) Trace { return GenerateChaos(kind, seed, steps) }

// ReplayOutOfOrder is Replay for GenerateOutOfOrder traces.
func ReplayOutOfOrder(kind Kind, seed uint64, steps int) Trace {
	return GenerateOutOfOrder(kind, seed, steps)
}

// ReplayLine renders the one-line replay recipe printed on failures.
func ReplayLine(tr Trace) string {
	fn := "Replay"
	switch {
	case tr.Chaos:
		fn = "ReplayChaos"
	case tr.OutOfOrder:
		fn = "ReplayOutOfOrder"
	}
	return fmt.Sprintf("replay: sim.Run(sim.%s(sim.%s, %#x, %d), opts)", fn, tr.Kind, tr.Seed, len(tr.Ops))
}

// opLiteral renders one op as a Go composite literal.
func opLiteral(op Op) string {
	var b strings.Builder
	fmt.Fprintf(&b, "{Kind: sim.%s", op.Kind)
	if op.Drop != 0 {
		fmt.Fprintf(&b, ", Drop: %d", op.Drop)
	}
	if op.Add != 0 {
		fmt.Fprintf(&b, ", Add: %d", op.Add)
	}
	if op.Node != 0 {
		fmt.Fprintf(&b, ", Node: %d", op.Node)
	}
	if op.Pos != 0 {
		fmt.Fprintf(&b, ", Pos: %d", op.Pos)
	}
	b.WriteString("}")
	return b.String()
}
