package sliderrt

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"slider/internal/core"
	"slider/internal/mapreduce"
	"slider/internal/persist"
)

// The identity suite pins what a refactor of the aggregation layer must not
// move: for each of the nine runtime configurations the sim harness covers,
// a fixed 12-slide wordcount run's state fingerprints, summed tree work,
// summed combiner calls and final SpaceBytes, plus one checkpoint written
// mid-run (testdata/identity-<name>.ckpt). The constants and the golden
// frames were produced at commit 98a74fa — before the runtime's per-backend
// slices were replaced by core.Aggregator — with
//
//	go test ./internal/sliderrt -run TestIdentityPinned -args -pin
//
// and must only ever be regenerated together with a stated reason. Three
// rows have moved since, in their work counters only — every fingerprint,
// Space and golden frame stayed. The daba row's Merges 174 → 150 and
// Combines 651 → 587 when the reduce began to take DABA Lite's two halves
// unmerged (24 queries × one merge; DESIGN.md §9, seventh revision); then
// its Fg {150 210 66} split into Fg {126 186 48} + Bg {24 24 18} when the
// fixups that feed no query moved into the upkeep after the answer (§9,
// eleventh revision); then they became Fg {72 84 3} + Bg {24 24 6} and
// Combines 587 → 443 when the daba kind became Two-Stacks Lite: a bucket is
// merged twice, into the back's running sum and at its flip, where DABA
// Lite merged it three times, and the initial run builds its front with
// n−1 merges (§9, fifteenth revision). At the eleventh revision Combines
// became the run's whole count: the two split rows' 843 → 883 and 154 → 162 are the combiner calls
// of their last pre-combine, which the runtime made before as well but no
// result reported (coalescing-split now totals what coalescing does).
// The four Fixed rows then moved in Combines and Space alone when a bucket
// began to be mapped as one range of its two splits (§9, eighteenth
// revision): the map task combines what the splits share, the bucket fold
// has one payload to hand through instead of two to merge, and one memo
// entry of the range's size replaces two of its splits'. Rotating 635 → 448
// and 2628 → 2040, rotating-split 883 → 696 and 2730 → 2142, daba 443 → 256
// and 2730 → 2142, fingertree 941 → 782 and 3789 → 3023.
//
// A run's upkeep is reported by the next result, so the run's totals add the
// last run's upkeep to the results': its tree work off Runtime.Stats, its
// combiner calls off the background report no result has taken yet. Space
// is the state's once that upkeep has run, which is what the last result's
// SpaceBytes was while the upkeep ran inside the run.
var pinIdentity = flag.Bool("pin", false, "print identity constants and rewrite the golden checkpoints")

// identityOp is one step of a pinned run: a slide, or (late) a late bucket
// landing `drop` buckets behind the newest.
type identityOp struct {
	drop, add int
	late      bool
}

// identityPin is what one configuration's run must reproduce.
type identityPin struct {
	MidFP, FinalFP uint64
	Fg, Bg         core.Stats
	Combines       int64
	Space          int64
}

type identityCase struct {
	name    string
	cfg     Config
	initial int
	ops     []identityOp
	pin     identityPin
}

// identityMid is the number of ops applied before the golden checkpoint.
const identityMid = 6

func identityCases() []identityCase {
	variable := []identityOp{{1, 2, false}, {2, 1, false}, {0, 3, false}, {3, 0, false}, {1, 1, false}, {0, 5, false},
		{6, 1, false}, {2, 2, false}, {0, 1, false}, {4, 3, false}, {1, 4, false}, {2, 2, false}}
	fixed := []identityOp{{2, 2, false}, {2, 2, false}, {4, 4, false}, {2, 2, false}, {6, 6, false}, {2, 2, false},
		{2, 2, false}, {4, 4, false}, {2, 2, false}, {2, 2, false}, {8, 8, false}, {2, 2, false}}
	appendOnly := []identityOp{{0, 2, false}, {0, 1, false}, {0, 4, false}, {0, 1, false}, {0, 3, false}, {0, 2, false},
		{0, 1, false}, {0, 5, false}, {0, 2, false}, {0, 1, false}, {0, 3, false}, {0, 2, false}}
	ooo := []identityOp{{2, 2, false}, {4, 4, false}, {3, 2, true}, {2, 2, false}, {0, 4, false}, {4, 0, false},
		{2, 2, false}, {1, 2, true}, {6, 2, false}, {2, 4, false}, {2, 2, false}, {4, 4, false}}
	return []identityCase{
		{name: "folding", cfg: Config{Mode: Variable}, initial: 7, ops: variable,
			pin: identityPin{MidFP: 0xfe6b6c8fad30c4bb, FinalFP: 0x33faf025677bfa2e, Fg: core.Stats{Merges: 159, NodesRecomputed: 327, NodesReused: 0}, Bg: core.Stats{Merges: 0, NodesRecomputed: 0, NodesReused: 0}, Combines: 409, Space: 3265}},
		{name: "randomized", cfg: Config{Mode: Variable, Backend: BackendRandomizedFolding, Seed: 0xc0ffee}, initial: 7, ops: variable,
			pin: identityPin{MidFP: 0x73bae7811333de52, FinalFP: 0x30c03a847b2e959e, Fg: core.Stats{Merges: 197, NodesRecomputed: 105, NodesReused: 56}, Bg: core.Stats{Merges: 0, NodesRecomputed: 0, NodesReused: 0}, Combines: 507, Space: 2717}},
		{name: "rotating", cfg: Config{Mode: Fixed, Backend: BackendRotating, BucketSplits: 2, WindowBuckets: 6}, initial: 12, ops: fixed,
			pin: identityPin{MidFP: 0xc811791f65913571, FinalFP: 0x10f34c4c84322e69, Fg: core.Stats{Merges: 168, NodesRecomputed: 192, NodesReused: 0}, Bg: core.Stats{Merges: 0, NodesRecomputed: 0, NodesReused: 0}, Combines: 448, Space: 2040}},
		{name: "rotating-split", cfg: Config{Mode: Fixed, Backend: BackendRotating, BucketSplits: 2, WindowBuckets: 6, SplitProcessing: true}, initial: 12, ops: fixed,
			pin: identityPin{MidFP: 0xc811791f65913571, FinalFP: 0x10f34c4c84322e69, Fg: core.Stats{Merges: 144, NodesRecomputed: 120, NodesReused: 0}, Bg: core.Stats{Merges: 117, NodesRecomputed: 72, NodesReused: 0}, Combines: 696, Space: 2142}},
		{name: "coalescing", cfg: Config{Mode: Append}, initial: 4, ops: appendOnly,
			pin: identityPin{MidFP: 0xc4d62a4c12d15231, FinalFP: 0xe7a4a9626763e7b5, Fg: core.Stats{Merges: 36, NodesRecomputed: 36, NodesReused: 0}, Bg: core.Stats{Merges: 0, NodesRecomputed: 0, NodesReused: 0}, Combines: 162, Space: 3185}},
		{name: "coalescing-split", cfg: Config{Mode: Append, SplitProcessing: true}, initial: 4, ops: appendOnly,
			pin: identityPin{MidFP: 0xc4d62a4c12d15231, FinalFP: 0xe7a4a9626763e7b5, Fg: core.Stats{Merges: 0, NodesRecomputed: 0, NodesReused: 0}, Bg: core.Stats{Merges: 36, NodesRecomputed: 36, NodesReused: 0}, Combines: 162, Space: 3287}},
		{name: "strawman", cfg: Config{Mode: Variable, Backend: BackendStrawman}, initial: 7, ops: variable,
			pin: identityPin{MidFP: 0xdd04ce247e7f9c2f, FinalFP: 0xe9bf953beefe99dd, Fg: core.Stats{Merges: 201, NodesRecomputed: 201, NodesReused: 81}, Bg: core.Stats{Merges: 0, NodesRecomputed: 0, NodesReused: 0}, Combines: 517, Space: 2084}},
		{name: "daba", cfg: Config{Mode: Fixed, BucketSplits: 2, WindowBuckets: 6}, initial: 12, ops: fixed,
			pin: identityPin{MidFP: 0x56d0746f3d2c2d0d, FinalFP: 0x2a2352d852910315, Fg: core.Stats{Merges: 72, NodesRecomputed: 84, NodesReused: 3}, Bg: core.Stats{Merges: 24, NodesRecomputed: 24, NodesReused: 6}, Combines: 256, Space: 2142}},
		{name: "fingertree", cfg: Config{Mode: Fixed, BucketSplits: 2, WindowBuckets: 8, AllowedLateness: 4}, initial: 16, ops: ooo,
			pin: identityPin{MidFP: 0xfe39972cc00a2b12, FinalFP: 0xdd9dd887f5f59414, Fg: core.Stats{Merges: 291, NodesRecomputed: 267, NodesReused: 0}, Bg: core.Stats{Merges: 0, NodesRecomputed: 0, NodesReused: 0}, Combines: 782, Space: 3023}},
	}
}

// identityRun drives one configuration and is its own window model: the
// flat split window the from-scratch oracle runs over.
type identityRun struct {
	t      *testing.T
	c      identityCase
	job    *mapreduce.Job
	rt     *Runtime
	window []mapreduce.Split
	next   int
	got    identityPin
}

func (r *identityRun) record(res *RunResult) {
	r.t.Helper()
	wantSameOutput(r.t, res.Output, scratch(r.t, r.job, r.window))
	wantSpaceOracle(r.t, r.rt, r.job, res)
	addStats(&r.got.Fg, res.TreeStats)
	addStats(&r.got.Bg, res.TreeStatsBackground)
	r.got.Combines += res.Report.Counters.CombineCalls + res.Background.Counters.CombineCalls
}

// finish runs the last run's upkeep, adds its tree work and combiner calls
// and takes the state's final space and fingerprint.
func (r *identityRun) finish() {
	before := r.rt.Stats().TreeStats
	if err := r.rt.Background(); err != nil {
		r.t.Fatal(err)
	}
	addStats(&r.got.Bg, statsDelta(before, r.rt.Stats().TreeStats))
	r.got.Combines += r.rt.bg.Counters().CombineCalls
	r.got.Space = r.rt.spaceBytes()
	r.got.FinalFP = r.rt.StateFingerprint()
}

func addStats(into *core.Stats, d core.Stats) {
	into.Merges += d.Merges
	into.NodesRecomputed += d.NodesRecomputed
	into.NodesReused += d.NodesReused
}

// apply runs one op through the runtime (when it is set) and the model.
func (r *identityRun) apply(i int, op identityOp) {
	r.t.Helper()
	add := genSplits(r.next, op.add, 4, 7)
	r.next += op.add
	if op.late {
		// Every bucket of the pinned out-of-order run is BucketSplits wide,
		// so a bucket position is a flat offset.
		w := r.c.cfg.BucketSplits
		at := len(r.window) - op.drop*w
		r.window = append(r.window[:at:at], append(add, r.window[at:]...)...)
	} else {
		r.window = append(r.window[op.drop:], add...)
	}
	if r.rt == nil {
		return
	}
	var res *RunResult
	var err error
	if op.late {
		res, err = r.rt.AdvanceLate(op.drop, add)
	} else {
		res, err = r.rt.Advance(op.drop, add)
	}
	if err != nil {
		r.t.Fatalf("%s op %d %+v: %v", r.c.name, i, op, err)
	}
	r.record(res)
}

func goldenPath(name string) string {
	return filepath.Join("testdata", "identity-"+name+".ckpt")
}

// TestIdentityPinned replays every pinned configuration from scratch, at
// parallelism 1 and 4, and requires the pinned numbers.
func TestIdentityPinned(t *testing.T) {
	for _, c := range identityCases() {
		for _, par := range []int{1, 4} {
			c, par := c, par
			t.Run(fmt.Sprintf("%s/par%d", c.name, par), func(t *testing.T) {
				cfg := c.cfg
				cfg.Memo = testMemoConfig()
				cfg.Parallelism = par
				job := wordCountJob()
				rt, err := New(job, cfg)
				if err != nil {
					t.Fatal(err)
				}
				r := &identityRun{t: t, c: c, job: job, rt: rt, window: genSplits(0, c.initial, 4, 7), next: c.initial}
				res, err := rt.Initial(r.window)
				if err != nil {
					t.Fatal(err)
				}
				r.record(res)
				var golden bytes.Buffer
				for i, op := range c.ops {
					if i == identityMid {
						r.got.MidFP = rt.StateFingerprint()
						if err := rt.Checkpoint(&golden); err != nil {
							t.Fatal(err)
						}
					}
					r.apply(i, op)
				}
				r.finish()
				if *pinIdentity {
					if par == 1 {
						fmt.Printf("PIN %s: identityPin{MidFP: %#x, FinalFP: %#x, Fg: core.Stats{Merges: %d, NodesRecomputed: %d, NodesReused: %d}, Bg: core.Stats{Merges: %d, NodesRecomputed: %d, NodesReused: %d}, Combines: %d, Space: %d}\n",
							c.name, r.got.MidFP, r.got.FinalFP, r.got.Fg.Merges, r.got.Fg.NodesRecomputed, r.got.Fg.NodesReused,
							r.got.Bg.Merges, r.got.Bg.NodesRecomputed, r.got.Bg.NodesReused, r.got.Combines, r.got.Space)
						if err := os.MkdirAll("testdata", 0o755); err != nil {
							t.Fatal(err)
						}
						if err := os.WriteFile(goldenPath(c.name), golden.Bytes(), 0o644); err != nil {
							t.Fatal(err)
						}
					}
					return
				}
				if r.got != c.pin {
					t.Fatalf("identity moved:\n got  %+v\n want %+v", r.got, c.pin)
				}
			})
		}
	}
}

// TestGoldenCheckpointRestores restores each parent-written checkpoint at
// parallelism 1, 4 and 8: the restored state must fingerprint as pinned,
// re-checkpoint to a frame with the same decoded content (the wire format
// did not move), keep sliding correctly against the from-scratch oracle and
// end on the pinned final fingerprint.
func TestGoldenCheckpointRestores(t *testing.T) {
	for _, c := range identityCases() {
		for _, par := range []int{1, 4, 8} {
			c, par := c, par
			t.Run(fmt.Sprintf("%s/par%d", c.name, par), func(t *testing.T) {
				frame, err := os.ReadFile(goldenPath(c.name))
				if err != nil {
					t.Fatal(err)
				}
				cfg := c.cfg
				cfg.Memo = testMemoConfig()
				cfg.Parallelism = par
				job := wordCountJob()
				r := &identityRun{t: t, c: c, job: job, window: genSplits(0, c.initial, 4, 7), next: c.initial}
				for i, op := range c.ops[:identityMid] {
					r.apply(i, op) // model only: r.rt is nil
				}
				rt, err := Restore(job, cfg, bytes.NewReader(frame))
				if err != nil {
					t.Fatal(err)
				}
				if fp := rt.StateFingerprint(); fp != c.pin.MidFP {
					t.Fatalf("restored fingerprint %#x, pinned %#x", fp, c.pin.MidFP)
				}
				var again bytes.Buffer
				if err := rt.Checkpoint(&again); err != nil {
					t.Fatal(err)
				}
				wantSameCheckpoint(t, again.Bytes(), frame)
				r.rt = rt
				for i, op := range c.ops[identityMid:] {
					r.apply(identityMid+i, op)
				}
				if fp := rt.StateFingerprint(); fp != c.pin.FinalFP {
					t.Fatalf("final fingerprint %#x, pinned %#x", fp, c.pin.FinalFP)
				}
			})
		}
	}
}

// wantSameCheckpoint compares two checkpoint frames field by field after
// decoding and upgrading each to the version-3 state (flat payload frames
// are map-order dependent, so bytes may differ where content does not):
// same metadata, bucket ledger included, same populated field groups, same
// payloads.
func wantSameCheckpoint(t *testing.T, got, want []byte) {
	t.Helper()
	type decodedPart struct {
		Meta                          partCheckpoint
		HasFlatRoot, HasFlatPending   bool
		HasFlatBuckets, HasFlatLeaves bool
		Root, Pending                 Payload
		Buckets, Leaves               []Payload
	}
	decode := func(frame []byte) (checkpointState, []decodedPart) {
		var st checkpointState
		if err := persist.Decode(frame, &st); err != nil {
			t.Fatal(err)
		}
		if err := upgrade(&st, len(frame)); err != nil {
			t.Fatal(err)
		}
		parts := make([]decodedPart, len(st.Partitions))
		for p, pc := range st.Partitions {
			d := &parts[p]
			d.HasFlatRoot, d.HasFlatPending = pc.FlatRoot != nil, pc.FlatPending != nil
			d.HasFlatBuckets, d.HasFlatLeaves = pc.FlatBuckets != nil, pc.FlatLeaves != nil
			var err error
			if d.HasFlatRoot {
				if d.Root, err = persist.DecodePayload(pc.FlatRoot); err != nil {
					t.Fatal(err)
				}
			}
			if d.HasFlatPending {
				if d.Pending, err = persist.DecodePayload(pc.FlatPending); err != nil {
					t.Fatal(err)
				}
			}
			if d.HasFlatBuckets {
				if d.Buckets, err = persist.DecodePayloadSet(pc.FlatBuckets); err != nil {
					t.Fatal(err)
				}
			}
			if d.HasFlatLeaves {
				if d.Leaves, err = persist.DecodePayloadSet(pc.FlatLeaves); err != nil {
					t.Fatal(err)
				}
			}
			pc.FlatRoot, pc.FlatPending, pc.FlatBuckets, pc.FlatLeaves = nil, nil, nil, nil
			d.Meta = pc
		}
		st.Partitions = nil
		return st, parts
	}
	gotSt, gotParts := decode(got)
	wantSt, wantParts := decode(want)
	if !reflect.DeepEqual(gotSt, wantSt) {
		t.Fatalf("checkpoint header moved:\n got  %+v\n want %+v", gotSt, wantSt)
	}
	if !reflect.DeepEqual(gotParts, wantParts) {
		t.Fatalf("checkpoint partitions moved:\n got  %+v\n want %+v", gotParts, wantParts)
	}
}
