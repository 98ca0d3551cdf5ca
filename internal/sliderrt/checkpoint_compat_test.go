package sliderrt

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"slider/internal/persist"
)

// toV1 turns payloads back into the gob maps a version-1 checkpoint
// carries.
func toV1(t testing.TB, ps []Payload, err error) []payloadV1 {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]payloadV1, len(ps))
	for i, p := range ps {
		out[i] = make(payloadV1, len(p))
		for _, e := range p {
			out[i][e.Key] = e.Value
		}
	}
	return out
}

// oldState is the body as version-1 and -2 writers laid it out: the
// pre-backend selectors beside Backend, and version 1's payload maps beside
// the flat fields. A frame of any version decoded into it and encoded again
// keeps every field it had.
type oldState struct {
	Version       int
	Mode          Mode
	Engine        int
	Randomized    bool
	Backend       Backend
	BucketSplits  int
	WindowBuckets int
	Seq           uint64
	WindowLo      uint64
	Live          int
	Parts         int
	BucketSizes   []int
	BucketSeq     uint64
	Partitions    []oldPart
}

type oldPart struct {
	Root         payloadV1
	HasRoot      bool
	Pending      payloadV1
	HasPending   bool
	Buckets      []payloadV1
	Victim       int
	Filled       bool
	LeafIDs      []uint64
	LeafPayloads []payloadV1
	FlatRoot     []byte
	FlatPending  []byte
	FlatBuckets  []byte
	FlatLeaves   []byte
}

// downgrade rewrites a checkpoint frame of any version into the body a
// version-1 or -2 writer left for the same state: the structure named by the
// pre-backend selectors as well as by Backend, no ledger for an in-order
// window of buckets of w, and for version 1 the payloads in the gob map
// fields, the flat ones absent. Gob omits nil fields from the stream, so
// this is what those writers produced, type names aside, and restoring it
// exercises the real upgrade path.
func downgrade(t testing.TB, frame []byte, version int) []byte {
	t.Helper()
	return rewriteFrame(t, frame, func(st *oldState) {
		st.Engine, st.Randomized = 1, st.Backend == BackendRandomizedFolding
		if st.Backend == BackendStrawman {
			st.Engine = 2
		}
		if st.BucketSplits > 0 && st.Backend != BackendFingerTree {
			st.BucketSizes, st.BucketSeq = nil, 0
		}
		st.Version = version
		if version > 1 {
			return
		}
		for p := range st.Partitions {
			pc := &st.Partitions[p]
			if pc.HasRoot {
				root, err := persist.DecodePayload(pc.FlatRoot)
				pc.Root = toV1(t, []Payload{root}, err)[0]
			}
			if pc.HasPending {
				pending, err := persist.DecodePayload(pc.FlatPending)
				pc.Pending = toV1(t, []Payload{pending}, err)[0]
			}
			if pc.FlatBuckets != nil {
				buckets, err := persist.DecodePayloadSet(pc.FlatBuckets)
				pc.Buckets = toV1(t, buckets, err)
			}
			if pc.FlatLeaves != nil {
				leaves, err := persist.DecodePayloadSet(pc.FlatLeaves)
				pc.LeafPayloads = toV1(t, leaves, err)
			}
			pc.FlatRoot, pc.FlatPending, pc.FlatBuckets, pc.FlatLeaves = nil, nil, nil, nil
		}
	})
}

// v1RoundTrip checkpoints a driven runtime, downgrades the frame to the
// version-1 layout, restores it, and requires the restored runtime to
// match both the original and a from-scratch oracle over further slides.
func v1RoundTrip(t *testing.T, cfg Config, initial int, firstHalf, secondHalf []slide) {
	t.Helper()
	job := wordCountJob()
	cfg.Memo = testMemoConfig()
	original, err := New(job, cfg)
	if err != nil {
		t.Fatal(err)
	}
	window := genSplits(0, initial, 4, 7)
	next := initial
	if _, err := original.Initial(window); err != nil {
		t.Fatal(err)
	}
	for _, s := range firstHalf {
		add := genSplits(next, s.add, 4, 7)
		next += s.add
		if _, err := original.Advance(s.drop, add); err != nil {
			t.Fatal(err)
		}
		window = append(window[s.drop:], add...)
	}

	var buf bytes.Buffer
	if err := original.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(wordCountJob(), cfg, bytes.NewReader(downgrade(t, buf.Bytes(), 1)))
	if err != nil {
		t.Fatal(err)
	}

	for i, s := range secondHalf {
		add := genSplits(next, s.add, 4, 7)
		next += s.add
		origRes, err := original.Advance(s.drop, add)
		if err != nil {
			t.Fatalf("original slide %d: %v", i, err)
		}
		restRes, err := restored.Advance(s.drop, add)
		if err != nil {
			t.Fatalf("restored slide %d: %v", i, err)
		}
		window = append(window[s.drop:], add...)
		wantSameOutput(t, restRes.Output, origRes.Output)
		wantSameOutput(t, restRes.Output, scratch(t, job, window))
	}
}

func TestRestoreV1Append(t *testing.T) {
	v1RoundTrip(t, Config{Mode: Append}, 4,
		[]slide{{0, 2}, {0, 1}}, []slide{{0, 3}, {0, 2}})
}

func TestRestoreV1Fixed(t *testing.T) {
	cfg := Config{Mode: Fixed, BucketSplits: 2, WindowBuckets: 4}
	v1RoundTrip(t, cfg, 8,
		[]slide{{2, 2}, {2, 2}}, []slide{{2, 2}, {4, 4}})
}

func TestRestoreV1VariableFolding(t *testing.T) {
	v1RoundTrip(t, Config{Mode: Variable}, 8,
		[]slide{{3, 1}, {0, 5}}, []slide{{6, 2}, {1, 0}})
}

func TestRestoreV1Strawman(t *testing.T) {
	v1RoundTrip(t, Config{Mode: Variable, Backend: BackendStrawman}, 8,
		[]slide{{3, 1}}, []slide{{0, 4}})
}

// TestRestoreV1LegacyVictimIntoDaba is the deepest compatibility path: a
// true version-1 frame (live map payloads) written by the rotating tree
// before backends existed — Backend absent (gob zero = BackendAuto),
// Buckets in leaf-position order, nonzero Victim. Restoring under an auto
// config must decode the v1 maps AND rotate the buckets into window order
// for the DABA aggregator, or later slides evict the wrong bucket.
func TestRestoreV1LegacyVictimIntoDaba(t *testing.T) {
	job := wordCountJob()
	cfg := Config{Mode: Fixed, BucketSplits: 2, WindowBuckets: 4, Memo: testMemoConfig()}
	rotCfg := cfg
	rotCfg.Backend = BackendRotating
	original, err := New(job, rotCfg)
	if err != nil {
		t.Fatal(err)
	}
	window := genSplits(0, 8, 4, 7)
	next := 8
	if _, err := original.Initial(window); err != nil {
		t.Fatal(err)
	}
	for _, s := range []slide{{2, 2}, {2, 2}, {2, 2}} {
		add := genSplits(next, s.add, 4, 7)
		next += s.add
		if _, err := original.Advance(s.drop, add); err != nil {
			t.Fatal(err)
		}
		window = append(window[s.drop:], add...)
	}

	var buf bytes.Buffer
	if err := original.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	v1 := downgrade(t, buf.Bytes(), 1)
	var st oldState
	if err := persist.Decode(v1, &st); err != nil {
		t.Fatal(err)
	}
	victims := 0
	for _, pc := range st.Partitions {
		if pc.Victim != 0 {
			victims++
		}
	}
	if victims == 0 {
		t.Fatal("test needs a nonzero victim cursor to exercise the rotation")
	}
	frame := rewriteFrame(t, v1, zeroBackend) // pre-backend writers had no Backend field

	restored, err := Restore(wordCountJob(), cfg, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.Backend(); got != BackendDaba {
		t.Fatalf("restored backend = %v, want %v", got, BackendDaba)
	}
	for i, s := range []slide{{2, 2}, {2, 2}, {4, 4}, {2, 2}} {
		add := genSplits(next, s.add, 4, 7)
		next += s.add
		res, err := restored.Advance(s.drop, add)
		if err != nil {
			t.Fatalf("restored slide %d: %v", i, err)
		}
		window = append(window[s.drop:], add...)
		wantSameOutput(t, res.Output, scratch(t, job, window))
	}
}

// TestStateFingerprint pins the canonical-hash contract: identical
// logical state fingerprints identically across independent runtimes and
// parallelism levels, a checkpoint/restore round trip preserves the
// fingerprint, and advancing the window changes it.
func TestStateFingerprint(t *testing.T) {
	cfg := Config{Mode: Fixed, BucketSplits: 2, WindowBuckets: 4, Memo: testMemoConfig()}
	build := func(par int) *Runtime {
		c := cfg
		c.Parallelism = par
		rt, err := New(wordCountJob(), c)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Initial(genSplits(0, 8, 4, 7)); err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Advance(2, genSplits(8, 2, 4, 7)); err != nil {
			t.Fatal(err)
		}
		return rt
	}
	a, b := build(1), build(4)
	if a.StateFingerprint() != b.StateFingerprint() {
		t.Fatalf("identical state fingerprints differ: %#x vs %#x (par 1 vs 4)",
			a.StateFingerprint(), b.StateFingerprint())
	}

	var buf bytes.Buffer
	if err := a.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(wordCountJob(), cfg, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if restored.StateFingerprint() != a.StateFingerprint() {
		t.Fatalf("restore changed the fingerprint: %#x vs %#x",
			restored.StateFingerprint(), a.StateFingerprint())
	}

	if _, err := a.Advance(2, genSplits(10, 2, 4, 7)); err != nil {
		t.Fatal(err)
	}
	if a.StateFingerprint() == b.StateFingerprint() {
		t.Fatal("advancing the window did not change the fingerprint")
	}
}

// TestRestoreRejectsFutureVersion keeps the version gate honest.
func TestRestoreRejectsFutureVersion(t *testing.T) {
	job := wordCountJob()
	cfg := Config{Mode: Append, Memo: testMemoConfig()}
	rt, err := New(job, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Initial(genSplits(0, 4, 4, 7)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rt.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	var st checkpointState
	if err := persist.Decode(buf.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	st.Version = checkpointVersion + 1
	frame, err := persist.Encode(st)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(wordCountJob(), cfg, bytes.NewReader(frame)); err == nil {
		t.Fatal("future checkpoint version accepted")
	}
}

// TestRestoreRejectsInconsistentFrames fabricates frames that pass the
// CRC and the header checks but whose partition state contradicts itself.
// Each used to index past a slice (or restore a made-up window); each must
// now come back as an error before any aggregator holds the state. A case
// with a want names the check that refuses it, which runs before the
// aggregators' Restore.
func TestRestoreRejectsInconsistentFrames(t *testing.T) {
	fingerTree := Config{Mode: Fixed, BucketSplits: 2, WindowBuckets: 2, AllowedLateness: 1}
	periods := Config{Mode: Fixed, WindowBuckets: 2} // first window: periods of 3 and 1 splits
	daba := Config{Mode: Fixed, BucketSplits: 2, WindowBuckets: 2}
	cases := []struct {
		name   string
		cfg    Config
		mangle func(st *checkpointState)
		want   string
	}{
		{"fewer partitions than the header says", Config{Mode: Variable},
			func(st *checkpointState) { st.Partitions = st.Partitions[:len(st.Partitions)-1] }, ""},
		{"no partitions at all", Config{Mode: Append},
			func(st *checkpointState) { st.Partitions = nil }, ""},
		{"randomized: fewer leaf IDs than leaves", Config{Mode: Variable, Backend: BackendRandomizedFolding},
			func(st *checkpointState) { st.Partitions[1].LeafIDs = st.Partitions[1].LeafIDs[:1] }, ""},
		{"strawman: no leaf IDs", Config{Mode: Variable, Backend: BackendStrawman},
			func(st *checkpointState) { st.Partitions[0].LeafIDs = nil }, ""},
		{"strawman: more leaf IDs than leaves", Config{Mode: Fixed, Backend: BackendStrawman, BucketSplits: 2, WindowBuckets: 2},
			func(st *checkpointState) { st.Partitions[2].LeafIDs = append(st.Partitions[2].LeafIDs, 99) }, ""},
		{"append: root flagged but absent", Config{Mode: Append},
			func(st *checkpointState) { st.Partitions[0].FlatRoot = nil }, ""},
		{"append: root present but not flagged", Config{Mode: Append},
			func(st *checkpointState) { st.Partitions[0].HasRoot = false }, ""},
		{"append: pending flagged but absent", Config{Mode: Append},
			func(st *checkpointState) { st.Partitions[1].HasPending = true }, ""},
		{"fixed: victim beyond the buckets", Config{Mode: Fixed, Backend: BackendRotating, BucketSplits: 2, WindowBuckets: 2},
			func(st *checkpointState) { st.Partitions[0].Victim = 2 }, ""},
		{"fingertree: ledger a bucket short", fingerTree,
			func(st *checkpointState) { st.BucketSizes = []int{4} }, ""},
		{"fingertree: ledger holds an empty bucket", fingerTree,
			func(st *checkpointState) { st.BucketSizes = []int{4, 0} }, ""},
		{"fingertree: ledger sums past the live splits", fingerTree,
			func(st *checkpointState) { st.BucketSizes = []int{2, 3} }, ""},
		{"periods: no ledger", periods,
			func(st *checkpointState) { st.BucketSizes, st.BucketSeq = nil, 0 }, ""},
		{"periods: ledger sums past the live splits", periods,
			func(st *checkpointState) { st.BucketSizes = []int{0, 5} }, ""},
		{"periods: bucket clock behind the live buckets", periods,
			func(st *checkpointState) { st.BucketSeq = 1 }, "bucket clock"},
		{"daba: a bucket of other than w", daba,
			func(st *checkpointState) { st.BucketSizes = []int{1, 3} }, "bucket ledger holds a bucket of 1 splits"},
		{"daba: bucket clock off by one", daba,
			func(st *checkpointState) { st.BucketSeq++ }, "bucket clock"},
		{"daba: no ledger", daba,
			func(st *checkpointState) { st.BucketSizes, st.BucketSeq = nil, 0 }, "bucket ledger sums to 0"},
		{"folding: a ledger", Config{Mode: Variable},
			func(st *checkpointState) { st.BucketSizes, st.BucketSeq = []int{4}, 1 }, "keeps no bucket ledger"},
		{"fixed: a bucket short", daba,
			func(st *checkpointState) {
				buckets, err := persist.DecodePayloadSet(st.Partitions[0].FlatBuckets)
				if err != nil {
					t.Fatal(err)
				}
				if st.Partitions[0].FlatBuckets, err = persist.EncodePayloadSet(buckets[:1]); err != nil {
					t.Fatal(err)
				}
			}, ""},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			job := wordCountJob()
			cfg := c.cfg
			cfg.Memo = testMemoConfig()
			rt, err := New(job, cfg)
			if err != nil {
				t.Fatal(err)
			}
			splits := genSplits(0, 4, 4, 7)
			if cfg.Mode == Fixed && cfg.BucketSplits == 0 {
				_, err = rt.InitialBuckets([]int{3, 1}, splits)
			} else {
				_, err = rt.Initial(splits)
			}
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := rt.Checkpoint(&buf); err != nil {
				t.Fatal(err)
			}
			if _, err := Restore(wordCountJob(), cfg, bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatalf("the unmangled frame does not restore: %v", err)
			}
			var st checkpointState
			if err := persist.Decode(buf.Bytes(), &st); err != nil {
				t.Fatal(err)
			}
			c.mangle(&st)
			frame, err := persist.Encode(st)
			if err != nil {
				t.Fatal(err)
			}
			_, err = Restore(wordCountJob(), cfg, bytes.NewReader(frame))
			if err == nil {
				t.Fatal("inconsistent frame accepted")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("refused with %q, want it refused by %q", err, c.want)
			}
		})
	}
}

// TestGoldenFramesAcrossFormats restores every golden checkpoint — as
// written (version 2 under the sld1 header, through persist's legacy
// reader), rewritten under the sld2 header, downgraded to version 1, as the
// version-3 frame a restored runtime writes back, and, for the two
// structures a pre-backend frame names only through the legacy
// Engine/Randomized selectors, with the Backend field zeroed the way a
// pre-backend writer left it — and requires the pinned fingerprint (which
// covers the backend the restore landed on) and a re-checkpoint with the
// content of upgrade(golden), one sld2 frame whose gob body is exactly the
// bytes pinned in goldenRewritten. Each form is restored under the writer's
// configuration and under BackendAuto: a restore that names no backend
// follows the checkpoint's, so a pinned writer's state is never
// reinterpreted.
func TestGoldenFramesAcrossFormats(t *testing.T) {
	for _, c := range identityCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			golden, err := os.ReadFile(goldenPath(c.name))
			if err != nil {
				t.Fatal(err)
			}
			cfg := c.cfg
			cfg.Memo = testMemoConfig()
			writer, err := New(wordCountJob(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			auto := cfg
			auto.Backend = BackendAuto
			v1 := downgrade(t, golden, 1)
			type form struct {
				name  string
				frame []byte
			}
			forms := []form{{"v2", golden}, {"v2 sld2", rewriteFrame(t, golden, nil)}, {"v1", v1}, {"v3", recheckpoint(t, cfg, golden)}}
			// The two structures a pre-backend frame names only through its
			// legacy selectors. (Any other such frame is the mode's own
			// tree, which resolution picks again; a Fixed one restores into
			// it whatever its bucket order: TestRestoreV1LegacyVictimIntoDaba.)
			if writer.Backend() == BackendStrawman || writer.Backend() == BackendRandomizedFolding {
				forms = append(forms, form{"v2 pre-backend", rewriteFrame(t, golden, zeroBackend)}, form{"v1 pre-backend", rewriteFrame(t, v1, zeroBackend)})
			}
			for _, form := range forms {
				for _, under := range []Config{cfg, auto} {
					rt, err := Restore(wordCountJob(), under, bytes.NewReader(form.frame))
					if err != nil {
						t.Fatalf("%s under backend %v: %v", form.name, under.Backend, err)
					}
					if rt.Backend() != writer.Backend() {
						t.Fatalf("%s under backend %v: landed on %v, the writer ran %v", form.name, under.Backend, rt.Backend(), writer.Backend())
					}
					if fp := rt.StateFingerprint(); fp != c.pin.MidFP {
						t.Fatalf("%s under backend %v: fingerprint %#x, pinned %#x", form.name, under.Backend, fp, c.pin.MidFP)
					}
					var again bytes.Buffer
					if err := rt.Checkpoint(&again); err != nil {
						t.Fatal(err)
					}
					wantSameCheckpoint(t, again.Bytes(), golden)
					if size, err := persist.FrameSize(again.Bytes()); err != nil || size != again.Len() {
						t.Fatalf("%s under backend %v: the re-checkpoint is no single sld2 frame (%d of %d bytes, %v)", form.name, under.Backend, size, again.Len(), err)
					}
					if got := fmt.Sprintf("%x", sha256.Sum256(again.Bytes()[persist.FramePrefixLen:])); got != goldenRewritten[c.name] {
						t.Fatalf("%s under backend %v: re-checkpoint body moved: sha256 %s, pinned %s", form.name, under.Backend, got, goldenRewritten[c.name])
					}
				}
			}
		})
	}
}

// TestUpgradeReadsOlderBodies holds upgrade itself to the version-3 body a
// restored runtime writes back, field by field and payload by payload, for
// every golden checkpoint as written (version 2), downgraded to version 1 and
// without a backend: the legacy selectors become Backend, a window of
// buckets of w gets its WindowBuckets buckets on the clock its oldest bucket
// puts it at, and version 1's maps become payload frames. A version-3 body
// it leaves as it is.
func TestUpgradeReadsOlderBodies(t *testing.T) {
	for _, c := range identityCases() {
		golden, err := os.ReadFile(goldenPath(c.name))
		if err != nil {
			t.Fatal(err)
		}
		cfg := c.cfg
		cfg.Memo = testMemoConfig()
		v3 := recheckpoint(t, cfg, golden)
		v1 := downgrade(t, golden, 1)
		forms := [][]byte{golden, v1, v3}
		if c.name == "strawman" || c.name == "randomized" {
			forms = append(forms, rewriteFrame(t, golden, zeroBackend), rewriteFrame(t, v1, zeroBackend))
		}
		for _, form := range forms {
			wantSameCheckpoint(t, v3, form)
		}
		var st, before checkpointState
		if err := errors.Join(persist.Decode(v3, &st), persist.Decode(v3, &before)); err != nil {
			t.Fatal(err)
		}
		if w := st.BucketSplits; st.Mode == Fixed && c.name != "fingertree" {
			if len(st.BucketSizes) != st.WindowBuckets || slices.ContainsFunc(st.BucketSizes, func(sz int) bool { return sz != w }) ||
				st.BucketSeq != st.WindowLo/uint64(w)+uint64(st.WindowBuckets) {
				t.Fatalf("%s: ledger %v on clock %d, want %d buckets of %d on clock %d", c.name, st.BucketSizes, st.BucketSeq,
					st.WindowBuckets, w, st.WindowLo/uint64(w)+uint64(st.WindowBuckets))
			}
		}
		if err := upgrade(&st, v3); err != nil || !reflect.DeepEqual(st, before) {
			t.Fatalf("%s: upgrade moved a version-3 body (%v)", c.name, err)
		}
	}
}

// recheckpoint restores a frame under cfg and returns the checkpoint the
// restored runtime writes.
func recheckpoint(t testing.TB, cfg Config, frame []byte) []byte {
	t.Helper()
	rt, err := Restore(wordCountJob(), cfg, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rt.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRestoreLedgerlessFrameKeepsBucketClock: a version-2 frame of an
// in-order Fixed window carries no bucket ledger. Restored into the finger
// tree — a pre-backend frame under AllowedLateness — its window becomes
// WindowBuckets buckets of w (upgrade), and the in-order bucket clock goes
// on from where the window is, its oldest bucket plus WindowBuckets, as it
// would had the finger tree run the window from the start. A clock that
// restarted at WindowBuckets would put the effective watermark, and the
// clock StateFingerprint hashes, behind where the window is.
func TestRestoreLedgerlessFrameKeepsBucketClock(t *testing.T) {
	const w, n, slides = 1, 4, 10
	job := wordCountJob()
	cfg := Config{Mode: Fixed, BucketSplits: w, WindowBuckets: n, Memo: testMemoConfig()}
	rt, err := New(job, cfg)
	if err != nil {
		t.Fatal(err)
	}
	window := genSplits(0, w*n, 4, 7)
	next := w * n
	if _, err := rt.Initial(window); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < slides; i++ {
		add := genSplits(next, w, 4, 7)
		next += w
		if _, err := rt.Advance(w, add); err != nil {
			t.Fatal(err)
		}
		window = append(window[w:], add...)
	}
	var buf bytes.Buffer
	if err := rt.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}

	late := cfg
	late.AllowedLateness = 2
	restored, err := Restore(job, late, bytes.NewReader(rewriteFrame(t, downgrade(t, buf.Bytes(), 2), zeroBackend)))
	if err != nil {
		t.Fatal(err)
	}
	if restored.Backend() != BackendFingerTree {
		t.Fatalf("restored backend = %v, want %v", restored.Backend(), BackendFingerTree)
	}
	if got, want := restored.bucketSeq, uint64(slides+n); got != want {
		t.Fatalf("bucket clock %d after restoring a window whose oldest bucket is %d, want %d", got, slides, want)
	}
	add := genSplits(next, 1, 4, 7)
	res, err := restored.AdvanceLate(0, add)
	if err != nil {
		t.Fatalf("late arrival at the newest edge: %v", err)
	}
	wantSameOutput(t, res.Output, scratch(t, job, append(window, add...)))
}

// zeroBackend leaves a checkpoint without a Backend, as pre-backend writers
// did.
func zeroBackend(st *oldState) { st.Backend = BackendAuto }

// rewriteFrame decodes a checkpoint frame of any version, applies edit (if
// any) and encodes it again, under the header every writer emits now.
func rewriteFrame(t testing.TB, frame []byte, edit func(*oldState)) []byte {
	t.Helper()
	var st oldState
	if err := persist.Decode(frame, &st); err != nil {
		t.Fatal(err)
	}
	if edit != nil {
		edit(&st)
	}
	out, err := persist.Encode(st)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// goldenRewritten pins, per golden checkpoint, the sha256 of the gob body
// of the frame a restored runtime writes back: a version-3 body, the bytes
// after the sld2 header. (Not the golden file's own body: those are
// version-2 frames, which predate key-sorted payloads and name their
// structure by the legacy selectors too, and carry no ledger for a window of
// buckets of w.)
var goldenRewritten = map[string]string{
	"folding":          "868a8a68d29cab79ec8090238f44bfc0dc3fe722c7575060afe1b8d90dd23029",
	"randomized":       "a12bd28012743088dcdfc200ddc596e8980900b2c4b64e26dd49f5e555c2de96",
	"rotating":         "8d404736728ac74c5f1f34e7d3415ffd4a913fc3c7ef16d7971ad1df874012a1",
	"rotating-split":   "8d404736728ac74c5f1f34e7d3415ffd4a913fc3c7ef16d7971ad1df874012a1",
	"coalescing":       "d6e51c70fbd2a26c38e78083637706d87f33aa6e3377454dd939bd957b1a41c5",
	"coalescing-split": "d6e51c70fbd2a26c38e78083637706d87f33aa6e3377454dd939bd957b1a41c5",
	"strawman":         "3dd884bb2ee1e3384bcb9c43ecf198b63bf264e79bfe75f9592780f88921d0d8",
	"daba":             "0472cdae9bac0ea1b3738218a09effa9bf5fd7520d8b775a1319384250d3ac5f",
	"fingertree":       "9547675efd5feace1aeb369af7aaa4c2c0060a327532ce3b89b9b6f3832e222f",
}

// TestRestoreMismatchNamesBothBackends: a restore whose explicit backend
// contradicts the checkpoint's is refused, and the error says which
// structure each side names — also when the difference is one the old
// mode/engine message could not show.
func TestRestoreMismatchNamesBothBackends(t *testing.T) {
	golden, err := os.ReadFile(goldenPath("randomized"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Mode: Variable, Backend: BackendFolding, Memo: testMemoConfig()}
	_, err = Restore(wordCountJob(), cfg, bytes.NewReader(golden))
	if !errors.Is(err, ErrBadBackend) {
		t.Fatalf("err = %v, want ErrBadBackend", err)
	}
	for _, want := range []string{"checkpoint V/randomized-folding", "config V/folding"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not say %q", err, want)
		}
	}
	// Following the checkpoint is subject to the matrix: a rotating frame
	// cannot be followed by a job without a commutative combiner.
	golden, err = os.ReadFile(goldenPath("rotating"))
	if err != nil {
		t.Fatal(err)
	}
	job := wordCountJob()
	job.Commutative = false
	cfg = Config{Mode: Fixed, BucketSplits: 2, WindowBuckets: 6, Memo: testMemoConfig()}
	if _, err := Restore(job, cfg, bytes.NewReader(golden)); !errors.Is(err, ErrBadBackend) {
		t.Fatalf("non-commutative job followed a rotating checkpoint: err = %v", err)
	}
}
