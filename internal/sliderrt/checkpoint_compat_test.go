package sliderrt

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
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

// downgradeToV1 rewrites a current checkpoint frame into the version-1
// layout: payload state moved back into the legacy gob map fields, flat
// byte fields absent, Version 1. This is byte-for-byte what a pre-flat
// writer produced (gob omits nil fields from the stream), so restoring it
// exercises the real upgrade path.
func downgradeToV1(t testing.TB, frame []byte) []byte {
	t.Helper()
	var st checkpointState
	if err := persist.Decode(frame, &st); err != nil {
		t.Fatal(err)
	}
	if st.Version != checkpointVersion {
		t.Fatalf("seed checkpoint version %d, want %d", st.Version, checkpointVersion)
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
	st.Version = 1
	out, err := persist.Encode(st)
	if err != nil {
		t.Fatal(err)
	}
	return out
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
	restored, err := Restore(wordCountJob(), cfg, bytes.NewReader(downgradeToV1(t, buf.Bytes())))
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
	v1 := downgradeToV1(t, buf.Bytes())
	var st checkpointState
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
	st.Backend = BackendAuto // pre-backend writers had no Backend field
	frame, err := persist.Encode(st)
	if err != nil {
		t.Fatal(err)
	}

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
// now come back as an error before any aggregator holds the state.
func TestRestoreRejectsInconsistentFrames(t *testing.T) {
	fingerTree := Config{Mode: Fixed, BucketSplits: 2, WindowBuckets: 2, AllowedLateness: 1}
	cases := []struct {
		name   string
		cfg    Config
		mangle func(st *checkpointState)
	}{
		{"fewer partitions than the header says", Config{Mode: Variable},
			func(st *checkpointState) { st.Partitions = st.Partitions[:len(st.Partitions)-1] }},
		{"no partitions at all", Config{Mode: Append},
			func(st *checkpointState) { st.Partitions = nil }},
		{"randomized: fewer leaf IDs than leaves", Config{Mode: Variable, Backend: BackendRandomizedFolding},
			func(st *checkpointState) { st.Partitions[1].LeafIDs = st.Partitions[1].LeafIDs[:1] }},
		{"strawman: no leaf IDs", Config{Mode: Variable, Backend: BackendStrawman},
			func(st *checkpointState) { st.Partitions[0].LeafIDs = nil }},
		{"strawman: more leaf IDs than leaves", Config{Mode: Fixed, Backend: BackendStrawman, BucketSplits: 2, WindowBuckets: 2},
			func(st *checkpointState) { st.Partitions[2].LeafIDs = append(st.Partitions[2].LeafIDs, 99) }},
		{"append: root flagged but absent", Config{Mode: Append},
			func(st *checkpointState) { st.Partitions[0].FlatRoot = nil }},
		{"append: root present but not flagged", Config{Mode: Append},
			func(st *checkpointState) { st.Partitions[0].HasRoot = false }},
		{"append: pending flagged but absent", Config{Mode: Append},
			func(st *checkpointState) { st.Partitions[1].HasPending = true }},
		{"fixed: victim beyond the buckets", Config{Mode: Fixed, Backend: BackendRotating, BucketSplits: 2, WindowBuckets: 2},
			func(st *checkpointState) { st.Partitions[0].Victim = 2 }},
		{"fingertree: ledger a bucket short", fingerTree,
			func(st *checkpointState) { st.BucketSizes = []int{4} }},
		{"fingertree: ledger holds an empty bucket", fingerTree,
			func(st *checkpointState) { st.BucketSizes = []int{4, 0} }},
		{"fingertree: ledger sums past the live splits", fingerTree,
			func(st *checkpointState) { st.BucketSizes = []int{2, 3} }},
		{"fixed: a bucket short", Config{Mode: Fixed, BucketSplits: 2, WindowBuckets: 2},
			func(st *checkpointState) {
				buckets, err := persist.DecodePayloadSet(st.Partitions[0].FlatBuckets)
				if err != nil {
					t.Fatal(err)
				}
				if st.Partitions[0].FlatBuckets, err = persist.EncodePayloadSet(buckets[:1]); err != nil {
					t.Fatal(err)
				}
			}},
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
			if _, err := rt.Initial(genSplits(0, 4, 4, 7)); err != nil {
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
			if _, err := Restore(wordCountJob(), cfg, bytes.NewReader(frame)); err == nil {
				t.Fatal("inconsistent frame accepted")
			}
		})
	}
}

// TestGoldenFramesAcrossFormats restores every golden checkpoint — as
// written (version 2 under the sld1 header, through persist's legacy
// reader), rewritten under the sld2 header, downgraded to version 1, and,
// for the first and the third, with the Backend field zeroed the way a
// pre-backend writer left it — and requires the pinned fingerprint (which
// covers the backend the restore landed on) and a re-checkpoint with the
// golden frame's decoded content, one sld2 frame whose gob body is exactly
// the bytes pinned in goldenRewritten. Each form is restored under the
// writer's configuration and under BackendAuto: a restore that names no
// backend follows the checkpoint's, so a pinned writer's state is never
// reinterpreted. Pre-backend frames name their structure only through the
// legacy Engine/Randomized selectors, which is what lands the strawman and
// randomized frames on their backends.
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
			v1 := downgradeToV1(t, golden)
			type form struct {
				name  string
				frame []byte
			}
			forms := []form{{"v2", golden}, {"v2 sld2", rewriteFrame(t, golden, nil)}, {"v1", v1}}
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

// zeroBackend leaves a checkpoint without a Backend, as pre-backend writers
// did.
func zeroBackend(st *checkpointState) { st.Backend = BackendAuto }

// rewriteFrame decodes a checkpoint frame, applies edit (if any) and
// encodes it again, under the header every writer emits now.
func rewriteFrame(t testing.TB, frame []byte, edit func(*checkpointState)) []byte {
	t.Helper()
	var st checkpointState
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
// of the frame a restored runtime writes back. (Not the golden file's own
// body: those frames predate key-sorted payloads, and a rewrite lays the
// same entries out in key order.) Computed as the sha256 of frame[16:] at
// the commit before every frame took the sld2 header, when checkpoints
// were written under sld1's 16-byte header: the body did not move.
var goldenRewritten = map[string]string{
	"folding":          "77472acb339d208402b3cc1edc1efdd5ba6d7685db92105b0e682dd1c0aed4f2",
	"randomized":       "32c7fbeea4d48da5bcaa61eeb983cd2dfa02ebd05842715957eeebb89d80513e",
	"rotating":         "e9274168f869ceb4b125602190cd7a10370e009b87517bbf5584c605308cd372",
	"rotating-split":   "e9274168f869ceb4b125602190cd7a10370e009b87517bbf5584c605308cd372",
	"coalescing":       "4b5008b5020197e00aaa84b10ed5d3d10490873b9486a18dd99c35b3ff0a9144",
	"coalescing-split": "4b5008b5020197e00aaa84b10ed5d3d10490873b9486a18dd99c35b3ff0a9144",
	"strawman":         "a2cc2babc96b2b6f26977c04abcfa507eb0e6fe36166c7df5592c79c5d9fa175",
	"daba":             "a4a34b0cf8284d4d1507c9364c307fca07cdb5ab9201775599bb61945ac727c4",
	"fingertree":       "6e0b6e432961b5b4c4dd42bc02e9c94ea9e74606079b3e50881b3c4f14cef7fb",
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
