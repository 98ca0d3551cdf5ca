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

// goldenBody is a checkpoint body as the version-2 golden checkpoints lay it
// out: the selectors that named the structure before Backend existed
// (Engine, Randomized) beside the fields version 3 keeps. A frame of either
// version decoded into it and encoded again keeps every field it had.
type goldenBody struct {
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
	Partitions    []partCheckpoint
}

// version1 numbers a body as a version-1 writer's, and zeroBackend leaves it
// without a Backend, as pre-backend writers did: two bodies Restore refuses.
func version1(st *goldenBody)    { st.Version = 1 }
func zeroBackend(st *goldenBody) { st.Backend = BackendAuto }

// TestRestoreRefusesRetiredBodies: a version-1 body and a body that names no
// backend — of version 2 or 3 — are refused, under the writer's backend and
// under BackendAuto, with an error that says which of the two it is.
func TestRestoreRefusesRetiredBodies(t *testing.T) {
	for _, c := range identityCases() {
		golden, err := os.ReadFile(goldenPath(c.name))
		if err != nil {
			t.Fatal(err)
		}
		cfg := c.cfg
		cfg.Memo = testMemoConfig()
		auto := cfg
		auto.Backend = BackendAuto
		forms := []struct {
			name, want string
			frame      []byte
		}{
			{"v1", "unsupported checkpoint version 1", rewriteFrame(t, golden, version1)},
			{"v2 pre-backend", "names no backend", rewriteFrame(t, golden, zeroBackend)},
			{"v3 pre-backend", "names no backend", rewriteFrame(t, recheckpoint(t, cfg, golden), zeroBackend)},
		}
		for _, form := range forms {
			for _, under := range []Config{cfg, auto} {
				_, err := Restore(wordCountJob(), under, bytes.NewReader(form.frame))
				if err == nil || !strings.Contains(err.Error(), form.want) {
					t.Fatalf("%s: %s under backend %v: err = %v, want it refused as %q", c.name, form.name, under.Backend, err, form.want)
				}
			}
		}
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

// swapPartitions exchanges the state of partitions 0 and 1: every length,
// flag and ledger still holds, but each key sits in a partition it does not
// hash to.
func swapPartitions(st *checkpointState) {
	st.Partitions[0], st.Partitions[1] = st.Partitions[1], st.Partitions[0]
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
			func(st *checkpointState) { st.Partitions[0].Victim = 2 }, "no victim cursor 2"},
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
		{"daba: a victim cursor", daba,
			func(st *checkpointState) { st.Partitions[0].Victim = 1 }, "no victim cursor 1"},
		{"fingertree: a victim cursor", fingerTree,
			func(st *checkpointState) { st.Partitions[2].Victim = 1 }, "no victim cursor 1"},
		{"folding: a ledger", Config{Mode: Variable},
			func(st *checkpointState) { st.BucketSizes, st.BucketSeq = []int{4}, 1 }, "keeps no bucket ledger"},
		{"folding: leaves of partitions 0 and 1 swapped", Config{Mode: Variable},
			swapPartitions, "belongs to partition"},
		{"daba: buckets of partitions 0 and 1 swapped", daba,
			swapPartitions, "belongs to partition"},
		{"append: root and pending of partitions 0 and 1 swapped", Config{Mode: Append},
			swapPartitions, "belongs to partition"},
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
// reader), rewritten under the sld2 header, and as the version-3 frame a
// restored runtime writes back — and requires the pinned fingerprint (which
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
			forms := []struct {
				name  string
				frame []byte
			}{{"v2", golden}, {"v2 sld2", rewriteFrame(t, golden, nil)}, {"v3", recheckpoint(t, cfg, golden)}}
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
// every golden checkpoint as written (version 2): a window of buckets of w
// gets its WindowBuckets buckets on the clock its oldest bucket puts it at,
// the ledger the restored runtime writes back. A version-3 body it leaves
// as it is.
func TestUpgradeReadsOlderBodies(t *testing.T) {
	for _, c := range identityCases() {
		golden, err := os.ReadFile(goldenPath(c.name))
		if err != nil {
			t.Fatal(err)
		}
		cfg := c.cfg
		cfg.Memo = testMemoConfig()
		v3 := recheckpoint(t, cfg, golden)
		wantSameCheckpoint(t, v3, golden)
		var old, st, before checkpointState
		if err := errors.Join(persist.Decode(golden, &old), persist.Decode(v3, &st), persist.Decode(v3, &before)); err != nil {
			t.Fatal(err)
		}
		if old.Version != 2 {
			t.Fatalf("%s: the golden checkpoint is a version-%d body, want 2", c.name, old.Version)
		}
		if err := upgrade(&old, len(golden)); err != nil {
			t.Fatal(err)
		}
		if w := old.BucketSplits; old.Mode == Fixed && c.name != "fingertree" {
			if len(old.BucketSizes) != old.WindowBuckets || slices.ContainsFunc(old.BucketSizes, func(sz int) bool { return sz != w }) ||
				old.BucketSeq != old.WindowLo/uint64(w)+uint64(old.WindowBuckets) {
				t.Fatalf("%s: ledger %v on clock %d, want %d buckets of %d on clock %d", c.name, old.BucketSizes, old.BucketSeq,
					old.WindowBuckets, w, old.WindowLo/uint64(w)+uint64(old.WindowBuckets))
			}
		}
		if old.Version != checkpointVersion || !slices.Equal(old.BucketSizes, st.BucketSizes) || old.BucketSeq != st.BucketSeq {
			t.Fatalf("%s: upgrade made version %d with ledger %v on clock %d, the restored runtime writes %v on clock %d",
				c.name, old.Version, old.BucketSizes, old.BucketSeq, st.BucketSizes, st.BucketSeq)
		}
		if err := upgrade(&st, len(v3)); err != nil || !reflect.DeepEqual(st, before) {
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

// rewriteFrame decodes a checkpoint frame, applies edit (if any) and
// encodes it again, under the header every writer emits now.
func rewriteFrame(t testing.TB, frame []byte, edit func(*goldenBody)) []byte {
	t.Helper()
	var st goldenBody
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
