package sliderrt

import (
	"bytes"
	"errors"
	"testing"

	"slider/internal/mapreduce"
)

// oooConfig is the canonical out-of-order Fixed config the tests drive:
// auto backend selection routed to the finger tree by AllowedLateness.
func oooConfig(par int) Config {
	return Config{
		Mode:            Fixed,
		BucketSplits:    2,
		WindowBuckets:   5,
		AllowedLateness: 3,
		Parallelism:     par,
		Memo:            testMemoConfig(),
	}
}

// oooHarness drives one out-of-order runtime against a flat split-window
// model, tracking the bucket ledger exactly as the runtime does.
type oooHarness struct {
	t      *testing.T
	job    *mapreduce.Job
	rt     *Runtime
	window []mapreduce.Split
	sizes  []int // splits per bucket, oldest first
	next   int
}

func newOOOHarness(t *testing.T, cfg Config) *oooHarness {
	t.Helper()
	h := &oooHarness{t: t, job: wordCountJob()}
	rt, err := New(h.job, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.rt = rt
	n := cfg.BucketSplits * cfg.WindowBuckets
	h.window = genSplits(0, n, 4, 7)
	h.next = n
	res, err := rt.Initial(h.window)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cfg.WindowBuckets; i++ {
		h.sizes = append(h.sizes, cfg.BucketSplits)
	}
	wantSameOutput(t, res.Output, scratch(t, h.job, h.window))
	return h
}

func (h *oooHarness) take(n int) []mapreduce.Split {
	s := genSplits(h.next, n, 4, 7)
	h.next += n
	return s
}

func (h *oooHarness) check(res *RunResult) {
	h.t.Helper()
	wantSameOutput(h.t, res.Output, scratch(h.t, h.job, h.window))
}

// slide advances by dropBuckets whole buckets and addBuckets fresh ones.
func (h *oooHarness) slide(dropBuckets, addBuckets int) {
	h.t.Helper()
	drop := 0
	for _, sz := range h.sizes[:dropBuckets] {
		drop += sz
	}
	w := h.rt.cfg.BucketSplits
	add := h.take(addBuckets * w)
	res, err := h.rt.Advance(drop, add)
	if err != nil {
		h.t.Fatalf("Advance(drop=%d, add=%d): %v", drop, len(add), err)
	}
	h.window = append(h.window[drop:], add...)
	h.sizes = append(h.sizes[dropBuckets:], make([]int, addBuckets)...)
	for i := len(h.sizes) - addBuckets; i < len(h.sizes); i++ {
		h.sizes[i] = w
	}
	h.check(res)
}

// late lands n late splits `lateness` buckets behind the newest.
func (h *oooHarness) late(lateness, n int) {
	h.t.Helper()
	late := h.take(n)
	res, err := h.rt.AdvanceLate(lateness, late)
	if err != nil {
		h.t.Fatalf("AdvanceLate(%d): %v", lateness, err)
	}
	pos := len(h.window)
	for i := len(h.sizes) - lateness; i < len(h.sizes); i++ {
		pos -= h.sizes[i]
	}
	h.window = append(h.window[:pos:pos], append(append([]mapreduce.Split{}, late...), h.window[pos:]...)...)
	bpos := len(h.sizes) - lateness
	h.sizes = append(h.sizes[:bpos:bpos], append([]int{n}, h.sizes[bpos:]...)...)
	h.check(res)
}

func TestResolveBackendOutOfOrder(t *testing.T) {
	job := wordCountJob()
	mk := func(mut func(*Config)) (*Runtime, error) {
		cfg := oooConfig(1)
		mut(&cfg)
		return New(job, cfg)
	}

	rt, err := mk(func(c *Config) {})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Backend() != BackendFingerTree {
		t.Fatalf("AllowedLateness>0 resolved to %v, want fingertree", rt.Backend())
	}

	// Every explicit non-fingertree backend is an illegal override for an
	// out-of-order job.
	for _, b := range []Backend{BackendDaba, BackendRotating, BackendCoalescing,
		BackendFolding, BackendRandomizedFolding} {
		if _, err := mk(func(c *Config) { c.Backend = b }); !errors.Is(err, ErrBadBackend) {
			t.Fatalf("out-of-order + explicit %v: err = %v, want ErrBadBackend", b, err)
		}
	}
	if _, err := mk(func(c *Config) { c.SplitProcessing = true }); !errors.Is(err, ErrBadBackend) {
		t.Fatalf("out-of-order + split processing: err = %v, want ErrBadBackend", err)
	}

	// Explicit fingertree is legal for an in-order Fixed job too.
	rt, err = mk(func(c *Config) { c.AllowedLateness = 0; c.Backend = BackendFingerTree })
	if err != nil {
		t.Fatal(err)
	}
	if rt.Backend() != BackendFingerTree {
		t.Fatalf("explicit fingertree resolved to %v", rt.Backend())
	}

	// AllowedLateness is a Fixed-mode knob.
	for _, mode := range []Mode{Append, Variable} {
		if _, err := mk(func(c *Config) { c.Mode = mode; c.BucketSplits = 0; c.WindowBuckets = 0 }); !errors.Is(err, ErrBadMode) {
			t.Fatalf("AllowedLateness in %v mode: err = %v, want ErrBadMode", mode, err)
		}
	}
}

// TestOutOfOrderOracle drives slides, late arrivals, bulk evictions, and
// bulk insertions through the finger-tree runtime, checking every output
// against recomputation from scratch at parallelism 1, 4, and 8.
func TestOutOfOrderOracle(t *testing.T) {
	for _, par := range []int{1, 4, 8} {
		h := newOOOHarness(t, oooConfig(par))
		h.slide(1, 1) // plain slide
		h.late(1, 1)  // one split, one bucket behind the newest
		h.late(3, 2)  // deeper: two splits, three buckets back
		h.slide(2, 2) // evicts the oldest two buckets
		h.late(0, 1)  // lateness 0: lands at the newest edge
		h.slide(3, 1) // shrinks the window (bulk evict heavy)
		h.slide(0, 2) // pure bulk insert (window grows back)
		h.slide(1, 1) // and a normal slide to finish
		if got := h.rt.Live(); got != len(h.window) {
			t.Fatalf("par %d: Live = %d, model %d", par, got, len(h.window))
		}
	}
}

// TestOutOfOrderBulkBound asserts the bulk operations' cost claim at the
// runtime layer: a K-bucket advance costs O(K + log w) combines per
// partition, with no K·log w cross term; and at w = 512 one K-bucket
// advance costs fewer merges than the same K buckets as K one-bucket
// advances (K root paths, c·K·log w), for K of 32 and 256: 174 against
// 3 144 and 870 against 16 371 measured.
func TestOutOfOrderBulkBound(t *testing.T) {
	cfg := oooConfig(1)
	cfg.WindowBuckets = 64
	h := newOOOHarness(t, cfg)
	h.slide(1, 1) // settle
	for _, k := range []int{4, 16, 32} {
		before := h.rt.Stats().TreeStats.Merges
		h.slide(k, k)
		got := h.rt.Stats().TreeStats.Merges - before
		// Per partition: ≤ c·(K + log w) tree combines; the runtime also
		// folds each new bucket's w splits (K·(w−1) combines) and merges
		// K map outputs, so budget those separately.
		parts := int64(h.job.Partitions)
		w := int64(cfg.BucketSplits)
		bound := parts * (8*int64(k)*w + 16*7 + 32) // log2(64)+1 = 7
		if got > bound {
			t.Fatalf("K=%d: %d merges, bound %d (K+log w, no cross term)", k, got, bound)
		}
	}

	// Bulk against sequential: two finger-tree runtimes take the same K
	// fresh buckets, one in a single advance, one bucket at a time, and so
	// serve the same window after each K.
	const wide = 512
	start := func() *Runtime {
		rt, err := New(h.job, Config{Mode: Fixed, Backend: BackendFingerTree, BucketSplits: 1, WindowBuckets: wide, Memo: testMemoConfig()})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Initial(genSplits(0, wide, 4, 7)); err != nil {
			t.Fatal(err)
		}
		return rt
	}
	bulk, seq := start(), start()
	merges := func(rt *Runtime) int64 {
		if err := rt.Background(); err != nil {
			t.Fatal(err)
		}
		return rt.Stats().TreeStats.Merges
	}
	next := wide
	for _, k := range []int{32, 256} {
		add := genSplits(next, k, 4, 7)
		next += k
		before := merges(bulk)
		want, err := bulk.Advance(k, add)
		if err != nil {
			t.Fatal(err)
		}
		bulkMerges := merges(bulk) - before
		before = merges(seq)
		var got *RunResult
		for i := range add {
			if got, err = seq.Advance(1, add[i:i+1]); err != nil {
				t.Fatal(err)
			}
		}
		seqMerges := merges(seq) - before
		wantSameOutput(t, got.Output, want.Output)
		t.Logf("K=%d at w=%d: bulk %d merges, sequential %d", k, wide, bulkMerges, seqMerges)
		if bulkMerges <= 0 || bulkMerges >= seqMerges {
			t.Errorf("K=%d at w=%d: bulk advance cost %d merges, sequential %d: bulk must win", k, wide, bulkMerges, seqMerges)
		}
	}
}

func TestAdvanceLateRefusals(t *testing.T) {
	h := newOOOHarness(t, oooConfig(1))

	// Beyond the lateness allowance: the effective watermark refuses it.
	if _, err := h.rt.AdvanceLate(4, h.take(1)); !errors.Is(err, ErrTooLate) {
		t.Fatalf("lateness 4 > allowance 3: err = %v, want ErrTooLate", err)
	}
	// The watermark trails the newest bucket by the allowance, and an
	// arrival exactly on it lands.
	if lag := h.rt.WindowStats().WatermarkLag; lag != 3 {
		t.Fatalf("watermark lag %d, want the allowance 3", lag)
	}
	h.late(3, 1)

	// Late arrivals need the finger-tree backend.
	inOrder := Config{Mode: Fixed, BucketSplits: 2, WindowBuckets: 5, Memo: testMemoConfig()}
	rt, err := New(wordCountJob(), inOrder)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Initial(genSplits(0, 10, 4, 7)); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.AdvanceLate(1, genSplits(10, 1, 4, 7)); !errors.Is(err, ErrBadBackend) {
		t.Fatalf("AdvanceLate on daba backend: err = %v, want ErrBadBackend", err)
	}

	// A drop that cuts a bucket in half is refused.
	if _, err := h.rt.Advance(1, h.take(2)); !errors.Is(err, ErrBadAdvance) {
		t.Fatalf("misaligned drop: err = %v, want ErrBadAdvance", err)
	}
}

// TestFingerTreeCheckpointRoundTrip checkpoints an out-of-order window —
// including late, narrow buckets — and restores it at parallelism 1, 4,
// and 8: StateFingerprint must be preserved bit-for-bit across the
// round-trip, and the restored runtime must keep answering correctly
// through further slides and late arrivals.
func TestFingerTreeCheckpointRoundTrip(t *testing.T) {
	for _, par := range []int{1, 4, 8} {
		h := newOOOHarness(t, oooConfig(par))
		h.slide(1, 1)
		h.late(2, 1)
		h.late(1, 3)

		var buf bytes.Buffer
		if err := h.rt.Checkpoint(&buf); err != nil {
			t.Fatalf("par %d: checkpoint: %v", par, err)
		}
		fpBefore := h.rt.StateFingerprint()

		restored, err := Restore(h.job, oooConfig(par), bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("par %d: restore: %v", par, err)
		}
		if restored.Backend() != BackendFingerTree {
			t.Fatalf("par %d: restored backend %v", par, restored.Backend())
		}
		if got := restored.StateFingerprint(); got != fpBefore {
			t.Fatalf("par %d: StateFingerprint changed across restore: %#x → %#x", par, fpBefore, got)
		}

		// The restored runtime continues the window where it left off.
		h.rt = restored
		h.slide(2, 1)
		h.late(1, 2)
		h.slide(1, 2)
	}
}

// TestFingerTreeCheckpointCrossParRestore: a checkpoint written at one
// parallelism restores at another with the same logical fingerprint.
func TestFingerTreeCheckpointCrossParRestore(t *testing.T) {
	h := newOOOHarness(t, oooConfig(4))
	h.slide(1, 1)
	h.late(2, 2)
	var buf bytes.Buffer
	if err := h.rt.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	fp := h.rt.StateFingerprint()
	restored, err := Restore(h.job, oooConfig(8), bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.StateFingerprint(); got != fp {
		t.Fatalf("cross-par restore fingerprint: %#x → %#x", fp, got)
	}
	h.rt = restored
	h.slide(1, 1)
}

// TestRestoreFingerTreeConflictingBackend is the regression test for the
// refusal path: a FingerTree checkpoint restored under an explicit
// conflicting Config.Backend must fail with ErrBadBackend, in both
// directions.
func TestRestoreFingerTreeConflictingBackend(t *testing.T) {
	h := newOOOHarness(t, oooConfig(1))
	h.slide(1, 1)
	var buf bytes.Buffer
	if err := h.rt.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}

	// FingerTree checkpoint, explicit in-order daba config.
	cfg := Config{Mode: Fixed, BucketSplits: 2, WindowBuckets: 5,
		Backend: BackendDaba, Memo: testMemoConfig()}
	if _, err := Restore(h.job, cfg, bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrBadBackend) {
		t.Fatalf("fingertree checkpoint + explicit daba: err = %v, want ErrBadBackend", err)
	}
	// FingerTree checkpoint, out-of-order config pinned to rotating.
	cfg = oooConfig(1)
	cfg.Backend = BackendRotating
	if _, err := Restore(h.job, cfg, bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrBadBackend) {
		t.Fatalf("fingertree checkpoint + explicit rotating: err = %v, want ErrBadBackend", err)
	}

	// Daba checkpoint, out-of-order (auto→fingertree) config: refused too
	// — the checkpoint's backend cannot serve an out-of-order window.
	inOrder := Config{Mode: Fixed, BucketSplits: 2, WindowBuckets: 5, Memo: testMemoConfig()}
	rt, err := New(h.job, inOrder)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Initial(genSplits(0, 10, 4, 7)); err != nil {
		t.Fatal(err)
	}
	var dabaBuf bytes.Buffer
	if err := rt.Checkpoint(&dabaBuf); err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(h.job, oooConfig(1), bytes.NewReader(dabaBuf.Bytes())); err == nil {
		t.Fatal("daba checkpoint restored into an out-of-order config: want error")
	}

	// An auto in-order config follows a fingertree checkpoint's backend.
	auto := Config{Mode: Fixed, BucketSplits: 2, WindowBuckets: 5, Memo: testMemoConfig()}
	restored, err := Restore(h.job, auto, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if restored.Backend() != BackendFingerTree {
		t.Fatalf("auto restore followed checkpoint to %v, want fingertree", restored.Backend())
	}
}
