// Package sliderrt is the Slider runtime: it drives a user's
// non-incremental MapReduce job through initial and incremental sliding
// window runs, wiring the self-adjusting contraction trees of
// internal/core into the reduce phase, memoizing state in the
// fault-tolerant cache of internal/memo, and recording measured task
// costs for the cluster simulator.
//
// The runtime implements Algorithm 1 of the paper: new input is handled
// by fresh map tasks, the delta (−δ, +δ) is propagated through the
// contraction tree of each reduce partition, and the window is adjusted
// for the next run.
package sliderrt

import (
	"errors"
	"fmt"

	"slider/internal/mapreduce"
	"slider/internal/memo"
	"slider/internal/metrics"
)

// Mode selects the sliding-window variant, which in turn selects the
// contraction-tree data structure (§3–§4).
type Mode int

// Window modes.
const (
	// Append is the append-only (bulk-appended) mode: the window only
	// grows. Uses coalescing contraction trees (§4.2).
	Append Mode = iota + 1
	// Fixed is the fixed-width mode: the window holds WindowBuckets
	// buckets, and every slide drops as many buckets as it adds — of w
	// splits each, or one period of any volume (BucketSplits 0). Served by
	// the daba kind's amortized O(1) queue (Two-Stacks Lite) or the
	// rotating contraction tree (§4.1) — see Backend.
	Fixed
	// Variable is the general mode: the window may shrink and grow by
	// arbitrary, different amounts. Uses folding trees (§3.1) or
	// randomized folding trees (§3.2).
	Variable
)

// String returns the mode letter used in the paper's figures.
func (m Mode) String() string {
	switch m {
	case Append:
		return "A"
	case Fixed:
		return "F"
	case Variable:
		return "V"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config configures a Runtime.
type Config struct {
	// Mode is the sliding-window variant. Required.
	Mode Mode
	// Backend is the one selector of the structure behind the window (see
	// the Backend type's selection matrix). The zero value, BackendAuto,
	// resolves to the cheapest structure legal for the mode and the job's
	// declared combiner properties — for fixed-width in-order windows
	// without split processing that is the daba kind's O(1) aggregator;
	// BackendRandomizedFolding and BackendStrawman are only ever chosen
	// explicitly. A backend that cannot serve the mode, the combiner,
	// SplitProcessing or AllowedLateness makes New fail with ErrBadBackend.
	Backend Backend
	// SplitProcessing enables the background pre-processing of §4, which
	// the coalescing (Append) and rotating (Fixed) trees implement; it
	// routes a Fixed window's backend selection to the rotating tree.
	SplitProcessing bool
	// AllowedLateness admits out-of-order arrivals on Fixed-mode windows:
	// a late record may land up to AllowedLateness buckets behind the
	// newest bucket (AdvanceLate). Any positive value marks the job
	// out-of-order and routes backend selection to the finger tree — the
	// only structure whose window a late record can enter mid-sequence —
	// so an explicit conflicting Backend fails with ErrBadBackend.
	// Arrivals older than the allowance are refused with ErrTooLate: the
	// effective low watermark is the newest bucket sequence −
	// AllowedLateness.
	AllowedLateness int
	// BucketSplits is w, the number of splits per bucket (Fixed mode). Zero
	// makes a bucket whatever one run adds — a period of varying volume, none
	// at all for an empty one: the window starts with InitialBuckets, and
	// every Advance adds one bucket and drops the oldest, whose splits drop
	// must count. The daba kind (the default) and the rotating tree serve
	// such a window; AllowedLateness needs buckets of w.
	BucketSplits int
	// WindowBuckets is N, the number of buckets in the window (Fixed
	// mode). The window thus holds N×w splits — or N periods.
	WindowBuckets int
	// RebuildFactor is the folding tree's rebalance trigger (§3.2);
	// 0 uses the default, negative disables rebuilding.
	RebuildFactor int
	// Parallelism bounds how many map tasks, and then how many partition
	// updates, a run has in flight at once (0 = GOMAXPROCS). A partition's
	// contraction runs on one goroutine; to use more cores on it, use more
	// partitions (DESIGN.md §4.9).
	Parallelism int
	// Seed fixes the randomized tree's coin flips.
	Seed uint64
	// Memo configures the memoization layer; zero value uses defaults.
	Memo memo.Config
	// MapRunner overrides where map tasks execute (default: the
	// in-process parallel executor). Set it to a dist.Pool to run map
	// tasks on remote workers.
	MapRunner mapreduce.MapRunner
	// GCPolicy, when set, runs after the automatic out-of-window
	// collection on every slide and may evict additional memoized
	// entries (the paper's "more aggressive user-defined policy", §6).
	// Return true to evict the entry.
	GCPolicy func(key string, lo, hi uint64, size int64) bool
	// Obs, when set, instruments every slide: end-to-end and per-phase
	// latency histograms, memo read/write latency, and span traces
	// (subject to Obs.Tracer's mode). Nil — the default — disables the
	// instrumentation path entirely. Hand the same bundle to the obs
	// HTTP server to introspect the runtime live.
	Obs *metrics.SlideObs
}

// Validation errors.
var (
	ErrBadMode      = errors.New("sliderrt: invalid or missing window mode")
	ErrBadBackend   = errors.New("sliderrt: backend incompatible with the window mode, combiner or window options")
	ErrBadBuckets   = errors.New("sliderrt: Fixed mode requires positive WindowBuckets and non-negative BucketSplits")
	ErrBadAdvance   = errors.New("sliderrt: advance shape does not match the window mode")
	ErrNotInitial   = errors.New("sliderrt: Advance before Initial")
	ErrReinitialize = errors.New("sliderrt: Initial called twice")
	ErrTooLate      = errors.New("sliderrt: arrival behind the watermark")
)

// validate normalizes and checks the configuration.
func (c *Config) validate() error {
	switch c.Mode {
	case Append, Variable:
		if c.AllowedLateness > 0 {
			return fmt.Errorf("%w: AllowedLateness applies to Fixed-mode windows only", ErrBadMode)
		}
	case Fixed:
		if c.BucketSplits < 0 || c.WindowBuckets <= 0 {
			return ErrBadBuckets
		}
		if c.AllowedLateness < 0 {
			return fmt.Errorf("%w: negative AllowedLateness", ErrBadMode)
		}
		if c.AllowedLateness > 0 && c.BucketSplits == 0 {
			return fmt.Errorf("%w: AllowedLateness needs buckets of BucketSplits splits", ErrBadBuckets)
		}
	default:
		return ErrBadMode
	}
	if c.Memo.Nodes <= 0 {
		c.Memo = memo.DefaultConfig()
	}
	return nil
}
