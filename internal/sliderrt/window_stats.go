package sliderrt

import "sync/atomic"

// This file is the bucket ledger's observability surface. The Runtime is
// not safe for concurrent use, but /metrics scrapes from an arbitrary
// goroutine — so the bucket-ledger gauges are published into atomics at
// the points where the ledger is quiescent (slide end, upkeep end,
// checkpoint restore) and the late-arrival counters are atomics outright. A
// scrape therefore always sees a consistent post-slide view and never races
// a slide mutating bucketSizes in place. The free lists' holding is
// published the same way.

// WindowStats is a concurrent-read-safe snapshot of the window's bucket
// ledger, its out-of-order state and the storage its free lists hold.
type WindowStats struct {
	// LiveBuckets is the bucket-ledger width: the live buckets of a Fixed
	// window, late-inserted ones included — WindowBuckets for a count
	// window, the periods for a time window. 0 for a window of splits
	// (Append and Variable modes, the strawman), which keeps no ledger.
	LiveBuckets int
	// WatermarkLag is how many buckets the effective watermark
	// bucketSeq−AllowedLateness (saturating at 0) trails the newest
	// in-order bucket — the width of the region still open to late
	// arrivals. 0 for in-order backends.
	WatermarkLag uint64
	// LateAccepts counts AdvanceLate calls that landed a late bucket.
	LateAccepts int64
	// LateRejects counts late arrivals refused with ErrTooLate (behind
	// the effective watermark or deeper than AllowedLateness).
	LateRejects int64
	// FreeListBytes is the memory the partitions' free lists, and the
	// structures' spares, hold for the next merges to be built in — storage
	// SpaceBytes leaves out, see RuntimeStats.FreeList.
	FreeListBytes int64
}

// windowGauges holds the published values (see file comment).
type windowGauges struct {
	liveBuckets   atomic.Int64
	watermarkLag  atomic.Int64
	lateAccepts   atomic.Int64
	lateRejects   atomic.Int64
	freeListBytes atomic.Int64
}

// publishWindowGauges republishes the ledger-derived gauges and the free
// lists' holding; called only while the ledger and the lists are quiescent
// (a run's end, its upkeep's end, a restore).
func (rt *Runtime) publishWindowGauges() {
	rt.gauges.freeListBytes.Store(rt.freeListStats().Bytes())
	rt.gauges.liveBuckets.Store(int64(len(rt.bucketSizes)))
	var lag uint64
	if rt.outOfOrder() {
		lag = min(rt.bucketSeq, uint64(rt.cfg.AllowedLateness))
	}
	rt.gauges.watermarkLag.Store(int64(lag))
}

// WindowStats returns the bucket-ledger and out-of-order gauges and the
// free lists' holding. Safe to call concurrently with running slides (values are as of
// the last completed slide, upkeep or restore).
func (rt *Runtime) WindowStats() WindowStats {
	return WindowStats{
		LiveBuckets:   int(rt.gauges.liveBuckets.Load()),
		WatermarkLag:  uint64(rt.gauges.watermarkLag.Load()),
		LateAccepts:   rt.gauges.lateAccepts.Load(),
		LateRejects:   rt.gauges.lateRejects.Load(),
		FreeListBytes: rt.gauges.freeListBytes.Load(),
	}
}
