// Package stream provides a record-oriented driver on top of the Slider
// runtime: callers push individual records (optionally timestamped) and
// the driver forms splits, fills the initial window, and slides it
// automatically, delivering each run's output through a callback.
//
// Two windowing policies are provided:
//
//   - CountWindow: the window holds a fixed number of splits and slides
//     by a fixed number of splits (Fixed mode underneath — or Append
//     mode when SlideSplits is 0).
//   - TimeWindow: records carry timestamps; the window covers a fixed
//     duration and slides by a fixed period. It always holds the same
//     number of periods, whatever volume each carried, so Fixed mode runs
//     underneath with one bucket per period (BucketSplits 0) — the daba
//     kind unless the caller picks a structure; one picked for Variable
//     mode keeps a Variable window over the splits.
//
// Both are front ends of one bucket driver. A front end only forms splits
// and says when a bucket — one slide's worth of them — is closed and where
// the window then ends; the driver owns the window.
//
// A split does not copy its records: it is lent a capped slice of the front
// end's buffer, which the runtime reads during the run that maps the split
// and keeps nothing of afterwards (sliderrt.Runtime.Initial and Advance).
// Once the bucket's run has returned, the buffer's unsplit records move to
// its front and the storage is reused — unless the driver still holds the
// splits of a first window that has not run yet, which keep the old buffer.
package stream

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"time"

	"slider/internal/mapreduce"
	"slider/internal/sliderrt"
)

// Output delivers one run's results.
type Output struct {
	// Result is the runtime's run result (output, work reports). Its Output
	// map and Changed list are the runtime's, which patches the map on the
	// next run: they are valid until the sink returns and the next window
	// runs, and a sink that keeps a window's output clones it (maps.Clone).
	// The window's upkeep runs after the sink returns, so Result.Background
	// reports the previous window's.
	Result *sliderrt.RunResult
	// SlideID is the run's 1-based sequence number — the correlation key
	// for span traces and tree snapshots (Result.SlideID, hoisted here
	// for sinks that only look at the envelope).
	SlideID uint64
	// WindowStart/WindowEnd describe the window: split indexes for
	// count windows, timestamps for time windows.
	WindowStart int64
	WindowEnd   int64
}

// Sink consumes run outputs.
type Sink func(Output) error

// ErrStopped is returned by Push after the stream is closed.
var ErrStopped = errors.New("stream: stopped")

// ErrOutOfOrder is returned by TimeWindow.Push for a record older than the
// open period: that period's predecessors are closed and may have left the
// window. The window is untouched and the stream stays usable.
var ErrOutOfOrder = errors.New("stream: record older than the open period")

// driver is the bucket driver under both windows. It is handed closed
// buckets in order, each with the bound the window ends at once the bucket
// is its newest, and runs the window: the initial run over the first width
// buckets, then one slide per bucket — oldest live bucket out, new bucket
// in — delivering every run's output to the sink.
type driver struct {
	rt   *sliderrt.Runtime
	sink Sink
	// width is the window length in buckets; span is WindowEnd −
	// WindowStart, 0 for an append-only window, which drops nothing: it
	// starts at split 0 and grows.
	width int
	span  int64
	// ledger holds the split count of every live bucket — a ring once the
	// window is full, head at the oldest. pending holds the splits of the
	// first window until it runs.
	ledger  []int
	head    int
	pending []mapreduce.Split
	started bool
	// buckets says the runtime keeps the window's buckets (Fixed mode): its
	// first run is told their widths (sliderrt.Runtime.InitialBuckets).
	buckets bool
}

// close takes the next closed bucket — its splits, none for an empty
// period — and runs the window forward: the run, then the sink, then the
// run's upkeep (sliderrt.Runtime.Background), so that the sink has the
// window before the structures prepare the next slide. The caller keeps the
// slice, and the splits' records are the caller's again when close returns
// — unless the first window has not run, and pending still holds them (see
// reclaim). A run that fails returns its error with the bucket left out of
// the window; a sink that fails leaves the upkeep to the next run.
func (d *driver) close(splits []mapreduce.Split, end int64) error {
	var res *sliderrt.RunResult
	var err error
	if d.started {
		drop := 0
		if d.span > 0 {
			drop = d.ledger[d.head]
		}
		if res, err = d.rt.Advance(drop, splits); err != nil {
			return err
		}
		d.record(len(splits))
	} else {
		if len(d.ledger) == d.width {
			// The first window did not run — all its buckets were empty,
			// or the run failed: it moves on by one bucket.
			d.pending = d.pending[d.ledger[d.head]:]
		}
		d.record(len(splits))
		d.pending = append(d.pending, splits...)
		if len(d.ledger) < d.width || len(d.pending) == 0 {
			return nil
		}
		if d.buckets {
			res, err = d.rt.InitialBuckets(slices.Concat(d.ledger[d.head:], d.ledger[:d.head]), d.pending)
		} else {
			res, err = d.rt.Initial(d.pending)
		}
		if err != nil {
			return err
		}
		d.started, d.pending = true, nil
	}
	start := int64(0)
	if d.span > 0 {
		start = end - d.span
	}
	if err := d.sink(Output{Result: res, SlideID: res.SlideID, WindowStart: start, WindowEnd: end}); err != nil {
		return err
	}
	return d.rt.Background()
}

// record enters the newest bucket in the ledger, over the oldest once the
// window is full.
func (d *driver) record(splits int) {
	if len(d.ledger) < d.width {
		d.ledger = append(d.ledger, splits)
		return
	}
	d.ledger[d.head] = splits
	d.head = (d.head + 1) % d.width
}

// reclaim returns the front end's buffer to go on filling once close has
// returned the splits lent out of buf[:cut] — the runtime keeps no split past
// a run: the unsplit tail buf[cut:] moves to the front and the storage is
// reused. Splits the driver still holds for a first window that has not run
// are not back, so the tail then moves to a fresh buffer instead and the old
// one stays theirs. A tail longer than the closed bucket, which only a bulk
// push leaves, does not move at all: the buffer goes on from it, so no record
// moves more than once.
func (d *driver) reclaim(buf []mapreduce.Record, cut int) []mapreduce.Record {
	tail := buf[cut:]
	switch {
	case len(tail) > cut:
		if len(d.pending) == 0 {
			clear(buf[:cut])
		}
		return tail
	case len(d.pending) > 0:
		return append([]mapreduce.Record(nil), tail...)
	}
	n := copy(buf, tail)
	clear(buf[n:])
	return buf[:n]
}

// newSplit lends records to the stream's next split: the split reads them
// where the front end buffered them, in a slice capped at its last record, so
// nothing the split is handed can append over the buffer. The buffer reuses
// that storage only once the split is back (reclaim).
func newSplit(prefix string, seq int, records []mapreduce.Record) mapreduce.Split {
	return mapreduce.Split{
		ID:      prefix + strconv.Itoa(seq),
		Records: records[:len(records):len(records)],
	}
}

// CountConfig configures a count-based sliding window.
type CountConfig struct {
	// Job is the non-incremental computation.
	Job *mapreduce.Job
	// RecordsPerSplit is the split granularity.
	RecordsPerSplit int
	// WindowSplits is the window length in splits.
	WindowSplits int
	// SlideSplits is the slide width in splits; 0 means append-only
	// (the window grows without bound).
	SlideSplits int
	// Config carries extra runtime knobs (SplitProcessing, Memo etc.);
	// the window mode and bucket geometry are set from the fields above.
	Config sliderrt.Config
}

// CountWindow is the count-based driver: a bucket is SlideSplits splits
// (one split when append-only) and the window ends at a split index.
type CountWindow struct {
	cfg CountConfig
	d   driver
	// buf holds the records pushed since the last closed bucket: the open
	// bucket's splits are lent buf[:cut], the records from cut on are not
	// in a split yet.
	buf     []mapreduce.Record
	cut     int
	bucket  []mapreduce.Split // the open bucket
	splits  int               // total splits formed so far
	stopped bool
}

// NewCountWindow returns a driver delivering each run's output to sink.
func NewCountWindow(cfg CountConfig, sink Sink) (*CountWindow, error) {
	if cfg.RecordsPerSplit <= 0 {
		return nil, fmt.Errorf("stream: RecordsPerSplit must be positive")
	}
	if cfg.WindowSplits <= 0 {
		return nil, fmt.Errorf("stream: WindowSplits must be positive")
	}
	if cfg.SlideSplits < 0 || cfg.SlideSplits > cfg.WindowSplits {
		return nil, fmt.Errorf("stream: SlideSplits %d out of range", cfg.SlideSplits)
	}
	rc := cfg.Config
	d := driver{sink: sink, width: cfg.WindowSplits}
	if cfg.SlideSplits == 0 {
		rc.Mode = sliderrt.Append
	} else {
		rc.Mode = sliderrt.Fixed
		rc.BucketSplits = cfg.SlideSplits
		rc.WindowBuckets = cfg.WindowSplits / cfg.SlideSplits
		if cfg.WindowSplits%cfg.SlideSplits != 0 {
			return nil, fmt.Errorf("stream: WindowSplits must be a multiple of SlideSplits")
		}
		d.width, d.span, d.buckets = rc.WindowBuckets, int64(cfg.WindowSplits), true
	}
	var err error
	if d.rt, err = sliderrt.New(cfg.Job, rc); err != nil {
		return nil, err
	}
	return &CountWindow{cfg: cfg, d: d}, nil
}

// Push appends records to the stream; full splits and full slides fire
// runs synchronously. The records are read and never written, and the job's
// map values may share their memory for as long as the window holds them,
// so a caller must not modify a record once it is pushed.
func (w *CountWindow) Push(records ...mapreduce.Record) error {
	if w.stopped {
		return ErrStopped
	}
	w.buf = append(w.buf, records...)
	for len(w.buf)-w.cut >= w.cfg.RecordsPerSplit {
		next := w.cut + w.cfg.RecordsPerSplit
		w.bucket = append(w.bucket, newSplit("stream-", w.splits, w.buf[w.cut:next]))
		w.cut = next
		w.splits++
		if len(w.bucket) < max(1, w.cfg.SlideSplits) {
			continue
		}
		err := w.d.close(w.bucket, int64(w.splits))
		w.bucket = w.bucket[:0]
		w.buf, w.cut = w.d.reclaim(w.buf, w.cut), 0
		if err != nil {
			return err
		}
	}
	return nil
}

// Runtime exposes the underlying runtime (e.g. for checkpointing).
func (w *CountWindow) Runtime() *sliderrt.Runtime { return w.d.rt }

// Close stops the stream; buffered records short of a split are dropped.
func (w *CountWindow) Close() { w.stopped = true }

// TimedRecord is one timestamped record of a time window.
type TimedRecord struct {
	// At is the record's event time. Records must arrive in
	// non-decreasing time order; one older than the open period is
	// refused with ErrOutOfOrder.
	At time.Time
	// Record is the payload handed to the job's Map.
	Record mapreduce.Record
}

// TimeConfig configures a time-based sliding window.
type TimeConfig struct {
	// Job is the non-incremental computation.
	Job *mapreduce.Job
	// Window is the window length; Slide is the slide period.
	Window time.Duration
	Slide  time.Duration
	// RecordsPerSplit bounds split sizes within a slide period.
	RecordsPerSplit int
	// Config carries extra runtime knobs.
	Config sliderrt.Config
}

// TimeWindow is the time-based driver: a window of Window duration
// slides every Slide, with whatever data volume each period carried. A
// bucket is one period and the window ends at a timestamp. Underneath runs
// a Fixed window of Window/Slide buckets of varying width (BucketSplits 0),
// each slide one period in and the oldest out — unless Config.Backend names
// a structure of Variable mode (folding, randomized folding) or the
// strawman, which then keeps a Variable window over the periods' splits.
type TimeWindow struct {
	cfg    TimeConfig
	d      driver
	splits int

	// periodStart is the start of the open period, once the first record
	// has set the epoch. buf holds the open period's records; bucket is
	// the slice its splits are formed in.
	periodStart time.Time
	hasEpoch    bool
	buf         []mapreduce.Record
	bucket      []mapreduce.Split
}

// NewTimeWindow returns a time-based driver delivering to sink.
func NewTimeWindow(cfg TimeConfig, sink Sink) (*TimeWindow, error) {
	if cfg.Window <= 0 || cfg.Slide <= 0 || cfg.Window%cfg.Slide != 0 {
		return nil, fmt.Errorf("stream: Window must be a positive multiple of Slide")
	}
	if cfg.RecordsPerSplit <= 0 {
		return nil, fmt.Errorf("stream: RecordsPerSplit must be positive")
	}
	d := driver{sink: sink, width: int(cfg.Window / cfg.Slide), span: int64(cfg.Window)}
	rc := cfg.Config
	switch rc.Backend {
	case sliderrt.BackendFolding, sliderrt.BackendRandomizedFolding, sliderrt.BackendStrawman:
		rc.Mode = sliderrt.Variable
	default:
		rc.Mode, rc.WindowBuckets, rc.BucketSplits = sliderrt.Fixed, d.width, 0
		d.buckets = true
	}
	var err error
	if d.rt, err = sliderrt.New(cfg.Job, rc); err != nil {
		return nil, err
	}
	return &TimeWindow{cfg: cfg, d: d}, nil
}

// Push adds a timestamped record. Crossing a slide boundary closes the
// current period — and every empty one up to the record's — and may fire
// runs. A record older than the open period is refused with ErrOutOfOrder.
// As with CountWindow.Push, the record is read and never written, its map
// values may share its memory, and a caller must not modify it once it is
// pushed.
func (t *TimeWindow) Push(rec TimedRecord) error {
	if !t.hasEpoch {
		t.periodStart = rec.At.Truncate(t.cfg.Slide)
		t.hasEpoch = true
	}
	if rec.At.Before(t.periodStart) {
		return fmt.Errorf("%w: record at %v, period opened at %v", ErrOutOfOrder, rec.At, t.periodStart)
	}
	for rec.At.Sub(t.periodStart) >= t.cfg.Slide {
		if err := t.closePeriod(); err != nil {
			return err
		}
	}
	t.buf = append(t.buf, rec.Record)
	return nil
}

// Flush closes the in-progress period and fires any due runs (e.g. at
// end of stream). The stream moves past the period: a later record must
// belong to a later one. With no record in progress it does nothing.
func (t *TimeWindow) Flush() error {
	if len(t.buf) == 0 {
		return nil
	}
	return t.closePeriod()
}

// closePeriod turns the buffered records into the period's splits, moves
// on to the next period and hands the closed one to the driver.
func (t *TimeWindow) closePeriod() error {
	t.bucket = t.bucket[:0]
	for rest := t.buf; len(rest) > 0; t.splits++ {
		n := min(t.cfg.RecordsPerSplit, len(rest))
		t.bucket = append(t.bucket, newSplit("tstream-", t.splits, rest[:n]))
		rest = rest[n:]
	}
	t.periodStart = t.periodStart.Add(t.cfg.Slide)
	err := t.d.close(t.bucket, t.periodStart.UnixNano())
	t.buf = t.d.reclaim(t.buf, len(t.buf))
	return err
}

// Runtime exposes the underlying runtime.
func (t *TimeWindow) Runtime() *sliderrt.Runtime { return t.d.rt }
