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
//     duration and slides by a fixed period. Data volume per period
//     varies, so Variable mode (folding trees) runs underneath.
package stream

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"slider/internal/mapreduce"
	"slider/internal/sliderrt"
)

// Output delivers one run's results.
type Output struct {
	// Result is the runtime's run result (output, work reports).
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

// CountWindow is the count-based driver.
type CountWindow struct {
	cfg     CountConfig
	rt      *sliderrt.Runtime
	sink    Sink
	buf     []mapreduce.Record
	pending []mapreduce.Split
	splits  int // total splits formed so far
	started bool
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
	if cfg.SlideSplits == 0 {
		rc.Mode = sliderrt.Append
	} else {
		rc.Mode = sliderrt.Fixed
		rc.BucketSplits = cfg.SlideSplits
		rc.WindowBuckets = cfg.WindowSplits / cfg.SlideSplits
		if cfg.WindowSplits%cfg.SlideSplits != 0 {
			return nil, fmt.Errorf("stream: WindowSplits must be a multiple of SlideSplits")
		}
	}
	rt, err := sliderrt.New(cfg.Job, rc)
	if err != nil {
		return nil, err
	}
	return &CountWindow{cfg: cfg, rt: rt, sink: sink}, nil
}

// Push appends records to the stream; full splits and full slides fire
// runs synchronously.
func (w *CountWindow) Push(records ...mapreduce.Record) error {
	if w.stopped {
		return ErrStopped
	}
	w.buf = append(w.buf, records...)
	for len(w.buf) >= w.cfg.RecordsPerSplit {
		split := mapreduce.Split{
			ID:      "stream-" + strconv.Itoa(w.splits),
			Records: append([]mapreduce.Record{}, w.buf[:w.cfg.RecordsPerSplit]...),
		}
		w.buf = w.buf[w.cfg.RecordsPerSplit:]
		w.splits++
		w.pending = append(w.pending, split)
		if err := w.maybeRun(); err != nil {
			return err
		}
	}
	return nil
}

// maybeRun fires the initial run or a slide when enough splits queued.
func (w *CountWindow) maybeRun() error {
	if !w.started {
		if len(w.pending) < w.cfg.WindowSplits {
			return nil
		}
		res, err := w.rt.Initial(w.pending)
		if err != nil {
			return err
		}
		w.pending = nil
		w.started = true
		return w.deliver(res)
	}
	slide := w.cfg.SlideSplits
	if slide == 0 {
		// Append-only: every split is a run.
		for len(w.pending) > 0 {
			res, err := w.rt.Advance(0, w.pending[:1])
			if err != nil {
				return err
			}
			w.pending = w.pending[1:]
			if err := w.deliver(res); err != nil {
				return err
			}
		}
		return nil
	}
	for len(w.pending) >= slide {
		res, err := w.rt.Advance(slide, w.pending[:slide])
		if err != nil {
			return err
		}
		w.pending = w.pending[slide:]
		if err := w.deliver(res); err != nil {
			return err
		}
	}
	return nil
}

func (w *CountWindow) deliver(res *sliderrt.RunResult) error {
	end := int64(w.splits - len(w.pending) - len(w.buf)/w.cfg.RecordsPerSplit)
	start := int64(w.rt.WindowLo())
	return w.sink(Output{Result: res, SlideID: res.SlideID, WindowStart: start, WindowEnd: end})
}

// Runtime exposes the underlying runtime (e.g. for checkpointing).
func (w *CountWindow) Runtime() *sliderrt.Runtime { return w.rt }

// Close stops the stream; buffered records short of a split are dropped.
func (w *CountWindow) Close() { w.stopped = true }

// TimedRecord is one timestamped record of a time window.
type TimedRecord struct {
	// At is the record's event time. Records must arrive in
	// non-decreasing time order.
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
// slides every Slide, with whatever data volume each period carried
// (Variable mode underneath).
type TimeWindow struct {
	cfg     TimeConfig
	rt      *sliderrt.Runtime
	sink    Sink
	splits  int
	started bool

	periodStart time.Time
	hasEpoch    bool
	buf         []mapreduce.Record
	// periods/periodTimes hold the split counts and start times of each
	// period currently in the window; pending/pendCnt/pendTimes hold
	// completed periods not yet run.
	periods     []int
	periodTimes []time.Time
	pending     []mapreduce.Split
	pendCnt     []int
	pendTimes   []time.Time
}

// NewTimeWindow returns a time-based driver delivering to sink.
func NewTimeWindow(cfg TimeConfig, sink Sink) (*TimeWindow, error) {
	if cfg.Window <= 0 || cfg.Slide <= 0 || cfg.Window%cfg.Slide != 0 {
		return nil, fmt.Errorf("stream: Window must be a positive multiple of Slide")
	}
	if cfg.RecordsPerSplit <= 0 {
		return nil, fmt.Errorf("stream: RecordsPerSplit must be positive")
	}
	rc := cfg.Config
	rc.Mode = sliderrt.Variable
	rt, err := sliderrt.New(cfg.Job, rc)
	if err != nil {
		return nil, err
	}
	return &TimeWindow{cfg: cfg, rt: rt, sink: sink}, nil
}

// Push adds a timestamped record. Crossing a slide boundary closes the
// current period and may fire a run.
func (t *TimeWindow) Push(rec TimedRecord) error {
	if !t.hasEpoch {
		t.periodStart = rec.At.Truncate(t.cfg.Slide)
		t.hasEpoch = true
	}
	for rec.At.Sub(t.periodStart) >= t.cfg.Slide {
		if err := t.closePeriod(); err != nil {
			return err
		}
		t.periodStart = t.periodStart.Add(t.cfg.Slide)
	}
	t.buf = append(t.buf, rec.Record)
	return nil
}

// Flush closes the in-progress period and fires any due runs (e.g. at
// end of stream).
func (t *TimeWindow) Flush() error {
	return t.closePeriod()
}

// closePeriod converts the buffered records into splits for one period
// and runs the window forward if enough periods accumulated.
func (t *TimeWindow) closePeriod() error {
	count := 0
	for len(t.buf) > 0 {
		n := t.cfg.RecordsPerSplit
		if n > len(t.buf) {
			n = len(t.buf)
		}
		t.pending = append(t.pending, mapreduce.Split{
			ID:      "tstream-" + strconv.Itoa(t.splits),
			Records: append([]mapreduce.Record{}, t.buf[:n]...),
		})
		t.buf = t.buf[n:]
		t.splits++
		count++
	}
	t.pendCnt = append(t.pendCnt, count)
	t.pendTimes = append(t.pendTimes, t.periodStart)
	return t.maybeRun()
}

func (t *TimeWindow) maybeRun() error {
	periodsPerWindow := int(t.cfg.Window / t.cfg.Slide)
	for {
		if !t.started {
			if len(t.pendCnt) < periodsPerWindow {
				return nil
			}
			var take int
			for _, c := range t.pendCnt[:periodsPerWindow] {
				take += c
			}
			if take == 0 {
				// A window of entirely empty periods: skip forward.
				t.pendCnt = t.pendCnt[1:]
				t.pendTimes = t.pendTimes[1:]
				continue
			}
			res, err := t.rt.Initial(t.pending[:take])
			if err != nil {
				return err
			}
			t.periods = append([]int{}, t.pendCnt[:periodsPerWindow]...)
			t.periodTimes = append([]time.Time{}, t.pendTimes[:periodsPerWindow]...)
			t.pending = t.pending[take:]
			t.pendCnt = t.pendCnt[periodsPerWindow:]
			t.pendTimes = t.pendTimes[periodsPerWindow:]
			if err := t.deliver(res); err != nil {
				return err
			}
			t.started = true
			continue
		}
		if len(t.pendCnt) == 0 {
			return nil
		}
		add := t.pendCnt[0]
		drop := t.periods[0]
		res, err := t.rt.Advance(drop, t.pending[:add])
		if err != nil {
			return err
		}
		t.pending = t.pending[add:]
		t.periods = append(t.periods[1:], add)
		t.periodTimes = append(t.periodTimes[1:], t.pendTimes[0])
		t.pendCnt = t.pendCnt[1:]
		t.pendTimes = t.pendTimes[1:]
		if err := t.deliver(res); err != nil {
			return err
		}
	}
}

func (t *TimeWindow) deliver(res *sliderrt.RunResult) error {
	end := t.periodTimes[len(t.periodTimes)-1].Add(t.cfg.Slide)
	return t.sink(Output{
		Result:      res,
		SlideID:     res.SlideID,
		WindowStart: end.Add(-t.cfg.Window).UnixNano(),
		WindowEnd:   end.UnixNano(),
	})
}

// Runtime exposes the underlying runtime.
func (t *TimeWindow) Runtime() *sliderrt.Runtime { return t.rt }
