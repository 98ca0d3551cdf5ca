package stream

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"slider/internal/mapreduce"
	"slider/internal/memo"
	"slider/internal/sliderrt"
)

func sumJob() *mapreduce.Job {
	sum := func(_ string, values []mapreduce.Value) mapreduce.Value {
		var total int64
		for _, v := range values {
			total += v.(int64)
		}
		return total
	}
	return &mapreduce.Job{
		Name:       "wordcount",
		Partitions: 2,
		Map: func(rec mapreduce.Record, emit mapreduce.Emit) error {
			for _, w := range strings.Fields(rec.(string)) {
				emit(w, int64(1))
			}
			return nil
		},
		Combine:     sum,
		Reduce:      sum,
		Commutative: true,
	}
}

// keep is the sink of a test that reads a window's result after later
// slides: Result.Output and Result.Changed are the runtime's until its next
// run, so a sink that holds on to them clones.
func keep(outputs *[]Output) Sink {
	return func(o Output) error {
		res := *o.Result
		res.Output, res.Changed = maps.Clone(res.Output), slices.Clone(res.Changed)
		o.Result = &res
		*outputs = append(*outputs, o)
		return nil
	}
}

func smallMemo() sliderrt.Config {
	cfg := memo.DefaultConfig()
	cfg.Nodes = 4
	return sliderrt.Config{Memo: cfg}
}

func TestCountWindowFixed(t *testing.T) {
	var outputs []Output
	w, err := NewCountWindow(CountConfig{
		Job:             sumJob(),
		RecordsPerSplit: 2,
		WindowSplits:    4,
		SlideSplits:     2,
		Config:          smallMemo(),
	}, keep(&outputs))
	if err != nil {
		t.Fatal(err)
	}
	// 8 records = 4 splits = the initial window.
	for i := 0; i < 8; i++ {
		if err := w.Push(fmt.Sprintf("w%d common", i)); err != nil {
			t.Fatal(err)
		}
	}
	if len(outputs) != 1 {
		t.Fatalf("outputs after initial window = %d, want 1", len(outputs))
	}
	if got := outputs[0].Result.Output["common"].(int64); got != 8 {
		t.Fatalf("common = %d, want 8", got)
	}
	// 4 more records = 2 splits = one slide.
	for i := 8; i < 12; i++ {
		if err := w.Push(fmt.Sprintf("w%d common", i)); err != nil {
			t.Fatal(err)
		}
	}
	if len(outputs) != 2 {
		t.Fatalf("outputs after slide = %d, want 2", len(outputs))
	}
	// Window still holds 8 records: w0..w3 slid out.
	out := outputs[1].Result.Output
	if out["common"].(int64) != 8 {
		t.Fatalf("common = %d after slide", out["common"])
	}
	if _, ok := out["w0"]; ok {
		t.Fatal("w0 should have slid out")
	}
	if _, ok := out["w11"]; !ok {
		t.Fatal("w11 should be in the window")
	}
}

// TestCountWindowSplitProcessing: split processing is asked for where every
// other runtime knob is, in CountConfig.Config. (A separate
// CountConfig.SplitProcessing used to overwrite it, so this configuration
// silently ran without.) Fixed and append-only windows both hand their
// background work to the sink, one window late: a window's upkeep runs after
// its sink returns and is reported with the next window.
func TestCountWindowSplitProcessing(t *testing.T) {
	for _, slide := range []int{2, 0} {
		rc := smallMemo()
		rc.SplitProcessing = true
		var outputs []Output
		w, err := NewCountWindow(CountConfig{
			Job:             sumJob(),
			RecordsPerSplit: 2,
			WindowSplits:    4,
			SlideSplits:     slide,
			Config:          rc,
		}, keep(&outputs))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 16; i++ {
			if err := w.Push(fmt.Sprintf("w%d common", i)); err != nil {
				t.Fatal(err)
			}
		}
		if len(outputs) < 3 {
			t.Fatalf("slide %d: %d outputs, want the initial window and at least two slides", slide, len(outputs))
		}
		// The coalescing tree has nothing to fold after the initial window,
		// so the first slide, which reports that upkeep, is not held to it.
		for i, o := range outputs[2:] {
			if len(o.Result.Background.Tasks) == 0 {
				t.Fatalf("slide %d: output %d reports no background work", slide, i+2)
			}
		}
	}
}

func TestCountWindowAppend(t *testing.T) {
	var outputs []Output
	w, err := NewCountWindow(CountConfig{
		Job:             sumJob(),
		RecordsPerSplit: 1,
		WindowSplits:    2,
		SlideSplits:     0, // append-only
		Config:          smallMemo(),
	}, keep(&outputs))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := w.Push("x"); err != nil {
			t.Fatal(err)
		}
	}
	// Initial at 2 splits, then one run per appended split: 1 + 3.
	if len(outputs) != 4 {
		t.Fatalf("outputs = %d, want 4", len(outputs))
	}
	final := outputs[len(outputs)-1].Result.Output
	if final["x"].(int64) != 5 {
		t.Fatalf("x = %d, want 5 (append-only grows)", final["x"])
	}
}

func TestCountWindowValidation(t *testing.T) {
	sink := func(Output) error { return nil }
	if _, err := NewCountWindow(CountConfig{Job: sumJob(), RecordsPerSplit: 0, WindowSplits: 2}, sink); err == nil {
		t.Fatal("zero split size accepted")
	}
	if _, err := NewCountWindow(CountConfig{Job: sumJob(), RecordsPerSplit: 1, WindowSplits: 3, SlideSplits: 2}, sink); err == nil {
		t.Fatal("non-divisible slide accepted")
	}
	if _, err := NewCountWindow(CountConfig{Job: sumJob(), RecordsPerSplit: 1, WindowSplits: 2, SlideSplits: 3}, sink); err == nil {
		t.Fatal("slide > window accepted")
	}
}

func TestCountWindowStop(t *testing.T) {
	w, err := NewCountWindow(CountConfig{
		Job: sumJob(), RecordsPerSplit: 1, WindowSplits: 1, SlideSplits: 1,
		Config: smallMemo(),
	}, func(Output) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if err := w.Push("x"); err != ErrStopped {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
}

func TestTimeWindowSlides(t *testing.T) {
	var outputs []Output
	w, err := NewTimeWindow(TimeConfig{
		Job:             sumJob(),
		Window:          3 * time.Minute,
		Slide:           time.Minute,
		RecordsPerSplit: 2,
		Config:          smallMemo(),
	}, keep(&outputs))
	if err != nil {
		t.Fatal(err)
	}
	epoch := time.Date(2026, 7, 1, 12, 0, 0, 0, time.UTC)
	// Minute 0: 3 records; minute 1: 1 record; minute 2: 4 records;
	// minute 3: 2 records; minute 4: 2 records.
	perMinute := []int{3, 1, 4, 2, 2}
	for minute, n := range perMinute {
		for i := 0; i < n; i++ {
			rec := TimedRecord{
				At:     epoch.Add(time.Duration(minute)*time.Minute + time.Duration(i)*time.Second),
				Record: fmt.Sprintf("m%d common", minute),
			}
			if err := w.Push(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// Windows: [0,3) fires when minute 3 opens; [1,4) when minute 4
	// opens; [2,5) on Flush.
	if len(outputs) != 3 {
		t.Fatalf("outputs = %d, want 3", len(outputs))
	}
	first := outputs[0].Result.Output
	if first["common"].(int64) != 8 {
		t.Fatalf("window[0,3) common = %d, want 8", first["common"])
	}
	second := outputs[1].Result.Output
	if second["common"].(int64) != 7 {
		t.Fatalf("window[1,4) common = %d, want 7", second["common"])
	}
	if _, ok := second["m0"]; ok {
		t.Fatal("minute 0 should have slid out")
	}
	third := outputs[2].Result.Output
	if third["common"].(int64) != 8 {
		t.Fatalf("window[2,5) common = %d, want 8", third["common"])
	}
}

func TestTimeWindowEmptyPeriods(t *testing.T) {
	var outputs []Output
	w, err := NewTimeWindow(TimeConfig{
		Job:             sumJob(),
		Window:          2 * time.Minute,
		Slide:           time.Minute,
		RecordsPerSplit: 2,
		Config:          smallMemo(),
	}, keep(&outputs))
	if err != nil {
		t.Fatal(err)
	}
	epoch := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	// Records in minute 0, then a gap (minutes 1–2 empty), then minute 3.
	if err := w.Push(TimedRecord{At: epoch, Record: "a a"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Push(TimedRecord{At: epoch.Add(3 * time.Minute), Record: "b"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(outputs) == 0 {
		t.Fatal("no outputs across the gap")
	}
	last := outputs[len(outputs)-1].Result.Output
	if _, ok := last["a"]; ok {
		t.Fatal("minute-0 records survived past the window")
	}
	if last["b"].(int64) != 1 {
		t.Fatalf("b = %v", last["b"])
	}
}

func TestTimeWindowValidation(t *testing.T) {
	sink := func(Output) error { return nil }
	if _, err := NewTimeWindow(TimeConfig{Job: sumJob(), Window: time.Minute, Slide: 0, RecordsPerSplit: 1}, sink); err == nil {
		t.Fatal("zero slide accepted")
	}
	if _, err := NewTimeWindow(TimeConfig{Job: sumJob(), Window: 90 * time.Second, Slide: time.Minute, RecordsPerSplit: 1}, sink); err == nil {
		t.Fatal("non-multiple window accepted")
	}
}

func TestCountWindowCheckpointResume(t *testing.T) {
	// The stream driver exposes its runtime for checkpointing; a resumed
	// runtime continues the same window.
	var outputs []Output
	cfg := CountConfig{
		Job:             sumJob(),
		RecordsPerSplit: 1,
		WindowSplits:    4,
		SlideSplits:     2,
		Config:          smallMemo(),
	}
	w, err := NewCountWindow(cfg, keep(&outputs))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := w.Push("x"); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := w.Runtime().Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	rc := cfg.Config
	rc.Mode = sliderrt.Fixed
	rc.BucketSplits = cfg.SlideSplits
	rc.WindowBuckets = cfg.WindowSplits / cfg.SlideSplits
	restored, err := sliderrt.Restore(sumJob(), rc, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := restored.Advance(2, []mapreduce.Split{
		{ID: "r0", Records: []mapreduce.Record{"x"}},
		{ID: "r1", Records: []mapreduce.Record{"x"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output["x"].(int64) != 4 {
		t.Fatalf("x = %v after resume, want 4", res.Output["x"])
	}
}

// TestSinkCheckpointsBeforeTheUpkeep: a sink may checkpoint and fingerprint
// the window it was handed, before the driver runs the window's upkeep —
// both run it first, and the driver's call then finds nothing to do — and
// the checkpoint restores to a runtime that continues exactly as the stream
// does: the same outputs, the same foreground work, the same state. For the
// three structures that leave upkeep: DABA Lite's fixups, split rotating's
// install and pre-combine, split coalescing's fold.
func TestSinkCheckpointsBeforeTheUpkeep(t *testing.T) {
	record := func(i int) mapreduce.Record { return fmt.Sprintf("w%d w%d common", i%13, i%5) }
	for _, c := range []struct {
		name  string
		slide int
		split bool
	}{{"daba", 1, false}, {"rotating-split", 1, true}, {"coalescing-split", 0, true}} {
		t.Run(c.name, func(t *testing.T) {
			rc := smallMemo()
			rc.SplitProcessing = c.split
			const window, at = 8, 5 // at: the window whose sink checkpoints
			var w *CountWindow
			var ckpt bytes.Buffer
			var inSink uint64
			var outs []Output
			kept := keep(&outs)
			w, err := NewCountWindow(CountConfig{Job: sumJob(), RecordsPerSplit: 1, WindowSplits: window, SlideSplits: c.slide, Config: rc},
				func(o Output) error {
					if o.SlideID == at {
						if err := w.Runtime().Checkpoint(&ckpt); err != nil {
							return err
						}
						inSink = w.Runtime().StateFingerprint()
					}
					return kept(o)
				})
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for len(outs) < at {
				if err := w.Push(record(n)); err != nil {
					t.Fatal(err)
				}
				n++
			}
			rc.Mode, rc.BucketSplits, rc.WindowBuckets = sliderrt.Append, 0, 0
			drop := 0
			if c.slide > 0 {
				rc.Mode, rc.BucketSplits, rc.WindowBuckets = sliderrt.Fixed, c.slide, window/c.slide
				drop = 1
			}
			restored, err := sliderrt.Restore(sumJob(), rc, &ckpt)
			if err != nil {
				t.Fatal(err)
			}
			if fp := restored.StateFingerprint(); fp != inSink || fp != w.Runtime().StateFingerprint() {
				t.Fatalf("restored state %#x, fingerprinted in the sink %#x, the stream's %#x", fp, inSink, w.Runtime().StateFingerprint())
			}
			for ; n < 4*window; n++ {
				if err := w.Push(record(n)); err != nil {
					t.Fatal(err)
				}
				got := outs[len(outs)-1].Result
				res, err := restored.Advance(drop, []mapreduce.Split{{ID: "stream-" + fmt.Sprint(n), Records: []mapreduce.Record{record(n)}}})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(res.Output, got.Output) || res.TreeStats != got.TreeStats {
					t.Fatalf("record %d: the restored runtime answers %v with %+v, the stream %v with %+v", n, res.Output, res.TreeStats, got.Output, got.TreeStats)
				}
				if a, b := restored.StateFingerprint(), w.Runtime().StateFingerprint(); a != b {
					t.Fatalf("record %d: restored state %#x, the stream's %#x", n, a, b)
				}
			}
		})
	}
}

// windowKey is what a sink sees of one delivered window.
type windowKey struct {
	SlideID    uint64
	Start, End int64
	Output     string
}

func keyOf(o Output) windowKey {
	return windowKey{o.SlideID, o.WindowStart, o.WindowEnd, fmt.Sprint(o.Result.Output)}
}

// TestCountWindowBulkPush: how records are grouped into Push calls is not
// part of the stream. (WindowEnd used to be derived from counters a bulk
// Push had not brought up to date: −2, 0, 2, 4… for this configuration.)
func TestCountWindowBulkPush(t *testing.T) {
	records := make([]mapreduce.Record, 20)
	for i := range records {
		records[i] = fmt.Sprintf("w%d common", i)
	}
	run := func(push func(*CountWindow) error) []windowKey {
		var got []windowKey
		w, err := NewCountWindow(CountConfig{
			Job: sumJob(), RecordsPerSplit: 2, WindowSplits: 4, SlideSplits: 1, Config: smallMemo(),
		}, func(o Output) error { got = append(got, keyOf(o)); return nil })
		if err != nil {
			t.Fatal(err)
		}
		if err := push(w); err != nil {
			t.Fatal(err)
		}
		return got
	}
	bulk := run(func(w *CountWindow) error { return w.Push(records...) })
	single := run(func(w *CountWindow) error {
		for _, r := range records {
			if err := w.Push(r); err != nil {
				return err
			}
		}
		return nil
	})
	if len(single) != 7 {
		t.Fatalf("%d windows from 10 splits, want 7", len(single))
	}
	for i, k := range single {
		if want := int64(4 + i); k.Start != want-4 || k.End != want {
			t.Errorf("window %d covers [%d,%d), want [%d,%d)", i, k.Start, k.End, want-4, want)
		}
	}
	if !reflect.DeepEqual(bulk, single) {
		t.Errorf("one Push of 20 records delivered\n%v\n20 Pushes of one delivered\n%v", bulk, single)
	}
}

// TestTimeWindowFlush: Flush closes the open period once. (It used to leave
// the period open, so every further Flush — or the next boundary — closed
// it again under the same bounds and slid real data out.)
func TestTimeWindowFlush(t *testing.T) {
	var got []windowKey
	w, err := NewTimeWindow(TimeConfig{
		Job: sumJob(), Window: 2 * time.Minute, Slide: time.Minute, RecordsPerSplit: 2, Config: smallMemo(),
	}, func(o Output) error { got = append(got, keyOf(o)); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil || len(got) != 0 {
		t.Fatalf("Flush before any record: err=%v, %d windows", err, len(got))
	}
	epoch := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	for i, at := range []time.Duration{0, time.Minute} {
		if err := w.Push(TimedRecord{At: epoch.Add(at), Record: fmt.Sprintf("m%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	want := []windowKey{{1, epoch.UnixNano(), epoch.Add(2 * time.Minute).UnixNano(), "map[m0:1 m1:1]"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("two records and three Flushes delivered %v, want %v", got, want)
	}
	// The flushed period is over: the stream goes on from the next one.
	if err := w.Push(TimedRecord{At: epoch.Add(90 * time.Second), Record: "late"}); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("record in the flushed period: err = %v, want ErrOutOfOrder", err)
	}
	if err := w.Push(TimedRecord{At: epoch.Add(2 * time.Minute), Record: "m2"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	want = append(want, windowKey{2, epoch.Add(time.Minute).UnixNano(), epoch.Add(3 * time.Minute).UnixNano(), "map[m1:1 m2:1]"})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("after the next period: %v, want %v", got, want)
	}
}

// TestTimeWindowOutOfOrder: a record from before the open period is refused
// — it used to be counted into the open period — and costs the stream
// nothing.
func TestTimeWindowOutOfOrder(t *testing.T) {
	var got []windowKey
	w, err := NewTimeWindow(TimeConfig{
		Job: sumJob(), Window: 2 * time.Minute, Slide: time.Minute, RecordsPerSplit: 2, Config: smallMemo(),
	}, func(o Output) error { got = append(got, keyOf(o)); return nil })
	if err != nil {
		t.Fatal(err)
	}
	epoch := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	push := func(at time.Duration, rec string) error {
		return w.Push(TimedRecord{At: epoch.Add(at), Record: rec})
	}
	for _, at := range []time.Duration{0, time.Minute, 90 * time.Second} {
		if err := push(at, "a"); err != nil {
			t.Fatal(err)
		}
	}
	if err := push(59*time.Second, "stale"); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("record before the open period: err = %v, want ErrOutOfOrder", err)
	}
	// Behind the newest record but inside the open period is in order.
	if err := push(70*time.Second, "a"); err != nil {
		t.Fatal(err)
	}
	if err := push(2*time.Minute, "b"); err != nil {
		t.Fatal(err)
	}
	want := []windowKey{{1, epoch.UnixNano(), epoch.Add(2 * time.Minute).UnixNano(), "map[a:4]"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("delivered %v, want %v", got, want)
	}
}
