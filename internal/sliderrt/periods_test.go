package sliderrt

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"slider/internal/mapreduce"
)

// periodWidth is the number of splits period i carries in the tests of
// windows of period buckets: bursts, single splits and empty periods.
func periodWidth(i int) int { return []int{2, 0, 3, 1, 0, 0, 4, 1}[i%8] }

// periodsConfig is a window of width period buckets (BucketSplits 0).
func periodsConfig(width int) Config {
	return Config{Mode: Fixed, WindowBuckets: width, Memo: testMemoConfig()}
}

// periodFeed drives a window of period buckets and keeps its model: the
// splits of every live period, oldest first.
type periodFeed struct {
	t       *testing.T
	rt      *Runtime
	periods [][]mapreduce.Split
	next    int // the next period
	id      int // the next split's id
}

// take forms period next's splits.
func (f *periodFeed) take() []mapreduce.Split {
	add := genSplits(f.id, periodWidth(f.next), 4, 7)
	f.next++
	f.id += len(add)
	return add
}

// start runs the first window of width periods.
func (f *periodFeed) start(width int) *RunResult {
	var sizes []int
	var splits []mapreduce.Split
	for range width {
		add := f.take()
		f.periods = append(f.periods, add)
		sizes, splits = append(sizes, len(add)), append(splits, add...)
	}
	res, err := f.rt.InitialBuckets(sizes, splits)
	if err != nil {
		f.t.Fatal(err)
	}
	return res
}

// slide adds the next period and drops the oldest.
func (f *periodFeed) slide() *RunResult {
	f.t.Helper()
	add := f.take()
	res, err := f.rt.Advance(len(f.periods[0]), add)
	if err != nil {
		f.t.Fatalf("period %d: %v", f.next-1, err)
	}
	f.periods = append(f.periods[1:], add)
	return res
}

// window is the live splits in window order.
func (f *periodFeed) window() []mapreduce.Split {
	var out []mapreduce.Split
	for _, p := range f.periods {
		out = append(out, p...)
	}
	return out
}

// TestPeriodsWindow: a Fixed window with BucketSplits 0 runs on the daba
// kind and holds one bucket per period whatever the period carried: every
// slide — an empty period in or out, both, a burst — matches recomputation
// from scratch, and its foreground is one merge a partition, the period's
// bucket into the back's running sum.
func TestPeriodsWindow(t *testing.T) {
	job := wordCountJob()
	rt, err := New(job, periodsConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if rt.Backend() != BackendDaba {
		t.Fatalf("backend = %v, want daba", rt.Backend())
	}
	f := &periodFeed{t: t, rt: rt}
	wantSameOutput(t, f.start(4).Output, scratch(t, job, f.window()))
	for range 20 {
		res := f.slide()
		wantSameOutput(t, res.Output, scratch(t, job, f.window()))
		if max := int64(job.Partitions); res.TreeStats.Merges > max {
			t.Fatalf("period %d: %d merges before the answer, want at most %d", f.next-1, res.TreeStats.Merges, max)
		}
		if got, want := rt.Live(), len(f.window()); got != want {
			t.Fatalf("period %d: %d live splits, want %d", f.next-1, got, want)
		}
	}
}

// TestPeriodsAdvanceShape: a window of period buckets starts with
// InitialBuckets, and a slide drops exactly the oldest bucket — a drop that
// is not its width is ErrBadAdvance and leaves the window as it was.
func TestPeriodsAdvanceShape(t *testing.T) {
	job := wordCountJob()
	rt, err := New(job, periodsConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	splits := genSplits(0, 3, 4, 7)
	for _, bad := range []struct {
		name  string
		run   func() (*RunResult, error)
		cause string
	}{
		{"Initial", func() (*RunResult, error) { return rt.Initial(splits) }, "no bucket widths"},
		{"two buckets", func() (*RunResult, error) { return rt.InitialBuckets([]int{2, 1}, splits) }, "too few buckets"},
		{"widths over the splits", func() (*RunResult, error) { return rt.InitialBuckets([]int{2, 0, 2}, splits) }, "widths that do not sum to the splits"},
		{"negative width", func() (*RunResult, error) { return rt.InitialBuckets([]int{4, -1, 0}, splits) }, "a negative width"},
		{"empty", func() (*RunResult, error) { return rt.InitialBuckets([]int{0, 0, 0}, nil) }, "no split"},
	} {
		if _, err := bad.run(); !errors.Is(err, ErrBadAdvance) {
			t.Fatalf("%s: a first window with %s: err = %v, want ErrBadAdvance", bad.name, bad.cause, err)
		}
	}
	if _, err := rt.InitialBuckets([]int{2, 0, 1}, splits); err != nil {
		t.Fatal(err)
	}
	next := genSplits(3, 2, 4, 7)
	for _, drop := range []int{0, 1, 3, -1} {
		if _, err := rt.Advance(drop, next); !errors.Is(err, ErrBadAdvance) {
			t.Fatalf("drop=%d with an oldest bucket of 2 splits: err = %v, want ErrBadAdvance", drop, err)
		}
	}
	if rt.Live() != 3 || rt.WindowLo() != 0 {
		t.Fatalf("a refused slide moved the window: live %d, lo %d", rt.Live(), rt.WindowLo())
	}
	// The oldest bucket (2 splits) leaves; then the empty one leaves as an
	// empty period enters: a slide of no splits at all.
	for _, s := range []struct {
		drop int
		add  []mapreduce.Split
	}{{2, next}, {0, nil}} {
		if _, err := rt.Advance(s.drop, s.add); err != nil {
			t.Fatal(err)
		}
	}
	window := append(splits[2:], next...)
	res, err := rt.Advance(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantSameOutput(t, res.Output, scratch(t, job, window[1:]))
}

// TestPeriodsRefuseLateness: a late record lands in a bucket of w splits,
// so AllowedLateness with BucketSplits 0 is refused, and so are the
// structures that keep no buckets of varying width.
func TestPeriodsRefuseLateness(t *testing.T) {
	cfg := periodsConfig(4)
	cfg.AllowedLateness = 1
	if _, err := New(wordCountJob(), cfg); !errors.Is(err, ErrBadBuckets) {
		t.Fatalf("AllowedLateness with BucketSplits 0: err = %v, want ErrBadBuckets", err)
	}
	for _, b := range []Backend{BackendFingerTree, BackendStrawman} {
		cfg := periodsConfig(4)
		cfg.Backend = b
		if _, err := New(wordCountJob(), cfg); !errors.Is(err, ErrBadBackend) {
			t.Fatalf("backend %v with BucketSplits 0: err = %v, want ErrBadBackend", b, err)
		}
	}
}

// TestPeriodsRestoreKeepsTheFlipPhase is TestDabaRestoreKeepsTheFlipPhase
// for period buckets, whose split cursor says nothing about how many
// buckets have left: the flip phase comes from the bucket clock the
// checkpoint carries. Taken after any number of slides over the first two
// cycles — before the first flip and after — the checkpoint restores the
// state its writer held, and over the next two cycles the restored runtime
// does the same work as its writer, run by run, and answers the same.
func TestPeriodsRestoreKeepsTheFlipPhase(t *testing.T) {
	const width = 4
	job := wordCountJob()
	for phase := 0; phase < 2*width; phase++ {
		writer, err := New(job, periodsConfig(width))
		if err != nil {
			t.Fatal(err)
		}
		f := &periodFeed{t: t, rt: writer}
		f.start(width)
		for range phase {
			f.slide()
		}
		var ckpt bytes.Buffer
		if err := writer.Checkpoint(&ckpt); err != nil {
			t.Fatal(err)
		}
		restored, err := Restore(job, periodsConfig(width), &ckpt)
		if err != nil {
			t.Fatal(err)
		}
		if restored.StateFingerprint() != writer.StateFingerprint() {
			t.Fatalf("phase %d: the restored state differs from the checkpointed one", phase)
		}
		r := &periodFeed{t: t, rt: restored, periods: slices.Clone(f.periods), next: f.next, id: f.id}
		for i := range 2 * width {
			w, got := f.slide(), r.slide()
			if i == 0 {
				// The writer's first result reports the upkeep its checkpoint
				// ran, which the restore has no part in.
				w.TreeStatsBackground = got.TreeStatsBackground
			}
			if w.TreeStats != got.TreeStats || w.TreeStatsBackground != got.TreeStatsBackground {
				t.Fatalf("phase %d, slide %d after the restore: the restored runtime did %+v (upkeep %+v), its writer %+v (upkeep %+v)",
					phase, i+1, got.TreeStats, got.TreeStatsBackground, w.TreeStats, w.TreeStatsBackground)
			}
			wantSameOutput(t, got.Output, w.Output)
		}
		if writer.StateFingerprint() != restored.StateFingerprint() {
			t.Fatalf("phase %d: the restored runtime ends in another state than its writer", phase)
		}
	}
}
