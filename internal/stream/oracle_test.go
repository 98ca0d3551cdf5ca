package stream

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"slider/internal/mapreduce"
	"slider/internal/sliderrt"
)

// The stream oracle: whatever the schedule of pushes, every window a driver
// delivers must equal the job recomputed from scratch over exactly the
// records its bounds name, one window must arrive per closed bucket, and the
// bounds must advance one bucket at a time; what a run reports as changed
// must cover every key whose value moved, name no key outside the records
// that left or entered, and be the same at any parallelism. One harness
// covers both front ends; a case supplies the feed and a model of which
// records a bound names. Every schedule runs a second time under the
// ownership oracle — the storage the window's structure releases is scribbled
// over instead of recycled — and must deliver the same windows while nothing
// the runtime holds or delivers is released storage.

// watch makes own, when set, the release hook of the stream's runtime and
// checks it ahead of sink on every window.
func watch(t *testing.T, own *sliderrt.Ownership, rt func() *sliderrt.Runtime, sink Sink) Sink {
	if own == nil {
		return sink
	}
	return func(o Output) error {
		if err := own.Check(rt(), o.Result); err != nil {
			t.Fatalf("window %d: %v", o.SlideID, err)
		}
		return sink(o)
	}
}

// oracleRun is what a case hands the checker.
type oracleRun struct {
	outputs []Output
	// ends are the window ends the schedule must deliver, in order; step is
	// the distance between two of them and span the window length (0 for an
	// append-only window, which starts at 0).
	ends       []int64
	step, span int64
	// records returns the records of [start, end).
	records func(start, end int64) []mapreduce.Record
}

// oracleFeed pushes a case's seeded schedule through a fresh stream at the
// given parallelism, under the ownership oracle when one is handed in.
type oracleFeed func(t *testing.T, par int, rng *rand.Rand, own *sliderrt.Ownership) oracleRun

func oracleRecord(i int) mapreduce.Record {
	return fmt.Sprintf("k%d k%d all", i%29, i%3)
}

// countFeed pushes n records through a count window in seeded groups — a
// mix of single records and bulk pushes that span several splits and slides.
func countFeed(rps, window, slide, n int) oracleFeed {
	return func(t *testing.T, par int, rng *rand.Rand, own *sliderrt.Ownership) oracleRun {
		var run oracleRun
		rc := smallMemo()
		rc.Parallelism = par
		var w *CountWindow
		w, err := NewCountWindow(CountConfig{
			Job: sumJob(), RecordsPerSplit: rps, WindowSplits: window, SlideSplits: slide, Config: rc,
		}, watch(t, own, func() *sliderrt.Runtime { return w.Runtime() }, keep(&run.outputs)))
		if err != nil {
			t.Fatal(err)
		}
		if own != nil {
			own.Watch(w.Runtime())
		}
		for i := 0; i < n; {
			group := 1
			if rng.Intn(3) == 0 {
				group = 1 + rng.Intn(4*rps*max(1, slide))
			}
			group = min(group, n-i)
			records := make([]mapreduce.Record, group)
			for j := range records {
				records[j] = oracleRecord(i + j)
			}
			if err := w.Push(records...); err != nil {
				t.Fatal(err)
			}
			i += group
		}
		bucket := max(1, slide)
		for closed := window / bucket; closed <= n/rps/bucket; closed++ {
			run.ends = append(run.ends, int64(closed*bucket))
		}
		run.step = int64(bucket)
		if slide > 0 {
			run.span = int64(window)
		}
		run.records = func(start, end int64) []mapreduce.Record {
			var out []mapreduce.Record
			for i := int(start) * rps; i < int(end)*rps; i++ {
				out = append(out, oracleRecord(i))
			}
			return out
		}
		return run
	}
}

// timeFeed pushes a seeded schedule of periods — bursts, single records and
// empty periods — through a time window of width periods and flushes the
// last one. leading empty periods are closed before the first record, so
// the first windows hold nothing and must be skipped, not delivered.
func timeFeed(width, rps, periods, leading int) oracleFeed {
	return func(t *testing.T, par int, rng *rand.Rand, own *sliderrt.Ownership) oracleRun {
		var run oracleRun
		rc := smallMemo()
		rc.Parallelism = par
		slide := time.Minute
		var w *TimeWindow
		w, err := NewTimeWindow(TimeConfig{
			Job: sumJob(), Window: time.Duration(width) * slide, Slide: slide, RecordsPerSplit: rps, Config: rc,
		}, watch(t, own, func() *sliderrt.Runtime { return w.Runtime() }, keep(&run.outputs)))
		if err != nil {
			t.Fatal(err)
		}
		if own != nil {
			own.Watch(w.Runtime())
		}
		epoch := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
		type stamped struct {
			at  time.Time
			rec mapreduce.Record
		}
		var pushed []stamped
		// counts[p] is the number of records of period p.
		counts := make([]int, leading+periods)
		for p := leading; p < len(counts); p++ {
			switch rng.Intn(4) {
			case 0: // empty
			case 1:
				counts[p] = 1
			default:
				counts[p] = 1 + rng.Intn(3*rps)
			}
		}
		counts[leading], counts[len(counts)-1] = 2, 1 // the first record sets the epoch, the last is flushed
		if leading > 0 {
			w.periodStart, w.hasEpoch = epoch, true
			for p := 0; p < leading; p++ {
				if err := w.closePeriod(); err != nil {
					t.Fatal(err)
				}
			}
		}
		for p, n := range counts {
			for i := 0; i < n; i++ {
				at := epoch.Add(time.Duration(p)*slide + time.Duration(i)*slide/time.Duration(n))
				rec := oracleRecord(len(pushed))
				pushed = append(pushed, stamped{at, rec})
				if err := w.Push(TimedRecord{At: at, Record: rec}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		// The first window delivered is the first full one that holds a
		// record; from there on every period closes one.
		started := false
		for last := width - 1; last < len(counts); last++ {
			for p := last - width + 1; p <= last && !started; p++ {
				started = counts[p] > 0
			}
			if started {
				run.ends = append(run.ends, epoch.Add(time.Duration(last+1)*slide).UnixNano())
			}
		}
		run.step, run.span = int64(slide), int64(width)*int64(slide)
		run.records = func(start, end int64) []mapreduce.Record {
			var out []mapreduce.Record
			for _, s := range pushed {
				if at := s.at.UnixNano(); start <= at && at < end {
					out = append(out, s.rec)
				}
			}
			return out
		}
		return run
	}
}

func TestStreamOracle(t *testing.T) {
	cases := []struct {
		name string
		feed oracleFeed
		// patches: the window is wide enough against its slide for some
		// slides to patch the retained output instead of refilling it.
		patches bool
	}{
		{"fixed", countFeed(2, 6, 2, 97), false},
		{"fixed-slide1", countFeed(3, 4, 1, 80), false},
		{"fixed-window1", countFeed(1, 1, 1, 9), false},
		{"fixed-wide", countFeed(1, 24, 1, 90), true},
		{"append", countFeed(2, 3, 0, 41), true},
		{"time", timeFeed(4, 3, 40, 0), true},
		{"time-window1", timeFeed(1, 2, 12, 0), false},
		{"time-wide", timeFeed(12, 2, 60, 0), true},
		{"time-leading-empty", timeFeed(3, 2, 20, 5), false},
	}
	job := sumJob()
	scratch := func(t *testing.T, records []mapreduce.Record) mapreduce.Output {
		t.Helper()
		want, err := mapreduce.RunScratch(job, []mapreduce.Split{{ID: "oracle", Records: records}}, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		return want
	}
	for _, c := range cases {
		for _, par := range []int{1, 4, 8} {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/par%d/seed%d", c.name, par, seed), func(t *testing.T) {
					run := c.feed(t, par, rand.New(rand.NewSource(seed)), nil)
					if len(run.ends) == 0 {
						t.Fatal("the schedule closes no window")
					}
					if len(run.outputs) != len(run.ends) {
						t.Fatalf("par %d: %d windows delivered, the schedule closes %d", par, len(run.outputs), len(run.ends))
					}
					patched := 0
					var prev Output
					var prevWant mapreduce.Output
					for i, o := range run.outputs {
						start := int64(0)
						if run.span > 0 {
							start = run.ends[i] - run.span
						}
						if o.WindowStart != start || o.WindowEnd != run.ends[i] || o.SlideID != uint64(i+1) {
							t.Fatalf("par %d, window %d: slide %d over [%d,%d), want slide %d over [%d,%d)",
								par, i, o.SlideID, o.WindowStart, o.WindowEnd, i+1, start, run.ends[i])
						}
						if i > 0 && o.WindowEnd-prev.WindowEnd != run.step {
							t.Fatalf("par %d: window %d ends %d after window %d, want %d", par, i, o.WindowEnd-prev.WindowEnd, i-1, run.step)
						}
						want := scratch(t, run.records(o.WindowStart, o.WindowEnd))
						if !reflect.DeepEqual(o.Result.Output, want) {
							t.Fatalf("par %d, window %d [%d,%d): got %v, from scratch %v", par, i, o.WindowStart, o.WindowEnd, o.Result.Output, want)
						}
						// What the run says it changed: everything (the first
						// window, a dense slide), or a list that holds every key
						// whose value moved and no key outside the records that
						// left or entered. A slide that moves no record reduces
						// nothing and changes nothing.
						res := o.Result
						switch {
						case i == 0 && !res.Rebuilt:
							t.Fatalf("par %d: the first window was not rebuilt", par)
						case res.Rebuilt && len(res.Changed) != 0:
							t.Fatalf("par %d, window %d: rebuilt and changed %v", par, i, res.Changed)
						case !res.Rebuilt:
							moved := append(run.records(prev.WindowStart, o.WindowStart), run.records(prev.WindowEnd, o.WindowEnd)...)
							may := scratch(t, moved)
							if len(moved) == 0 && res.Report.Counters.ReduceCalls != 0 {
								t.Fatalf("par %d, window %d: an empty slide made %d Reduce calls", par, i, res.Report.Counters.ReduceCalls)
							}
							listed := map[string]bool{}
							for _, k := range res.Changed {
								if _, ok := may[k]; !ok || listed[k] {
									t.Fatalf("par %d, window %d: changed key %q is listed twice or is no key of the records that moved (%v)", par, i, k, may)
								}
								listed[k] = true
							}
							for k := range may {
								if v, ok := want[k]; (!ok || v != prevWant[k]) && !listed[k] {
									t.Fatalf("par %d, window %d: key %q went from %v to %v and is not in changed %v", par, i, k, prevWant[k], want[k], res.Changed)
								}
							}
							if len(res.Changed) > 0 {
								patched++
							}
						}
						prev, prevWant = o, want
					}
					if c.patches && patched == 0 {
						t.Fatalf("par %d: every slide rebuilt the output, none patched it", par)
					}
					// The path a slide takes and what it reports depend on the
					// input alone: the sequential run of the same schedule
					// agrees, and so does the run whose released storage is
					// scribbled over, window for window.
					same := func(what string, other oracleRun, outputs bool) {
						t.Helper()
						if len(other.outputs) != len(run.outputs) {
							t.Fatalf("%s delivered %d windows, par %d delivered %d", what, len(other.outputs), par, len(run.outputs))
						}
						for i, o := range run.outputs {
							a, b := other.outputs[i].Result, o.Result
							if a.Rebuilt != b.Rebuilt || !slices.Equal(a.Changed, b.Changed) || a.Report.Counters.ReduceCalls != b.Report.Counters.ReduceCalls ||
								outputs && !reflect.DeepEqual(a.Output, b.Output) {
								t.Fatalf("window %d: %s rebuilt=%v changed=%v calls=%d, par %d rebuilt=%v changed=%v calls=%d (or another output)", i,
									what, a.Rebuilt, a.Changed, a.Report.Counters.ReduceCalls, par, b.Rebuilt, b.Changed, b.Report.Counters.ReduceCalls)
							}
						}
					}
					same("the ownership oracle's run", c.feed(t, par, rand.New(rand.NewSource(seed)), sliderrt.NewOwnership()), true)
					if par > 1 {
						same("par 1", c.feed(t, 1, rand.New(rand.NewSource(seed)), nil), false)
					}
				})
			}
		}
	}
}
