package sliderrt

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"slider/internal/core"
	"slider/internal/mapreduce"
)

// The retained output: a run patches the map the previous run returned with
// the keys of the elements that left and entered, or refills it. These tests
// hold, for every structure in every configuration resolveBackend lets it
// serve, that either way the map is the window's output, that the run says
// truthfully which it did and to which keys, and that no failure leaves a
// stale map behind.

// deltaCase is one (mode, backend, split processing, lateness) cell that New
// accepts.
type deltaCase struct {
	name string
	cfg  Config
}

const deltaBuckets = 16 // the window: 16 buckets of one split, or 16 splits

// deltaCases enumerates every core.Kinds() entry in every mode, with and
// without split processing and lateness, and keeps what resolves.
func deltaCases(t *testing.T) []deltaCase {
	t.Helper()
	var cases []deltaCase
	for _, mode := range []Mode{Append, Fixed, Variable} {
		for _, kind := range core.Kinds() {
			for _, split := range []bool{false, true} {
				for _, late := range []int{0, 2} {
					cfg := Config{Mode: mode, Backend: kind, SplitProcessing: split, AllowedLateness: late,
						BucketSplits: 1, WindowBuckets: deltaBuckets, Memo: testMemoConfig()}
					if _, err := New(wordCountJob(), cfg); errors.Is(err, ErrBadBackend) || errors.Is(err, ErrBadMode) {
						continue
					} else if err != nil {
						t.Fatal(err)
					}
					name := fmt.Sprintf("%v/%v", mode, kind)
					if split {
						name += "/split"
					}
					if late > 0 {
						name += "/late"
					}
					cases = append(cases, deltaCase{name, cfg})
				}
			}
		}
	}
	return cases
}

// sparseSplits produces n splits of ten words over a vocabulary wide enough
// that a split holds a small share of a window's keys: a one-split slide of
// a 16-split window patches, a twelve-split one refills.
func sparseSplits(id0, n int) []mapreduce.Split {
	splits := make([]mapreduce.Split, n)
	for i := range splits {
		rng := rand.New(rand.NewSource(int64(id0 + i)))
		var sb strings.Builder
		for k := 0; k < 10; k++ {
			sb.WriteString("w" + strconv.Itoa(rng.Intn(4000)) + " ")
		}
		splits[i] = mapreduce.Split{ID: "d" + strconv.Itoa(id0+i), Records: []mapreduce.Record{sb.String()}}
	}
	return splits
}

// deltaStep is one run of a schedule. A late step lands add splits as one
// bucket `drop` buckets behind the newest.
type deltaStep struct {
	drop, add int
	late      bool
	// want: the run must patch (sparse), must refill (dense), or either.
	sparse, dense bool
}

// deltaSchedule is the schedule of a case's window shape: sparse slides, one
// that replaces three quarters of the window, sparse ones again; an empty
// period and drifting widths where the mode has them, a late bucket where
// the window takes one.
func deltaSchedule(cfg Config) []deltaStep {
	one := deltaStep{drop: 1, add: 1, sparse: true}
	switch {
	case cfg.Mode == Append:
		grow := deltaStep{add: 1, sparse: true}
		return []deltaStep{grow, grow, {add: 3, sparse: true}, {add: 60, dense: true}, grow, grow}
	case cfg.Mode == Variable:
		return []deltaStep{one, {add: 1, sparse: true}, {drop: 2, add: 1, sparse: true}, {sparse: true},
			{drop: 12, add: 12, dense: true}, one, {drop: 3}, {add: 2, sparse: true}}
	case cfg.AllowedLateness > 0:
		return []deltaStep{one, {drop: 1, add: 1, late: true, sparse: true}, one, {drop: 2, add: 1, sparse: true},
			{drop: 12, add: 12, dense: true}, one, {add: 2, sparse: true}}
	}
	return []deltaStep{one, one, {drop: 2, add: 2, sparse: true}, {drop: 12, add: 12, dense: true}, one, one}
}

// deltaModel is the from-scratch model of a deltaCase's window. Buckets are
// one split wide, so the bucket ledger of the out-of-order window is the
// split list itself.
type deltaModel struct {
	t      *testing.T
	job    *mapreduce.Job
	rt     *Runtime
	window []mapreduce.Split
	next   int
	prev   mapreduce.Output // from scratch, over the previous window
	// own, when set, is handed what the aggregators release, scribbles over
	// it, and is asked after every run whether anything still reaches it.
	own *Ownership
}

func newDeltaModel(t *testing.T, job *mapreduce.Job, cfg Config) (*deltaModel, *RunResult) {
	t.Helper()
	return newWatchedDeltaModel(t, job, cfg, nil)
}

func newWatchedDeltaModel(t *testing.T, job *mapreduce.Job, cfg Config, own *Ownership) (*deltaModel, *RunResult) {
	t.Helper()
	rt, err := New(job, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if own != nil {
		own.Watch(rt)
	}
	m := &deltaModel{t: t, job: job, rt: rt, window: sparseSplits(0, deltaBuckets), next: deltaBuckets, own: own}
	res, err := rt.Initial(m.window)
	if err != nil {
		t.Fatal(err)
	}
	m.check(res, nil)
	if !res.Rebuilt {
		t.Fatal("the initial run did not rebuild the output")
	}
	return m, res
}

func (m *deltaModel) take(n int) []mapreduce.Split {
	s := sparseSplits(m.next, n)
	m.next += n
	return s
}

// run performs one step and checks its result against the model.
func (m *deltaModel) run(s deltaStep) *RunResult {
	m.t.Helper()
	add := m.take(s.add)
	var res *RunResult
	var err error
	moved := add
	if s.late {
		res, err = m.rt.AdvanceLate(s.drop, add)
		pos := len(m.window) - s.drop
		m.window = slices.Concat(m.window[:pos], add, m.window[pos:])
	} else {
		res, err = m.rt.Advance(s.drop, add)
		moved = slices.Concat(m.window[:s.drop], add)
		m.window = slices.Concat(m.window[s.drop:], add)
	}
	if err != nil {
		m.t.Fatalf("step %+v: %v", s, err)
	}
	m.check(res, moved)
	return res
}

// fullPass reduces every key of the roots the aggregators now hold into a
// fresh map: what the run would have returned had it not patched.
func (m *deltaModel) fullPass() mapreduce.Output {
	out := make(mapreduce.Output)
	for _, agg := range m.rt.aggs {
		mapreduce.ReduceInto(m.job, agg.Roots(), out)
	}
	return out
}

// check holds a run's output to the from-scratch output of the model window
// and to a full pass over the same roots — exactly —, and what it reports as
// changed to the difference from the previous window's: every key whose
// value moved is listed, and only keys of the splits that moved, each once.
func (m *deltaModel) check(res *RunResult, moved []mapreduce.Split) {
	m.t.Helper()
	if m.own != nil {
		if err := m.own.Check(m.rt, res); err != nil {
			m.t.Fatal(err)
		}
	}
	want := scratch(m.t, m.job, m.window)
	if !reflect.DeepEqual(res.Output, want) {
		m.t.Fatalf("output differs from recomputation from scratch (rebuilt=%v):\n got %v\nwant %v", res.Rebuilt, res.Output, want)
	}
	if full := m.fullPass(); !reflect.DeepEqual(res.Output, full) {
		m.t.Fatalf("output differs from a full pass over the same roots (rebuilt=%v):\n got %v\nwant %v", res.Rebuilt, res.Output, full)
	}
	// No key string of the map is cut from a payload that has left the
	// window: a rewritten entry takes the roots' string, an untouched one was
	// written from a root whose holder of the key is still live.
	live := map[*byte]bool{}
	m.rt.ForEachPayload(func(p Payload) {
		for _, e := range p {
			live[unsafe.StringData(e.Key)] = true
		}
	})
	for k := range res.Output {
		if !live[unsafe.StringData(k)] {
			m.t.Fatalf("the output's key %q is a string no payload of the window holds (rebuilt=%v)", k, res.Rebuilt)
		}
	}
	if res.Rebuilt {
		if len(res.Changed) != 0 {
			m.t.Fatalf("rebuilt and changed %v", res.Changed)
		}
	} else {
		may := scratch(m.t, m.job, moved)
		listed := map[string]bool{}
		for _, k := range res.Changed {
			if _, ok := may[k]; !ok || listed[k] {
				m.t.Fatalf("changed key %q is listed twice or is no key of the splits that moved", k)
			}
			listed[k] = true
		}
		for k := range may {
			if v, ok := want[k]; (!ok || v != m.prev[k]) && !listed[k] {
				m.t.Fatalf("key %q went from %v to %v and is not in changed %v", k, m.prev[k], want[k], res.Changed)
			}
		}
	}
	m.prev = want
}

// splitKeys counts the distinct keys of each split and adds them up.
func splitKeys(t *testing.T, job *mapreduce.Job, splits []mapreduce.Split) (n int) {
	for _, s := range splits {
		n += len(scratch(t, job, []mapreduce.Split{s}))
	}
	return n
}

// mapID identifies a map value, to tell a refilled map from a replaced one.
func mapID(m mapreduce.Output) unsafe.Pointer { return reflect.ValueOf(m).UnsafePointer() }

// TestDeltaReduceMatrix drives every case through its schedule at parallelism
// 1, 4 and 8. The delta path is taken by every backend — a sparse slide
// reports Rebuilt == false and ReduceCalls ≤ len(Changed) ≤ the keys of the
// splits that moved —, a slide that replaces most of the window refills, an
// empty period makes no Reduce call and changes nothing, every run keeps the
// one map the initial run made, and the path, the keys and the calls are the
// same at every parallelism — and the same again with the storage the
// structures release scribbled over instead of recycled (the ownership
// oracle), where in addition nothing the runtime holds or has delivered may
// be released storage.
func TestDeltaReduceMatrix(t *testing.T) {
	type outcome struct {
		rebuilt bool
		changed []string
		calls   int64
	}
	for _, c := range deltaCases(t) {
		t.Run(c.name, func(t *testing.T) {
			var first []outcome
			for _, run := range []struct {
				par     int
				watched bool
			}{{1, false}, {4, false}, {8, false}, {1, true}, {4, true}, {8, true}} {
				par := run.par
				cfg := c.cfg
				cfg.Parallelism = par
				job := wordCountJob()
				var own *Ownership
				if run.watched {
					own = NewOwnership()
				}
				m, res := newWatchedDeltaModel(t, job, cfg, own)
				id := mapID(res.Output)
				var got []outcome
				for i, s := range deltaSchedule(cfg) {
					before := m.window
					res := m.run(s)
					calls := res.Report.Counters.ReduceCalls
					got = append(got, outcome{res.Rebuilt, slices.Clone(res.Changed), calls})
					if mapID(res.Output) != id {
						t.Fatalf("par %d, step %d %+v: the run returned another map than the initial run's", par, i, s)
					}
					switch {
					case s.sparse && res.Rebuilt:
						t.Fatalf("par %d, step %d %+v: a sparse slide rebuilt the output", par, i, s)
					case s.dense && !res.Rebuilt:
						t.Fatalf("par %d, step %d %+v: a slide replacing most of the window patched %d keys", par, i, s, len(res.Changed))
					case s.sparse:
						moved := splitKeys(t, job, m.window[len(m.window)-s.add:])
						if !s.late {
							moved += splitKeys(t, job, before[:s.drop])
						}
						if calls > int64(len(res.Changed)) || len(res.Changed) > moved {
							t.Fatalf("par %d, step %d %+v: %d Reduce calls, %d changed keys, %d keys moved", par, i, s, calls, len(res.Changed), moved)
						}
						if s.drop+s.add > 0 && len(res.Changed) == 0 {
							t.Fatalf("par %d, step %d %+v: nothing changed", par, i, s)
						}
					}
					if res.Rebuilt && calls != int64(len(res.Output)) {
						t.Fatalf("par %d, step %d %+v: a full pass over %d keys made %d Reduce calls", par, i, s, len(res.Output), calls)
					}
				}
				if first == nil {
					first = got
				} else if !reflect.DeepEqual(got, first) {
					t.Fatalf("par %d took other paths than par 1:\n got %+v\nwant %+v", par, got, first)
				}
			}
		})
	}
}

// TestOutputValidUntilNextRun states the output's lifetime: the map a run
// returns is the runtime's and is valid until its next run. A consumer that
// cloned each of a hundred windows' outputs holds, at the end, every window
// as recomputation from scratch gives it; one that kept the map itself holds
// a hundred times the newest window.
func TestOutputValidUntilNextRun(t *testing.T) {
	job := wordCountJob()
	m, res := newDeltaModel(t, job, Config{Mode: Fixed, BucketSplits: 1, WindowBuckets: deltaBuckets, Memo: testMemoConfig()})
	live := res.Output
	var kept, clones, wants []mapreduce.Output
	for i := 0; i < 100; i++ {
		s := deltaStep{drop: 1, add: 1}
		if i%10 == 9 {
			s = deltaStep{drop: 12, add: 12}
		}
		res := m.run(s)
		kept, clones, wants = append(kept, res.Output), append(clones, maps.Clone(res.Output)), append(wants, m.prev)
	}
	if !reflect.DeepEqual(clones, wants) {
		t.Fatal("a clone taken when its window was returned no longer equals that window from scratch")
	}
	newest := wants[len(wants)-1]
	if !reflect.DeepEqual(live, newest) {
		t.Fatal("the live map does not hold the newest window")
	}
	for i, out := range kept {
		if mapID(out) != mapID(live) {
			t.Fatalf("run %d returned a map of its own", i)
		}
	}
}

// TestNoStaleRetainedOutput: whatever interrupts the sequence of runs — a
// first run that failed and is retried, a map phase that failed and left the
// window untouched, a slide that failed half-way and poisoned the window, a
// restore —, the first run that succeeds afterwards patches nothing: it
// rebuilds the output and equals recomputation from scratch. For every case,
// at parallelism 1, 4 and 8.
func TestNoStaleRetainedOutput(t *testing.T) {
	unmappable := mapreduce.Split{ID: "bad", Records: []mapreduce.Record{42}}
	for _, c := range deltaCases(t) {
		for _, par := range []int{1, 4, 8} {
			cfg := c.cfg
			cfg.Parallelism = par
			one := deltaStep{drop: 1, add: 1}
			if cfg.Mode == Append {
				one.drop = 0
			}
			job := wordCountJob()
			// wantRebuilt runs one sparse slide, which would patch if there
			// were anything to patch.
			wantRebuilt := func(t *testing.T, m *deltaModel, after string) {
				t.Helper()
				if res := m.run(one); !res.Rebuilt {
					t.Fatalf("the first run after %s patched %d keys of a stale output", after, len(res.Changed))
				}
				if res := m.run(one); res.Rebuilt {
					t.Fatalf("the second run after %s rebuilt again", after)
				}
			}
			t.Run(fmt.Sprintf("%s/par%d/initial-retry", c.name, par), func(t *testing.T) {
				rt, err := New(job, cfg)
				if err != nil {
					t.Fatal(err)
				}
				m := &deltaModel{t: t, job: job, rt: rt, window: sparseSplits(0, deltaBuckets), next: deltaBuckets}
				bad := slices.Clone(m.window)
				bad[deltaBuckets-1] = unmappable
				if _, err := rt.Initial(bad); err == nil {
					t.Fatal("initial run over an unmappable record succeeded")
				}
				res, err := rt.Initial(m.window)
				if err != nil {
					t.Fatal(err)
				}
				if m.check(res, nil); !res.Rebuilt {
					t.Fatal("the retried initial run did not rebuild")
				}
			})
			t.Run(fmt.Sprintf("%s/par%d/failed-map", c.name, par), func(t *testing.T) {
				m, _ := newDeltaModel(t, job, cfg)
				held := m.run(one).Output
				want := maps.Clone(held)
				if _, err := m.rt.Advance(one.drop, []mapreduce.Split{unmappable}); err == nil {
					t.Fatal("slide over an unmappable record succeeded")
				}
				wantRebuilt(t, m, "a failed map phase")
				// The failed run gave the map up: the consumer's copy of the
				// last good window is no longer written to.
				if !reflect.DeepEqual(held, want) {
					t.Fatal("a run after the failed one wrote into the map the last good run returned")
				}
			})
			t.Run(fmt.Sprintf("%s/par%d/poisoned", c.name, par), func(t *testing.T) {
				m, _ := newDeltaModel(t, job, cfg)
				m.run(one)
				var ckpt bytes.Buffer
				if err := m.rt.Checkpoint(&ckpt); err != nil {
					t.Fatal(err)
				}
				good := m.rt.aggs[1]
				m.rt.aggs[1] = failingAgg{Aggregator: good}
				if _, err := m.rt.Advance(one.drop, sparseSplits(m.next, 1)); !errors.Is(err, errApply) {
					t.Fatalf("err = %v, want the apply failure", err)
				}
				m.rt.aggs[1] = good
				if _, err := m.rt.Advance(one.drop, sparseSplits(m.next, 1)); !errors.Is(err, errApply) {
					t.Fatalf("err = %v: a poisoned window ran again", err)
				}
				if m.rt.out != nil {
					t.Fatal("a poisoned window keeps a retained output")
				}
				restored, err := Restore(job, cfg, &ckpt)
				if err != nil {
					t.Fatal(err)
				}
				m.rt = restored
				wantRebuilt(t, m, "the restore that replaces a poisoned window")
			})
			t.Run(fmt.Sprintf("%s/par%d/restore", c.name, par), func(t *testing.T) {
				m, _ := newDeltaModel(t, job, cfg)
				m.run(one)
				var ckpt bytes.Buffer
				if err := m.rt.Checkpoint(&ckpt); err != nil {
					t.Fatal(err)
				}
				restored, err := Restore(job, cfg, &ckpt)
				if err != nil {
					t.Fatal(err)
				}
				m.rt = restored
				wantRebuilt(t, m, "a restore")
			})
		}
	}
}

// floatSumJob sums float64 weights per word: associative only up to
// rounding, so the value of a key depends on how the tree grouped it.
func floatSumJob() *mapreduce.Job {
	sum := func(_ string, values []mapreduce.Value) mapreduce.Value {
		var s float64
		for _, v := range values {
			s += v.(float64)
		}
		return s
	}
	return &mapreduce.Job{
		Name:       "floatsum",
		Partitions: 2,
		Map: func(rec mapreduce.Record, emit mapreduce.Emit) error {
			for i, w := range strings.Fields(rec.(string)) {
				emit(w, 1/float64(3+i+len(w)))
			}
			return nil
		},
		Combine:     sum,
		Reduce:      sum,
		Commutative: true,
	}
}

// TestDeltaKeepsEarlierGrouping writes down what a patched output holds when
// the combiner is associative only up to rounding: a key the run rewrote has
// the value a full pass over the current roots gives it, to the bit; a key it
// left alone keeps the value an earlier run reduced from another, equally
// valid grouping of the same values — equal up to rounding, and not
// necessarily to the bit. (With an exactly associative combiner the two are
// the same, which TestDeltaReduceMatrix holds every case to.)
func TestDeltaKeepsEarlierGrouping(t *testing.T) {
	job := floatSumJob()
	// A 64-word vocabulary: every key is in most buckets, a slide touches
	// about a tenth of them.
	splits := func(id0, n int) []mapreduce.Split {
		out := make([]mapreduce.Split, n)
		for i := range out {
			rng := rand.New(rand.NewSource(int64(id0 + i)))
			var sb strings.Builder
			for k := 0; k < 6; k++ {
				sb.WriteString(strings.Repeat("x", 1+rng.Intn(8)) + strconv.Itoa(rng.Intn(8)) + " ")
			}
			out[i] = mapreduce.Split{ID: "f" + strconv.Itoa(id0+i), Records: []mapreduce.Record{sb.String()}}
		}
		return out
	}
	const width = 64
	rt, err := New(job, Config{Mode: Fixed, Backend: BackendDaba, BucketSplits: 1, WindowBuckets: width, Memo: testMemoConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Initial(splits(0, width)); err != nil {
		t.Fatal(err)
	}
	patched, drifted := 0, 0
	for i := 0; i < 3*width; i++ {
		res, err := rt.Advance(1, splits(width+i, 1))
		if err != nil {
			t.Fatal(err)
		}
		if res.Rebuilt {
			continue
		}
		patched++
		full := make(mapreduce.Output)
		for _, agg := range rt.aggs {
			mapreduce.ReduceInto(job, agg.Roots(), full)
		}
		if len(full) != len(res.Output) {
			t.Fatalf("slide %d: %d keys, a full pass gives %d", i, len(res.Output), len(full))
		}
		for _, k := range res.Changed {
			if v, ok := res.Output[k]; ok && v != full[k] {
				t.Fatalf("slide %d: rewritten key %q = %v, a full pass over the same roots gives %v", i, k, v, full[k])
			}
		}
		for k, v := range res.Output {
			got, want := v.(float64), full[k].(float64)
			if math.Abs(got-want) > 1e-12*want {
				t.Fatalf("slide %d: key %q = %v, a full pass gives %v", i, k, got, want)
			}
			if got != want {
				drifted++
			}
		}
	}
	if patched == 0 {
		t.Fatal("no slide patched")
	}
	t.Logf("%d patched slides; %d kept values differ from the current grouping's in the last bits", patched, drifted)
}

// TestCheckPositionsCatchesAWrongOne: the hook the simulation harness runs
// (CheckPositions) holds on every genuine position a daba window's merges
// record, and fails on one a single entry off — a present key's index read
// as the insertion point after it, an absent key's insertion point as the
// index of the key there — on the evicted side and on the added one.
func TestCheckPositionsCatchesAWrongOne(t *testing.T) {
	const window = 8
	rt, err := New(wordCountJob(), Config{Mode: Fixed, BucketSplits: 1, WindowBuckets: window, Memo: testMemoConfig()})
	if err != nil {
		t.Fatal(err)
	}
	rt.CheckPositions()
	if _, err := rt.Initial(wideSplits(0, window)); err != nil {
		t.Fatal(err)
	}
	wrongs := map[string]int{}
	for i := 0; i < 3*window; i++ {
		if _, err := rt.Advance(1, wideSplits(window+i, 1)); err != nil {
			t.Fatalf("slide %d: %v", i+1, err)
		}
		for _, part := range rt.handed {
			for side, at := range map[string]*[]int32{"evicted": &part.at.Evicted, "added": &part.at.Added} {
				orig := *at
				for k := range orig {
					bad := slices.Clone(orig)
					if bad[k] >= 0 {
						bad[k] = -bad[k] - 2 // the key's index: the insertion point after it
					} else {
						bad[k] = -bad[k] - 1 // an insertion point: the index of the key there
					}
					*at = bad
					if checkLocated(part) == nil {
						t.Fatalf("slide %d: %s position %d moved from %d to %d passes the check", i+1, side, k, orig[k], bad[k])
					}
					wrongs[side]++
				}
				*at = orig
			}
			if err := checkLocated(part); err != nil {
				t.Fatalf("slide %d: %v", i+1, err)
			}
		}
		if err := rt.Background(); err != nil {
			t.Fatal(err)
		}
	}
	if wrongs["evicted"] == 0 || wrongs["added"] == 0 {
		t.Fatalf("wrong positions tried: %v", wrongs)
	}
}
