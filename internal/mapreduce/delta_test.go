package mapreduce

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// fullPass reduces every key of roots into a fresh output.
func fullPass(job *Job, roots []Sized) (Output, int64) {
	out := make(Output)
	return out, ReduceInto(job, roots, out)
}

// TestReduceDeltaMatchesFullPass is the property the retained output rests
// on: start from the full reduce of one set of roots, move to any other set,
// hand ReduceDelta payloads — as evicted or as added ones, it makes no
// difference — that hold at least every key whose values differ
// — and the patched output is the full reduce of the new roots, under a
// reducer that shows any reordering or regrouping of a key's values. Changed
// is the touched keys, each once, ascending; Reduce ran once per touched key
// the new roots hold and saw the keys in that order.
func TestReduceDeltaMatchesFullPass(t *testing.T) {
	job := concatJob()
	concat := job.Reduce
	var order []string
	job.Reduce = func(key string, values []Value) Value {
		order = append(order, key)
		return concat(key, values)
	}
	value := propertyJobs()["concat"].value
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 500; trial++ {
		before, _ := randomSized(rng, job, value, rng.Intn(4))
		after, _ := randomSized(rng, job, value, rng.Intn(4))
		out, _ := fullPass(job, before)
		want, _ := fullPass(job, after)

		// Every key of either side is touched unless both sides hold exactly
		// the same values for it; a few of those are touched all the same.
		// The touched keys are dealt over up to three payloads, overlapping.
		entries := func(roots []Sized, key string) (vals []Value) {
			for _, r := range roots {
				if v, ok := r.P.Get(key); ok {
					vals = append(vals, v)
				}
			}
			return vals
		}
		touched := make([]M, 1+rng.Intn(3))
		for i := range touched {
			touched[i] = M{}
		}
		keys := map[string]bool{}
		for _, roots := range [][]Sized{before, after} {
			for _, r := range roots {
				for _, e := range r.P {
					if !reflect.DeepEqual(entries(before, e.Key), entries(after, e.Key)) || rng.Intn(4) == 0 {
						keys[e.Key] = true
						touched[rng.Intn(len(touched))][e.Key] = "ignored"
						touched[rng.Intn(len(touched))][e.Key] = "ignored"
					}
				}
			}
		}
		ts := make([]Sized, len(touched))
		for i, m := range touched {
			ts[i].P = FromMap(m)
		}
		var wantCalls int64
		wantChanged := []string{"earlier"}
		for k := range keys {
			wantChanged = append(wantChanged, k)
			if _, ok := want[k]; ok {
				wantCalls++
			}
		}
		sort.Strings(wantChanged[1:])

		order = order[:0]
		cut := rng.Intn(len(ts) + 1)
		// A slide of one payload each way may say where its keys stand: in
		// the first root for the evicted one, in the last for the added one.
		var at Located
		if len(after) > 0 && cut <= 1 && len(ts)-cut <= 1 {
			if cut == 1 && rng.Intn(3) > 0 {
				at.Evicted = searchPositions(ts[0].P, after[0].P)
			}
			if cut < len(ts) && rng.Intn(3) > 0 {
				at.Added = searchPositions(ts[cut].P, after[len(after)-1].P)
			}
		}
		changed, got := ReduceDelta(job, ts[:cut], ts[cut:], at, after, out, []string{"earlier"})
		if !reflect.DeepEqual(out, want) {
			t.Fatalf("trial %d: touched %v over roots %v:\n got %v\nwant %v", trial, ts, after, out, want)
		}
		if !slices.Equal(changed, wantChanged) || got.Calls != wantCalls {
			t.Fatalf("trial %d: changed %v (%d calls), want %v (%d calls)", trial, changed, got.Calls, wantChanged, wantCalls)
		}
		if int64(len(order)) != got.Calls || !sort.StringsAreSorted(order) {
			t.Fatalf("trial %d: Reduce saw keys %v", trial, order)
		}
		// Every touched key is looked up once in every non-empty root, and
		// sought there unless a position was read.
		var lookups, located int64
		for i, r := range after {
			if len(r.P) == 0 {
				continue
			}
			lookups += int64(len(keys))
			switch {
			case i == 0 && at.Evicted != nil:
				located += int64(len(ts[0].P))
				if i == len(after)-1 && at.Added != nil {
					located += int64(len(onlyIn(ts[cut].P, ts[0].P)))
				}
			case i == len(after)-1 && at.Added != nil:
				located += int64(len(ts[cut].P))
			}
		}
		if got.Lookups != lookups || got.Seeks != lookups-located {
			t.Fatalf("trial %d: %d lookups, %d sought; want %d, %d", trial, got.Lookups, got.Seeks, lookups, lookups-located)
		}
	}
}

// searchPositions is the binary-search reference for recorded positions:
// for each entry of raw, the index of its key in p, or −(insertion point)−1
// where p lacks it.
func searchPositions(raw, p Payload) []int32 {
	at := make([]int32, len(raw))
	for i, e := range raw {
		k, ok := slices.BinarySearchFunc(p, e.Key, func(x Entry, key string) int { return strings.Compare(x.Key, key) })
		if at[i] = int32(k); !ok {
			at[i] = int32(-k - 1)
		}
	}
	return at
}

// onlyIn returns the entries of p whose keys q lacks.
func onlyIn(p, q Payload) Payload {
	var out Payload
	for _, e := range p {
		if _, ok := q.Get(e.Key); !ok {
			out = append(out, e)
		}
	}
	return out
}

// TestSeek checks the galloping cursor against a linear scan: from every
// start of payloads long enough for several doublings, for every key of the
// payload, between two keys, before the first and after the last. The keys
// carry their prefixes (FuzzKeyOrder mixes in keys that do not).
func TestSeek(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 8, 9, 100} {
		p := make(Payload, n)
		for i := range p {
			p[i] = NewEntry(fmt.Sprintf("k%04d", 2*i+1), nil)
		}
		for from := 0; from <= n; from++ {
			for q := 0; q <= 2*n+2; q++ {
				key := fmt.Sprintf("k%04d", q)
				want := from
				for want < n && p[want].Key < key {
					want++
				}
				if got := seek(p[from:], key, keyPrefix(key)); len(got) != n-want {
					t.Fatalf("n=%d: seek(p[%d:], %q) leaves %d entries, want %d", n, from, key, len(got), n-want)
				}
			}
		}
	}
}

// TestReduceDeltaRefreshesKeyStrings: an entry ReduceDelta rewrites takes
// the roots' key string — the rightmost holder's — not the one the output
// held nor the touched payload's, so a retained output never keeps a string
// cut from a payload that has left the window (decoded payloads cut their
// keys from one arena each: one string would pin it all). The list of
// changed keys names a rewritten key by the same string.
func TestReduceDeltaRefreshesKeyStrings(t *testing.T) {
	job := sumJob(1)
	payload := func(keys ...string) Sized {
		p := make(Payload, len(keys))
		for i, k := range keys {
			p[i] = NewEntry(strings.Clone(k), int64(1))
		}
		return Sized{P: p}
	}
	old := payload("a", "b", "c", "d")
	out, _ := fullPass(job, []Sized{old})
	left, right := payload("a", "b"), payload("b", "c")
	gone := payload("a", "b", "c", "d") // the departed bucket: touches everything
	changed, got := ReduceDelta(job, []Sized{gone}, nil, Located{}, []Sized{left, right}, out, nil)
	if got.Calls != 3 || len(out) != 3 || out["b"] != int64(2) {
		t.Fatalf("patched output %v after %d calls", out, got.Calls)
	}
	holder := map[string]*byte{
		"a": unsafe.StringData(left.P[0].Key),
		"b": unsafe.StringData(right.P[0].Key),
		"c": unsafe.StringData(right.P[1].Key),
	}
	for k := range out {
		if unsafe.StringData(k) != holder[k] {
			t.Errorf("key %q of the patched output is not the string of the newest root holding it", k)
		}
	}
	for _, k := range changed[:3] {
		if unsafe.StringData(k) != holder[k] {
			t.Errorf("changed key %q is not the roots' string", k)
		}
	}
	if !slices.Equal(changed, []string{"a", "b", "c", "d"}) {
		t.Fatalf("changed = %v", changed)
	}
}

// TestDeltaReduceAllocs pins what the reduce of a slide allocates. A delta
// reduce allocates its scratch and nothing per key: a hundred times the
// touched keys cost the same. A slide of one payload each way walks them with
// two cursors and allocates its value slice alone — read by recorded position
// or sought, the same; joinK's scratch is a slide of several payloads' only.
// A dense slide's full pass into the retained map (emptied, not replaced)
// allocates the one scratch slice of a lone root and no map.
func TestDeltaReduceAllocs(t *testing.T) {
	job := sumJob(1)
	build := func(n, stride int) Sized {
		m := make(M, n)
		for i := 0; i < n; i++ {
			m[fmt.Sprintf("k%05d", i*stride)] = int64(1) // small ints box without allocating
		}
		return Size(FromMap(m))
	}
	root := build(4000, 1)
	roots := []Sized{root}
	out, _ := fullPass(job, roots)
	changed := make([]string, 0, 1024)
	delta := func(evicted, added []Sized, at Located) float64 {
		return testing.AllocsPerRun(20, func() {
			var got DeltaCounts
			if changed, got = ReduceDelta(job, evicted, added, at, roots, out, changed[:0]); int(got.Calls) != len(changed) {
				t.Fatal("a touched key of the root was not reduced")
			}
		})
	}
	slide := func(n, stride int, located bool) float64 {
		evicted, added := build(n, stride), build(n, stride-stride/10)
		var at Located
		if located {
			at = Located{Evicted: searchPositions(evicted.P, root.P), Added: searchPositions(added.P, root.P)}
		}
		return delta([]Sized{evicted}, []Sized{added}, at)
	}
	few, many, located := slide(4, 1000, false), slide(400, 10, false), slide(400, 10, true)
	if few != 1 || many != 1 || located != 1 {
		t.Errorf("delta reduce: %.0f allocs for 8 touched keys, %.0f for 800, %.0f for 800 located — want 1 (its value slice: two cursors, no joinK scratch)", few, many, located)
	}
	if several := delta([]Sized{build(4, 1000), build(4, 700)}, []Sized{build(4, 900)}, Located{}); several != 2 {
		t.Errorf("delta reduce of three payloads: %.0f allocs, want 2 (its value slice and joinK's)", several)
	}
	dense := testing.AllocsPerRun(20, func() {
		clear(out)
		if calls := ReduceInto(job, roots, out); int(calls) != len(root.P) || len(out) != len(root.P) {
			t.Fatal("full pass skipped keys")
		}
	})
	if dense != 1 {
		t.Errorf("full pass into the retained map: %.0f allocs, want 1 (the scratch slice)", dense)
	}
}

// BenchmarkDeltaVsRefill is the table behind reduceAll's density rule
// (DESIGN.md §9): the two ways a slide's reduce can go over the daba kind's
// halves — a front of 6 000 keys and a back of 6 000, overlapping — patching
// the retained output (ReduceDelta, an evicted payload located in the front
// and an added one in the back as the structure's merges record them, or
// sought) against refilling it (clear + ReduceInto), as the touched entries
// grow from 5 % of the roots' to all of them. The three are timed turn by
// turn inside one loop and reported side by side, in µs.
func BenchmarkDeltaVsRefill(b *testing.B) {
	job := sumJob(1)
	const keys, half = 16_000, 6_000
	rng := rand.New(rand.NewSource(1604))
	key := func(i int) string { return fmt.Sprintf("w%05d", i) }
	draw := func(n int, from []int) Sized {
		m := make(M, n)
		for len(m) < n {
			i := rng.Intn(keys)
			if from != nil {
				i = from[rng.Intn(len(from))]
			}
			m[key(i)] = int64(1)
		}
		return Size(FromMap(m))
	}
	front, back := draw(half, nil), draw(half, nil)
	backKeys := make([]int, len(back.P))
	for i, e := range back.P {
		fmt.Sscanf(e.Key, "w%d", &backKeys[i])
	}
	roots := []Sized{front, back}
	out, _ := fullPass(job, roots)
	changed := make([]string, 0, 2*half)
	for _, pct := range []int{5, 12, 25, 50, 62, 75, 100} {
		touched := pct * 2 * half / 100
		evicted, added := draw(touched/2, nil), draw(touched/2, backKeys)
		at := Located{Evicted: searchPositions(evicted.P, front.P), Added: searchPositions(added.P, back.P)}
		b.Run(fmt.Sprintf("touched=%d%%", pct), func(b *testing.B) {
			var located, sought, refill time.Duration
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				changed, _ = ReduceDelta(job, []Sized{evicted}, []Sized{added}, at, roots, out, changed[:0])
				t1 := time.Now()
				changed, _ = ReduceDelta(job, []Sized{evicted}, []Sized{added}, Located{}, roots, out, changed[:0])
				t2 := time.Now()
				clear(out)
				ReduceInto(job, roots, out)
				located += t1.Sub(t0)
				sought += t2.Sub(t1)
				refill += time.Since(t2)
			}
			us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / float64(b.N) }
			b.ReportMetric(us(located), "located-us")
			b.ReportMetric(us(sought), "sought-us")
			b.ReportMetric(us(refill), "refill-us")
		})
	}
}
