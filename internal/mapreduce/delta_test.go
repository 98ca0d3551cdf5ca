package mapreduce

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
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
		changed, calls := ReduceDelta(job, ts[:cut], ts[cut:], after, out, []string{"earlier"})
		if !reflect.DeepEqual(out, want) {
			t.Fatalf("trial %d: touched %v over roots %v:\n got %v\nwant %v", trial, ts, after, out, want)
		}
		if !slices.Equal(changed, wantChanged) || calls != wantCalls {
			t.Fatalf("trial %d: changed %v (%d calls), want %v (%d calls)", trial, changed, calls, wantChanged, wantCalls)
		}
		if int64(len(order)) != calls || !sort.StringsAreSorted(order) {
			t.Fatalf("trial %d: Reduce saw keys %v", trial, order)
		}
	}
}

// TestSeek checks the galloping cursor against a linear scan: from every
// start of payloads long enough for several doublings, for every key of the
// payload, between two keys, before the first and after the last.
func TestSeek(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 8, 9, 100} {
		p := make(Payload, n)
		for i := range p {
			p[i].Key = fmt.Sprintf("k%04d", 2*i+1)
		}
		for from := 0; from <= n; from++ {
			for q := 0; q <= 2*n+2; q++ {
				key := fmt.Sprintf("k%04d", q)
				want := from
				for want < n && p[want].Key < key {
					want++
				}
				if got := seek(p[from:], key); len(got) != n-want {
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
			p[i] = Entry{strings.Clone(k), int64(1)}
		}
		return Sized{P: p}
	}
	old := payload("a", "b", "c", "d")
	out, _ := fullPass(job, []Sized{old})
	left, right := payload("a", "b"), payload("b", "c")
	gone := payload("a", "b", "c", "d") // the departed bucket: touches everything
	changed, calls := ReduceDelta(job, []Sized{gone}, nil, []Sized{left, right}, out, nil)
	if calls != 3 || len(out) != 3 || out["b"] != int64(2) {
		t.Fatalf("patched output %v after %d calls", out, calls)
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
// reduce allocates its scratch — its value slice and joinK's — and nothing
// per key: a hundred times the touched keys cost the same. A dense slide's
// full pass into the retained map (emptied, not replaced) allocates the one
// scratch slice of a lone root and no map.
func TestDeltaReduceAllocs(t *testing.T) {
	job := sumJob(1)
	build := func(n, stride int) Sized {
		m := make(M, n)
		for i := 0; i < n; i++ {
			m[fmt.Sprintf("k%05d", i*stride)] = int64(1) // small ints box without allocating
		}
		return Size(job, FromMap(m))
	}
	root := build(4000, 1)
	roots := []Sized{root}
	out, _ := fullPass(job, roots)
	changed := make([]string, 0, 1024)
	delta := func(evicted, added Sized) float64 {
		return testing.AllocsPerRun(20, func() {
			var calls int64
			if changed, calls = ReduceDelta(job, []Sized{evicted}, []Sized{added}, roots, out, changed[:0]); int(calls) != len(changed) {
				t.Fatal("a touched key of the root was not reduced")
			}
		})
	}
	few, many := delta(build(4, 1000), build(4, 900)), delta(build(400, 10), build(400, 9))
	if few != 2 || many != 2 {
		t.Errorf("delta reduce: %.0f allocs for 8 touched keys, %.0f for 800 — want 2 (its value slice and joinK's)", few, many)
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
