package mapreduce

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestPartitionMatchesFNVReference pins the inlined FNV-1a loop to the
// allocating hash/fnv implementation it replaced: identical partition
// assignment for every key, so memoized placements survive the rewrite.
func TestPartitionMatchesFNVReference(t *testing.T) {
	reference := func(key string, n int) int {
		if n <= 1 {
			return 0
		}
		h := fnv.New32a()
		_, _ = h.Write([]byte(key))
		return int(h.Sum32() % uint32(n))
	}
	fixed := []string{"", "a", "ab", "alpha", "part:0", "map:s17", "日本語", "\x00\xff"}
	for _, key := range fixed {
		for _, n := range []int{1, 2, 3, 7, 16, 24} {
			if got, want := Partition(key, n), reference(key, n); got != want {
				t.Fatalf("Partition(%q, %d) = %d, reference %d", key, n, got, want)
			}
		}
	}
	property := func(key string, n uint8) bool {
		parts := int(n%32) + 1
		return Partition(key, parts) == reference(key, parts)
	}
	if err := quick.Check(property, nil); err != nil {
		t.Fatal(err)
	}
	if got, want := HashKey32("slider"), fnv.New32a(); true {
		_, _ = want.Write([]byte("slider"))
		if got != want.Sum32() {
			t.Fatalf("HashKey32 = %#x, fnv reference %#x", got, want.Sum32())
		}
	}
}

// TestPartitionNoAllocs pins the whole point of the inlined hash: zero
// allocations per call on the map-side emit path.
func TestPartitionNoAllocs(t *testing.T) {
	keys := []string{"alpha", "beta", "a-much-longer-key-with-structure:42"}
	allocs := testing.AllocsPerRun(100, func() {
		for _, k := range keys {
			if Partition(k, 8) < 0 {
				t.Fatal("negative partition")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("Partition allocates %.1f per run, want 0", allocs)
	}
}

// orderTracingJob returns a job whose Combine records, per key, the
// concatenation order of the values it sees. Values are strings; the
// combined value is their in-order concatenation, so both the final
// output AND the window ordering of every combiner argument are visible
// in the result. Concatenation is associative but not commutative —
// exactly the contract MergeOrderedK must preserve.
func orderTracingJob() *Job {
	cat := func(_ string, values []Value) Value {
		var s string
		for _, v := range values {
			s += v.(string)
		}
		return s
	}
	return &Job{
		Name:    "concat",
		Map:     func(Record, Emit) error { return nil },
		Combine: cat,
		Reduce:  cat,
	}
}

// randomPayloadList generates n payloads over a small key space so keys
// collide across payloads, with some payloads empty or nil.
func randomPayloadList(rng *rand.Rand, n int) []Payload {
	keys := []string{"k0", "k1", "k2", "k3", "k4", "k5"}
	out := make([]Payload, n)
	for i := range out {
		switch rng.Intn(5) {
		case 0:
			out[i] = nil
		case 1:
			out[i] = Payload{}
		default:
			p := M{}
			for _, k := range keys {
				if rng.Intn(2) == 0 {
					p[k] = fmt.Sprintf("<%d:%s>", i, k)
				}
			}
			out[i] = FromMap(p)
		}
	}
	return out
}

// TestMergeOrderedKEquivalentToPairwiseFold is the satellite property
// test: over random payload lists — including empty and nil sides and
// single-payload fast paths — MergeOrderedK produces combine-for-combine
// the same output values and window ordering as a left fold of binary
// MergeOrdered. The tracing combiner concatenates values in argument
// order, so any ordering or association error shows up in the output.
func TestMergeOrderedKEquivalentToPairwiseFold(t *testing.T) {
	job := orderTracingJob()
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		ps := randomPayloadList(rng, rng.Intn(12))
		// Reference: strict left fold of binary merges.
		var want Payload
		if len(ps) == 0 {
			want = Payload{}
		} else {
			want = ps[0]
			for _, p := range ps[1:] {
				want, _ = MergeOrdered(job, want, p)
			}
		}
		got, combines := MergeOrderedK(job, ps...)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d keys, want %d", trial, len(got), len(want))
		}
		for _, w := range want {
			gv, ok := got.Get(w.Key)
			if !ok {
				t.Fatalf("trial %d: missing key %q", trial, w.Key)
			}
			if gv.(string) != w.Value.(string) {
				t.Fatalf("trial %d key %q: got %q, want %q (window order violated)", trial, w.Key, gv, w.Value)
			}
		}
		// Combine count: exactly one multi-argument call per key that
		// occurs in ≥ 2 non-empty payloads (never more than the pairwise
		// fold's count).
		occurrences := map[string]int{}
		for _, p := range ps {
			for _, e := range p {
				occurrences[e.Key]++
			}
		}
		var wantCombines int64
		nonEmpty := 0
		for _, p := range ps {
			if len(p) > 0 {
				nonEmpty++
			}
		}
		if nonEmpty >= 2 {
			for _, n := range occurrences {
				if n >= 2 {
					wantCombines++
				}
			}
		}
		if combines != wantCombines {
			t.Fatalf("trial %d: %d combines, want %d", trial, combines, wantCombines)
		}
	}
}

// TestMergeOrderedKFastPaths pins the no-combine fast paths: all-empty
// input returns the empty payload, and a single live payload is cloned
// without combining.
func TestMergeOrderedKFastPaths(t *testing.T) {
	job := orderTracingJob()
	if out, c := MergeOrderedK(job); c != 0 || len(out) != 0 {
		t.Fatalf("zero payloads: out=%v combines=%d", out, c)
	}
	if out, _ := MergeOrderedK(job, nil, Payload{}, nil); len(out) != 0 {
		t.Fatalf("all-empty: out=%v", out)
	}
	p := FromMap(M{"k": "v"})
	out, c := MergeOrderedK(job, nil, p, Payload{})
	if c != 0 || len(out) != 1 || at(out, "k") != "v" {
		t.Fatalf("single live payload: out=%v combines=%d", out, c)
	}
	out[0].Value = "x"
	if at(p, "k") != "v" {
		t.Fatal("single-payload fast path aliased its input")
	}
}

// TestMergeOrderedKNeverAliasesInputs extends the binary no-aliasing
// regression to the K-way path: mutating a non-empty result must not
// corrupt any input.
func TestMergeOrderedKNeverAliasesInputs(t *testing.T) {
	job := sumJob(1)
	inputs := []Payload{
		{{"a", int64(1)}},
		nil,
		{{"a", int64(2)}, {"b", int64(3)}},
		{},
		{{"c", int64(4)}},
	}
	fps := make([]uint64, len(inputs))
	for i, p := range inputs {
		fps[i] = FingerprintPayload(p)
	}
	out, _ := MergeOrderedK(job, inputs...)
	for i := range out {
		out[i] = Entry{"smashed", int64(99)}
	}
	for i, p := range inputs {
		if FingerprintPayload(p) != fps[i] {
			t.Fatalf("mutating the K-way result corrupted input %d", i)
		}
	}
}

// TestEmptySidesAllocateNothing pins the empty paths: a merge or K-way
// merge whose inputs are all empty returns the empty payload without
// allocating.
func TestEmptySidesAllocateNothing(t *testing.T) {
	job := sumJob(1)
	empty := Payload{}
	allocs := testing.AllocsPerRun(100, func() {
		if out, _ := MergeOrdered(job, empty, nil); len(out) != 0 {
			t.Fatal("empty merge produced keys")
		}
		if out, _ := MergeOrderedK(job, nil, empty); len(out) != 0 {
			t.Fatal("empty K-way merge produced keys")
		}
	})
	if allocs != 0 {
		t.Fatalf("empty-side paths allocate %.1f per run, want 0", allocs)
	}
}
