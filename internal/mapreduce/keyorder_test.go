package mapreduce

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// keyOrderShapes are the keys the prefix comparison (compareKey) has to
// order as their bytes do: the empty key and keys of zero bytes, whose
// derived prefix is zero too; keys that differ only in trailing zero bytes,
// whose padded prefixes are equal; keys of 7, 8, 9 and 16 bytes that share
// their first eight; keys that differ only past byte 8; and 0x00 and 0xff
// bytes where an unsigned order matters.
var keyOrderShapes = []string{
	"", "\x00", "\x00\x00", "\x00a",
	"ab", "ab\x00", "ab\x00\x00", "a\x00", "a\xff", "b",
	"abcdefg", "abcdefgh", "abcdefgh\x00", "abcdefghi", "abcdefgi",
	"abcdefghijklmnop", "abcdefghijklmnoq", "abcdefgh\x00\x00\x00\x00\x00\x00\x00\x00",
	"abcdefgh1", "abcdefgh2", "abcdefgh\xff", "abcdefgh\x00\xff", "abcdefgh12345678x",
	"\xff", "\xff\xff\xff\xff\xff\xff\xff", "\xff\xff\xff\xff\xff\xff\xff\xff",
	"\xff\xff\xff\xff\xff\xff\xff\xff\x00", "\xff\xff\xff\xff\xff\xff\xff\xff\xff",
}

// keyOrderSets is how many payloads FuzzKeyOrder draws, and keyOrderBytes
// how much of its input it reads.
const (
	keyOrderSets  = 4
	keyOrderBytes = 256
)

// drawKeySets reads keyOrderSets key sets from data, two bytes a draw: the
// first picks a shape, or past the shapes takes the key from the bytes that
// follow; the second puts it in set b&3, as an entry that carries its prefix
// (NewEntry) when b&4 is set and as a keyed literal that carries none
// otherwise, and gives a key taken from data its length, b>>4. A set holds a
// key once, as it was first drawn. Only the first keyOrderBytes bytes are
// read: the checks are quadratic in the keys.
func drawKeySets(data []byte) [keyOrderSets]map[string]bool {
	data = data[:min(len(data), keyOrderBytes)]
	var sets [keyOrderSets]map[string]bool
	for i := range sets {
		sets[i] = map[string]bool{}
	}
	for len(data) >= 2 {
		pick, b := int(data[0]), data[1]
		data = data[2:]
		var key string
		if pick %= len(keyOrderShapes) + 1; pick < len(keyOrderShapes) {
			key = keyOrderShapes[pick]
		} else {
			n := min(int(b>>4), len(data))
			key, data = string(data[:n]), data[n:]
		}
		if _, ok := sets[b&3][key]; !ok {
			sets[b&3][key] = b&4 != 0
		}
	}
	return sets
}

// keyOrderPayload is set i as a payload: its keys in byte order, each valued
// "i;", so that a combined value spells out the payloads it came from in
// order.
func keyOrderPayload(i int, set map[string]bool) Payload {
	var p Payload
	for _, k := range sortedKeys(set) {
		v := fmt.Sprintf("%d;", i)
		if set[k] {
			p = append(p, NewEntry(k, v))
		} else {
			p = append(p, Entry{Key: k, Value: v})
		}
	}
	return p
}

// oracleJoin is the union of payloads as maps: every key in byte order with
// its values joined in payload order.
func oracleJoin(ps ...Payload) ([]string, M) {
	out := M{}
	for _, p := range ps {
		for _, e := range p {
			if v, ok := out[e.Key]; ok {
				out[e.Key] = v.(string) + e.Value.(string)
			} else {
				out[e.Key] = e.Value
			}
		}
	}
	return sortedKeys(out), out
}

// sortedKeys is m's keys in byte order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// holdsJoin fails unless got holds the union of ps: the keys in byte order,
// each with its values joined in payload order and a prefix that is either
// not derived or its key's.
func holdsJoin(t *testing.T, what string, got Payload, ps ...Payload) {
	t.Helper()
	keys, want := oracleJoin(ps...)
	if len(got) != len(keys) {
		t.Fatalf("%s: %d entries, want %d", what, len(got), len(keys))
	}
	for i, e := range got {
		if e.Key != keys[i] || e.Value != want[e.Key] {
			t.Fatalf("%s: entry %d is %q: %v, want %q: %v", what, i, e.Key, e.Value, keys[i], want[keys[i]])
		}
		if e.prefix != 0 && e.prefix != keyPrefix(e.Key) {
			t.Fatalf("%s: entry %d, %q, carries prefix %#x, not its own", what, i, e.Key, e.prefix)
		}
	}
}

// resultPositions is where each entry of raw lands among keys.
func resultPositions(raw Payload, keys []string) []int32 {
	at := make([]int32, len(raw))
	for i, e := range raw {
		k, _ := slices.BinarySearch(keys, e.Key)
		at[i] = int32(k)
	}
	return at
}

func sign(c int) int { return min(max(c, -1), 1) }

// FuzzKeyOrder holds every path that compares payload keys to byte order,
// built from maps: the comparison itself, seek, IsSorted and DerivePrefixes,
// the two-way merge in each of its three regimes (merge-join, gallop with the
// small side left, gallop with it right) and both ways of locating,
// positions included, the K-way merge, ReduceInto over one, two and three
// roots, and ReduceDelta with recorded positions, sought, and over two
// evicted payloads. Its payloads mix entries that carry their prefixes with
// keyed literals that carry none.
func FuzzKeyOrder(f *testing.F) {
	var every []byte
	for i := range keyOrderShapes {
		for set := range keyOrderSets {
			if (i+set)%3 != 0 {
				every = append(every, byte(i), byte(set|(i+set)%2<<2))
			}
		}
	}
	f.Add(every)
	f.Add([]byte{4, 4, 5, 4, 6, 5, 4, 1, 5, 5, 6, 6})
	f.Add([]byte{11, 4, 12, 4, 13, 5, 14, 1, 15, 6, 16, 2, 12, 7, 13, 3})
	f.Add([]byte{0, 4, 1, 0, 2, 5, 0, 1, 1, 6, 3, 3})
	f.Add([]byte{byte(len(keyOrderShapes)), 0x84, 'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', byte(len(keyOrderShapes)), 0x95, 'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 'z'})
	f.Add([]byte{})
	job := &Job{Name: "keyorder", Map: func(Record, Emit) error { return nil }, Combine: joinStrings, Reduce: joinStrings}
	f.Fuzz(func(t *testing.T, data []byte) {
		sets := drawKeySets(data)
		var ps [keyOrderSets]Payload
		for i, set := range sets {
			ps[i] = keyOrderPayload(i, set)
		}
		checkCompare(t, sets)
		for _, p := range ps {
			checkSeek(t, p, sets)
			checkSorted(t, p)
		}
		for _, pair := range [][2]int{{0, 1}, {1, 0}, {2, 3}} {
			checkMerges(t, job, ps[pair[0]], ps[pair[1]])
		}
		for n := 1; n <= keyOrderSets; n++ {
			sized := make([]Sized, n)
			for i := range sized {
				sized[i].P = ps[i]
			}
			got, _ := MergeOrderedKSizedInto(job, nil, sized)
			holdsJoin(t, fmt.Sprintf("K-way merge of %d", n), got.P, ps[:n]...)
			if n <= 3 {
				checkReduceInto(t, job, ps[:n])
			}
		}
		checkReduceDelta(t, job, ps)
	})
}

// checkCompare holds compareKey to strings.Compare over every pair of drawn
// keys, each side with its prefix and without.
func checkCompare(t *testing.T, sets [keyOrderSets]map[string]bool) {
	var keys []string
	for _, set := range sets {
		keys = append(keys, sortedKeys(set)...)
	}
	for _, a := range keys {
		for _, b := range keys {
			want := sign(strings.Compare(a, b))
			for _, pa := range []uint64{0, keyPrefix(a)} {
				for _, pb := range []uint64{0, keyPrefix(b)} {
					if got := sign(compareKey(a, pa, b, pb)); got != want {
						t.Fatalf("compareKey(%q, %#x, %q, %#x) = %d, want %d", a, pa, b, pb, got, want)
					}
					if got := keyBefore(a, pa, b, pb); got != (want < 0) {
						t.Fatalf("keyBefore(%q, %#x, %q, %#x) = %v, want %v", a, pa, b, pb, got, want < 0)
					}
				}
			}
		}
	}
}

// checkSeek holds seek to a linear scan in byte order, from every start of p
// and for every drawn key, sought with its prefix and without.
func checkSeek(t *testing.T, p Payload, sets [keyOrderSets]map[string]bool) {
	for _, set := range sets {
		for key := range set {
			first := 0 // p's first key ≥ key
			for first < len(p) && p[first].Key < key {
				first++
			}
			for from := 0; from <= len(p); from++ {
				want := max(from, first)
				for _, prefix := range []uint64{0, keyPrefix(key)} {
					if got := seek(p[from:], key, prefix); len(got) != len(p)-want {
						t.Fatalf("seek(p[%d:], %q, %#x) leaves %d of %d entries, want %d", from, key, prefix, len(got), len(p), len(p)-want)
					}
				}
			}
		}
	}
}

// checkSorted holds IsSorted and DerivePrefixes to the invariant: p holds it,
// and so does p with its prefixes derived, every one its key's; p with two
// neighbours swapped or one entry twice does not.
func checkSorted(t *testing.T, p Payload) {
	if !p.IsSorted() {
		t.Fatalf("IsSorted refuses %q", keysOf(p))
	}
	derived := slices.Clone(p)
	if !derived.DerivePrefixes() {
		t.Fatalf("DerivePrefixes refuses %q", keysOf(p))
	}
	for _, e := range derived {
		if e.prefix != keyPrefix(e.Key) {
			t.Fatalf("DerivePrefixes left %q with prefix %#x", e.Key, e.prefix)
		}
	}
	for i := 1; i < len(p); i++ {
		swapped := slices.Clone(p)
		swapped[i-1], swapped[i] = swapped[i], swapped[i-1]
		twice := slices.Insert(slices.Clone(p), i, p[i-1])
		for name, q := range map[string]Payload{"swapped": swapped, "twice": twice} {
			if q.IsSorted() {
				t.Fatalf("IsSorted accepts %q (%s at %d)", keysOf(q), name, i)
			}
			if q.DerivePrefixes() {
				t.Fatalf("DerivePrefixes accepts %q (%s at %d)", keysOf(q), name, i)
			}
		}
	}
}

func keysOf(p Payload) []string {
	keys := make([]string, len(p))
	for i, e := range p {
		keys[i] = e.Key
	}
	return keys
}

// checkMerges holds the merge of l and r, in each regime and each way of
// locating, to the union and the positions read off it.
func checkMerges(t *testing.T, job *Job, l, r Payload) {
	keys, _ := oracleJoin(l, r)
	wantAt := map[Locate][]int32{
		LocateRightInResult: resultPositions(r, keys),
		LocateLeftInRight:   searchPositions(l, r),
	}
	regimes := map[string]func(loc *locator) Payload{
		"merge-join": func(loc *locator) Payload {
			out, _, _ := mergeJoin(job, nil, l, r, 0, loc)
			return out
		},
		"gallop, small side left": func(loc *locator) Payload {
			out, _, _ := gallop(job, nil, l, r, true, 0, loc)
			return out
		},
		"gallop, small side right": func(loc *locator) Payload {
			out, _, _ := gallop(job, nil, r, l, false, 0, loc)
			return out
		},
	}
	for name, merge := range regimes {
		holdsJoin(t, name, merge(nil), l, r)
		for mode, want := range wantAt {
			loc := &locator{rawLeft: mode == LocateLeftInRight}
			holdsJoin(t, name, merge(loc), l, r)
			if !slices.Equal(loc.at, want) && len(loc.at)+len(want) > 0 {
				t.Fatalf("%s, mode %d: positions %v, want %v", name, mode, loc.at, want)
			}
		}
	}
	for mode, want := range wantAt {
		out, _, at := MergeOrderedLocated(job, nil, Sized{P: l}, Sized{P: r}, mode, nil)
		holdsJoin(t, "MergeOrderedLocated", out.P, l, r)
		if !slices.Equal(at, want) && len(at)+len(want) > 0 {
			t.Fatalf("MergeOrderedLocated, mode %d: positions %v, want %v", mode, at, want)
		}
	}
}

// reduceOracle is the output of reducing the union of roots: every key's
// values joined in root order.
func reduceOracle(roots ...Payload) Output {
	_, joined := oracleJoin(roots...)
	return Output(joined)
}

// checkReduceInto holds ReduceInto over roots to the oracle.
func checkReduceInto(t *testing.T, job *Job, roots []Payload) {
	sized := make([]Sized, len(roots))
	for i, p := range roots {
		sized[i].P = p
	}
	out := Output{}
	ReduceInto(job, sized, out)
	if want := reduceOracle(roots...); !reflect.DeepEqual(out, want) {
		t.Fatalf("ReduceInto over %d roots: %v, want %v", len(roots), out, want)
	}
}

// checkReduceDelta holds ReduceDelta to the oracle: over roots ps[0], ps[1]
// (and ps[1] alone), an output that held anything patched for evicted ps[2]
// and added every other entry of the last root must equal the previous
// output with every touched key reduced again over the roots, or deleted where
// they lack it, and list the touched keys once each in byte order — with
// recorded positions, sought, and with ps[3] evicted too.
func checkReduceDelta(t *testing.T, job *Job, ps [keyOrderSets]Payload) {
	for _, roots := range [][]Payload{{ps[0], ps[1]}, {ps[1]}} {
		first, last := roots[0], roots[len(roots)-1]
		var added Payload
		for i, e := range last {
			if i%2 == 0 {
				added = append(added, e)
			}
		}
		sized := make([]Sized, len(roots))
		for i, p := range roots {
			sized[i].P = p
		}
		located := Located{Evicted: searchPositions(ps[2], first), Added: searchPositions(added, last)}
		for _, c := range []struct {
			name    string
			evicted []Payload
			at      Located
		}{
			{"located", []Payload{ps[2]}, located},
			{"sought", []Payload{ps[2]}, Located{}},
			{"two evicted", []Payload{ps[2], ps[3]}, Located{}},
		} {
			out := reduceOracle(ps[2], ps[3])
			want := maps.Clone(out)
			touchedKeys, _ := oracleJoin(append(slices.Clone(c.evicted), added)...)
			full := reduceOracle(roots...)
			for _, k := range touchedKeys {
				if v, ok := full[k]; ok {
					want[k] = v
				} else {
					delete(want, k)
				}
			}
			evicted := make([]Sized, len(c.evicted))
			for i, p := range c.evicted {
				evicted[i].P = p
			}
			changed, _ := ReduceDelta(job, evicted, []Sized{{P: added}}, c.at, sized, out, nil)
			name := fmt.Sprintf("ReduceDelta %s over %d roots", c.name, len(roots))
			if !reflect.DeepEqual(out, want) {
				t.Fatalf("%s: %v, want %v", name, out, want)
			}
			if !slices.Equal(changed, touchedKeys) && len(changed)+len(touchedKeys) > 0 {
				t.Fatalf("%s: changed %q, want %q", name, changed, touchedKeys)
			}
		}
	}
}
