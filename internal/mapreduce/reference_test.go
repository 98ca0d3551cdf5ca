package mapreduce

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// The reference implementations below are the merge and reduce paths as
// they stood while a payload was a hash map (map[string]Value): the
// merge-joins over sorted entries are checked against them. They are
// verbatim but for the type names and the empty-payload sentinel, which
// is a nil map here.

// M is a payload as a hash map: the reference representation, and the
// literal form tests build payloads from (FromMap).
type M = map[string]Value

type refSized struct {
	P     M
	Bytes int64
}

func refClone(p M) M {
	if len(p) == 0 {
		return nil
	}
	out := make(M, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}

func refMergeOrdered(job *Job, left, right refSized) (refSized, int64) {
	if len(left.P) == 0 {
		return refSized{P: refClone(right.P), Bytes: right.Bytes}, 0
	}
	if len(right.P) == 0 {
		return refSized{P: refClone(left.P), Bytes: left.Bytes}, 0
	}
	out := make(M, len(left.P)+len(right.P))
	for k, v := range left.P {
		out[k] = v
	}
	bytes := left.Bytes
	var combines int64
	pair := make([]Value, 2)
	for k, v := range right.P {
		if existing, ok := out[k]; ok {
			pair[0], pair[1] = existing, v
			combined := job.Combine(k, pair)
			out[k] = combined
			bytes += valueBytes(combined) - valueBytes(existing)
			combines++
		} else {
			out[k] = v
			bytes += int64(len(k)) + valueBytes(v)
		}
	}
	return refSized{P: out, Bytes: bytes}, combines
}

type runLoc struct {
	start, n int
}

func refMergeOrderedK(job *Job, payloads []refSized) (refSized, int64) {
	nonEmpty, first, last, total := 0, -1, -1, 0
	var inputBytes int64
	for i, p := range payloads {
		if len(p.P) > 0 {
			if nonEmpty == 0 {
				first = i
			}
			nonEmpty++
			last = i
			total += len(p.P)
			inputBytes += p.Bytes
		}
	}
	switch nonEmpty {
	case 0:
		return refSized{}, 0
	case 1:
		return refSized{P: refClone(payloads[last].P), Bytes: inputBytes}, 0
	case 2:
		return refMergeOrdered(job, payloads[first], payloads[last])
	}
	counts := make(map[string]int, total)
	for _, p := range payloads {
		for k := range p.P {
			counts[k]++
		}
	}
	out := make(M, len(counts))
	arenaLen, dupKeys := 0, 0
	for _, c := range counts {
		if c > 1 {
			arenaLen += c
			dupKeys++
		}
	}
	if dupKeys == 0 {
		for _, p := range payloads {
			for k, v := range p.P {
				out[k] = v
			}
		}
		return refSized{P: out, Bytes: inputBytes}, 0
	}
	arena := make([]Value, arenaLen)
	locs := make(map[string]runLoc, dupKeys)
	next := 0
	var bytes int64
	for _, p := range payloads {
		for k, v := range p.P {
			c := counts[k]
			if c == 1 {
				out[k] = v
				bytes += int64(len(k)) + valueBytes(v)
				continue
			}
			loc, ok := locs[k]
			if !ok {
				loc = runLoc{start: next}
				next += c
			}
			arena[loc.start+loc.n] = v
			loc.n++
			locs[k] = loc
		}
	}
	var combines int64
	for k, loc := range locs {
		combined := job.Combine(k, arena[loc.start:loc.start+loc.n])
		out[k] = combined
		bytes += int64(len(k)) + valueBytes(combined)
		combines++
	}
	return refSized{P: out, Bytes: bytes}, combines
}

func refReducePayload(job *Job, roots []M) (Output, int64) {
	nonEmpty, last, total := 0, -1, 0
	for i, p := range roots {
		if len(p) > 0 {
			nonEmpty++
			last = i
			total += len(p)
		}
	}
	out := make(Output, total)
	switch nonEmpty {
	case 0:
		return out, 0
	case 1:
		one := make([]Value, 1)
		for k, v := range roots[last] {
			one[0] = v
			out[k] = job.Reduce(k, one)
		}
		return out, int64(total)
	}
	locs := make(map[string]runLoc, total)
	for _, p := range roots {
		for k := range p {
			loc := locs[k]
			loc.n++
			locs[k] = loc
		}
	}
	next := 0
	for k, loc := range locs {
		locs[k] = runLoc{start: next}
		next += loc.n
	}
	arena := make([]Value, total)
	for _, p := range roots {
		for k, v := range p {
			loc := locs[k]
			arena[loc.start+loc.n] = v
			loc.n++
			locs[k] = loc
		}
	}
	for k, loc := range locs {
		out[k] = job.Reduce(k, arena[loc.start:loc.start+loc.n])
	}
	return out, int64(len(locs))
}

// toMap is FromMap's inverse.
func toMap(p Payload) M {
	if len(p) == 0 {
		return nil
	}
	m := make(M, len(p))
	for _, e := range p {
		m[e.Key] = e.Value
	}
	return m
}

func toMaps(ps []Payload) []M {
	out := make([]M, len(ps))
	for i, p := range ps {
		out[i] = toMap(p)
	}
	return out
}

// at returns the value p holds under key, nil when it holds none.
func at(p Payload, key string) Value {
	v, _ := p.Get(key)
	return v
}

type propertyJob struct {
	job   *Job
	value func(rng *rand.Rand) Value
}

// propertyJobs are the jobs the merge-joins are checked under: every way a
// value is sized (sizedJobs) and a combiner that is neither
// commutative nor blind to how its arguments were grouped (concatJob).
// Each comes with a generator of the value type it combines.
func propertyJobs() map[string]propertyJob {
	ints := func(rng *rand.Rand) Value { return int64(rng.Intn(1000)) }
	jobs := sizedJobs()
	return map[string]propertyJob{
		"default": {jobs["default"], ints},
		"tally":   {jobs["tally"], func(rng *rand.Rand) Value { return tally(rng.Intn(1000)) }},
		"sizer":   {jobs["sizer"], func(rng *rand.Rand) Value { return blob{n: int64(rng.Intn(50))} }},
		"concat":  {concatJob(), func(rng *rand.Rand) Value { return fmt.Sprintf("<%d>", rng.Intn(100)) }},
	}
}

// randomSized draws up to n payloads over a key space small enough for
// keys to collide across them, some payloads empty, each correctly sized.
func randomSized(rng *rand.Rand, job *Job, value func(*rand.Rand) Value, n int) ([]Sized, []refSized) {
	keySpace := 1 + rng.Intn(40)
	ps, refs := make([]Sized, n), make([]refSized, n)
	for i := range ps {
		if rng.Intn(5) == 0 {
			continue // an empty payload
		}
		m := make(M)
		for k := rng.Intn(keySpace + 1); k > 0; k-- {
			// Keys of different lengths, so byte order differs from
			// generation order.
			m[fmt.Sprintf("%x", rng.Intn(keySpace)*2654435761)] = value(rng)
		}
		ps[i] = Size(FromMap(m))
		refs[i] = refSized{P: m, Bytes: ps[i].Bytes}
	}
	return ps, refs
}

// TestMergeJoinsMatchMapReference is the property the representation
// change rests on: over random payloads, under every sizing kind and under
// a non-commutative combiner, the merge-joins and the one-pass reduce give
// the results, the combine (reduce) counts and the carried Bytes of the
// hash-map implementations they replace, and every payload they build
// holds the sorted invariant.
func TestMergeJoinsMatchMapReference(t *testing.T) {
	for name, pj := range propertyJobs() {
		job := pj.job
		rng := rand.New(rand.NewSource(20140814))
		same := func(label string, got Sized, gotN int64, want refSized, wantN int64) {
			t.Helper()
			if !got.P.IsSorted() {
				t.Fatalf("%s/%s: result is not strictly sorted: %v", name, label, got.P)
			}
			if !reflect.DeepEqual(toMap(got.P), want.P) || gotN != wantN || got.Bytes != want.Bytes {
				t.Fatalf("%s/%s:\n got %v (%d combines, %d bytes)\nwant %v (%d combines, %d bytes)",
					name, label, got.P, gotN, got.Bytes, want.P, wantN, want.Bytes)
			}
		}
		for trial := 0; trial < 300; trial++ {
			ps, refs := randomSized(rng, job, pj.value, rng.Intn(10))
			if len(ps) >= 2 {
				got, n := MergeOrderedSizedInto(job, nil, ps[0], ps[1])
				want, wantN := refMergeOrdered(job, refs[0], refs[1])
				same(fmt.Sprintf("trial %d binary", trial), got, n, want, wantN)
			}
			got, n := MergeOrderedKSizedInto(job, nil, ps)
			want, wantN := refMergeOrderedK(job, refs)
			same(fmt.Sprintf("trial %d K=%d", trial, len(ps)), got, n, want, wantN)

			roots := make([]M, len(refs))
			for i, r := range refs {
				roots[i] = r.P
			}
			wantOut, wantCalls := refReducePayload(job, roots)
			gotOut := make(Output)
			if calls := ReduceInto(job, ps, gotOut); calls != wantCalls || !reflect.DeepEqual(gotOut, wantOut) {
				t.Fatalf("%s/trial %d reduce:\n got %v (%d calls)\nwant %v (%d calls)",
					name, trial, gotOut, calls, wantOut, wantCalls)
			}
		}
	}
}

// refRunMapTask is the map task as it stood before the pooled kernel: every
// emit finds its partition with FNV and its key in that partition's Go map
// and is combined pairwise into the entry it finds, and each partition is
// sorted once with full string comparisons. RunMapTask is held to it —
// entries, values, order, sizes, nil empty partitions (maptask_test.go).
func refRunMapTask(job *Job, split Split) (MapResult, error) {
	if err := job.Validate(); err != nil {
		return MapResult{}, err
	}
	n := job.NumPartitions()
	parts := make([]Payload, n)
	index := make([]map[string]int, n)
	for i := range index {
		index[i] = make(map[string]int)
	}
	pair := make([]Value, 2)
	emit := func(key string, value Value) {
		p := Partition(key, n)
		if i, ok := index[p][key]; ok {
			pair[0], pair[1] = parts[p][i].Value, value
			parts[p][i].Value = job.Combine(key, pair)
		} else {
			if parts[p] == nil {
				parts[p] = make(Payload, 0, 16)
			}
			index[p][key] = len(parts[p])
			parts[p] = append(parts[p], NewEntry(key, value))
		}
	}
	for _, rec := range split.Records {
		if err := job.Map(rec, emit); err != nil {
			return MapResult{}, fmt.Errorf("map task %s: %w", split.ID, err)
		}
	}
	partBytes := make([]int64, n)
	for i, p := range parts {
		slices.SortFunc(p, compareKeys)
		partBytes[i] = PayloadBytes(p)
	}
	return MapResult{
		SplitID:   split.ID,
		Parts:     parts,
		PartBytes: partBytes,
		Records:   int64(len(split.Records)),
	}, nil
}
