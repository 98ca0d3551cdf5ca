package sliderrt

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"slider/internal/apps"
	"slider/internal/mapreduce"
	"slider/internal/persist"
)

// TestRecordsAreSharedNeverWritten: a map function's values may share a
// record's memory, because nothing writes a record once it is pushed. K-Means
// emits each point as its own accumulator's sum, so a centroid that gets
// exactly one point of a split holds, in the window's payloads, an
// accumulator whose sum is that point's array. The test runs such a window
// and holds that sharing, that no point changes, that every output equals
// RunScratch's, and that StateFingerprint survives a checkpoint and restore.
// The points lie on a grid of eighths, so every sum is exact in any order
// and the outputs compare with reflect.DeepEqual.
func TestRecordsAreSharedNeverWritten(t *testing.T) {
	persist.RegisterType(&apps.CentroidAcc{})
	const k, dim = 4, 3
	newJob := func() *mapreduce.Job { return apps.KMeans(2, k, dim, 5) }
	job := newJob()
	nearest := func(pt []float64) string {
		var got string
		if err := job.Map(pt, func(key string, _ mapreduce.Value) { got = key }); err != nil {
			t.Fatal(err)
		}
		return got
	}

	// Points by centroid, drawn from the grid until two centroids have
	// at least four each.
	rng := rand.New(rand.NewSource(3))
	byKey := map[string][][]float64{}
	var full []string
	for len(full) < 2 {
		pt := make([]float64, dim)
		for i := range pt {
			pt[i] = float64(rng.Intn(9)) / 8
		}
		key := nearest(pt)
		byKey[key] = append(byKey[key], pt)
		if len(byKey[key]) == 4 {
			full = append(full, key)
		}
	}
	lone, other := full[0], full[1]
	records := func(pts ...[]float64) []mapreduce.Record {
		out := make([]mapreduce.Record, len(pts))
		for i, pt := range pts {
			out[i] = pt
		}
		return out
	}
	a, b := byKey[lone], byKey[other]
	splits := []mapreduce.Split{
		{ID: "s0", Records: records(a[0], b[0], b[1])}, // the lone point
		{ID: "s1", Records: records(b[2])},
		{ID: "s2", Records: records(a[1], a[2], b[3])},
		{ID: "s3", Records: records(a[3])},
	}
	var pushed [][]float64
	for _, s := range splits {
		for _, rec := range s.Records {
			pushed = append(pushed, slices.Clone(rec.([]float64)))
		}
	}

	cfg := Config{Mode: Fixed, BucketSplits: 1, WindowBuckets: 2, Parallelism: 1, Memo: testMemoConfig()}
	rt, err := New(job, cfg)
	if err != nil {
		t.Fatal(err)
	}
	check := func(step string, res *RunResult, window []mapreduce.Split) {
		t.Helper()
		want, err := mapreduce.RunScratch(newJob(), window, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Output, want) {
			t.Fatalf("%s: output %v, RunScratch %v", step, res.Output, want)
		}
	}
	res, err := rt.Initial(splits[:2])
	if err != nil {
		t.Fatal(err)
	}
	check("initial", res, splits[:2])

	// s0's map output holds the lone point's accumulator, and the window's
	// payloads hold it as it is: its sum is the point's array.
	shared := 0
	rt.ForEachPayload(func(p Payload) {
		for _, e := range p {
			if acc := e.Value.(*apps.CentroidAcc); e.Key == lone && acc.Count == 1 {
				if unsafe.SliceData(acc.Sum) != unsafe.SliceData(a[0]) {
					t.Fatalf("%s's lone accumulator sums %v in its own array, not the point's", lone, acc.Sum)
				}
				shared++
			}
		}
	})
	if shared == 0 {
		t.Fatalf("no payload holds %s's lone accumulator", lone)
	}

	for i := 2; i < len(splits); i++ {
		if res, err = rt.Advance(1, splits[i:i+1]); err != nil {
			t.Fatal(err)
		}
		check("slide", res, splits[i-1:i+1])
	}
	var buf bytes.Buffer
	if err := rt.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(newJob(), cfg, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := restored.StateFingerprint(), rt.StateFingerprint(); got != want {
		t.Fatalf("restored StateFingerprint %#x, checkpointed %#x", got, want)
	}
	next := []mapreduce.Split{{ID: "s4", Records: records(a[0], b[0])}}
	for _, r := range []*Runtime{rt, restored} {
		res, err := r.Advance(1, next)
		if err != nil {
			t.Fatal(err)
		}
		check("after the round trip", res, append([]mapreduce.Split{splits[3]}, next...))
	}
	if rt.StateFingerprint() != restored.StateFingerprint() {
		t.Fatal("the restored runtime's state diverged on the next slide")
	}

	i := 0
	for _, s := range splits {
		for _, rec := range s.Records {
			if !slices.Equal(rec.([]float64), pushed[i]) {
				t.Fatalf("split %s: a point was written: %v, pushed as %v", s.ID, rec, pushed[i])
			}
			i++
		}
	}
}
