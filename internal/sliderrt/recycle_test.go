package sliderrt

import (
	"fmt"
	"strings"
	"testing"

	"slider/internal/mapreduce"
)

// sameSplits returns n splits that each hold the same words, keys distinct
// words over two partitions, under distinct ids: every split's map output
// has the same number of entries in each partition, so that a map task's
// output fits exactly in the storage an evicted one-split bucket left.
func sameSplits(id0, n, keys int) []mapreduce.Split {
	var sb strings.Builder
	for k := range keys {
		fmt.Fprintf(&sb, "lone%05d ", k)
	}
	splits := make([]mapreduce.Split, n)
	for i := range splits {
		splits[i] = mapreduce.Split{ID: fmt.Sprintf("same%d", id0+i), Records: []mapreduce.Record{sb.String()}}
	}
	return splits
}

// TestEvictedLoneBucketFeedsTheNextMap: in a Fixed window of one-split
// buckets every bucket is one map task's output, handed through uncopied,
// and the upkeep after the slide that evicts it hands it to the task stock,
// so once the initial window's buckets have started leaving, every map task
// cuts its output into storage an evicted bucket left: the stock serves a
// take a partition and a slide, and misses none. The splits' outputs are
// larger than anything the package's other tests leave in the stock, which
// keeps its largest slices.
func TestEvictedLoneBucketFeedsTheNextMap(t *testing.T) {
	const width, keys = 4, 20000
	job := wordCountJob()
	job.Partitions = 2
	rt, err := New(job, Config{Mode: Fixed, Backend: BackendDaba, BucketSplits: 1, WindowBuckets: width, Parallelism: 1, Memo: testMemoConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Initial(sameSplits(0, width, keys)); err != nil {
		t.Fatal(err)
	}
	for i := range 3 * width {
		if err := rt.Background(); err != nil {
			t.Fatal(err)
		}
		before := mapreduce.TaskStockStats()
		if _, err := rt.Advance(1, sameSplits(width+i, 1, keys)); err != nil {
			t.Fatal(err)
		}
		after := mapreduce.TaskStockStats()
		hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
		if i == 0 {
			continue // nothing has left the window yet
		}
		if misses != 0 || hits != int64(job.Partitions) {
			t.Fatalf("slide %d: the stock served %d of the map's takes and missed %d, want %d and none", i+1, hits, misses, job.Partitions)
		}
	}
}

// TestOnlyLoneBucketsReachTheTaskStock: what a slide's upkeep hands to the
// task stock is its evicted buckets that were each one map task's output —
// every non-empty one in a window of one-split buckets and in one of period
// buckets of up to rangeSplits splits, none in a window of two-range buckets
// (wc-ship-dist2's shape), whose buckets are folds and go to their
// partitions' free lists. The fold of two ranges hands its inputs to the
// stock during the slide, not in its upkeep.
func TestOnlyLoneBucketsReachTheTaskStock(t *testing.T) {
	var released int
	releaseTaskPayload = func(p mapreduce.Payload) {
		if len(p) > 0 {
			released++
		}
		mapreduce.ReleaseTaskPayload(p)
	}
	defer func() { releaseTaskPayload = mapreduce.ReleaseTaskPayload }()
	job := wordCountJob()
	nonEmpty := func(splits []mapreduce.Split) int {
		n := 0
		for _, part := range scratchParts(t, job, splits) {
			if part > 0 {
				n++
			}
		}
		return n
	}
	for _, c := range []struct {
		name   string
		bucket int
	}{
		{"one-split buckets", 1},
		{"one-range buckets", rangeSplits},
		{"two-range buckets", 2 * rangeSplits},
	} {
		rt, err := New(job, Config{Mode: Fixed, Backend: BackendDaba, BucketSplits: c.bucket, WindowBuckets: 4, Parallelism: 1, Memo: testMemoConfig()})
		if err != nil {
			t.Fatal(err)
		}
		window := sparseSplits(0, 4*c.bucket)
		if _, err := rt.Initial(window); err != nil {
			t.Fatal(err)
		}
		for i := range 8 {
			in := sparseSplits(len(window)+i*c.bucket, c.bucket)
			if _, err := rt.Advance(c.bucket, in); err != nil {
				t.Fatal(err)
			}
			released = 0
			if err := rt.Background(); err != nil {
				t.Fatal(err)
			}
			want := 0
			if c.bucket <= rangeSplits {
				want = nonEmpty(window[:c.bucket])
			}
			if released != want {
				t.Fatalf("%s, slide %d: the upkeep released %d payloads to the task stock, want %d", c.name, i+1, released, want)
			}
			window = append(window[c.bucket:], in...)
		}
	}

	rt, err := New(job, periodsConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	f := &periodFeed{t: t, rt: rt}
	f.start(4)
	for range 16 { // two cycles of periodWidth, empty periods among them
		oldest := f.periods[0]
		f.slide()
		released = 0
		if err := rt.Background(); err != nil {
			t.Fatal(err)
		}
		if want := nonEmpty(oldest); released != want {
			t.Fatalf("period %d, %d splits out: the upkeep released %d payloads to the task stock, want %d", f.next-1, len(oldest), released, want)
		}
	}
}

// scratchParts is the number of keys each partition of job holds over
// splits.
func scratchParts(t *testing.T, job *mapreduce.Job, splits []mapreduce.Split) []int {
	t.Helper()
	out := scratch(t, job, splits)
	parts := make([]int, job.NumPartitions())
	for k := range out {
		parts[mapreduce.Partition(k, job.NumPartitions())]++
	}
	return parts
}

// TestRecycledBucketsAreNotReadAgain runs windows of one-split buckets,
// of two-range buckets and of period buckets under the ownership oracle,
// which scribbles over every evicted bucket, lone or folded, where the
// recycler would hand it on: after every run nothing the runtime holds or
// delivered is released storage, and the output equals recomputation. With
// the release moved to the moment the slide evicts the buckets, before the
// reduce reads them, the oracle catches it: the splits are sparse, so a
// slide patches the output, reading what left.
func TestRecycledBucketsAreNotReadAgain(t *testing.T) {
	const width = 8
	job := wordCountJob()
	for _, c := range []struct {
		name   string
		bucket int // splits a bucket; 0 for period buckets (periodWidth)
	}{{"one-split buckets", 1}, {"two-range buckets", 2 * rangeSplits}, {"period buckets", 0}} {
		for _, early := range []bool{false, true} {
			next, id := 0, 0
			take := func() []mapreduce.Split {
				n := c.bucket
				if n == 0 {
					n = periodWidth(next)
				}
				next++
				id += n
				return sparseSplits(id-n, n)
			}
			cfg := Config{Mode: Fixed, Backend: BackendDaba, BucketSplits: c.bucket, WindowBuckets: width, Memo: testMemoConfig()}
			rt, err := New(job, cfg)
			if err != nil {
				t.Fatal(err)
			}
			own := NewOwnership()
			own.early = early
			own.Watch(rt)
			var buckets [][]mapreduce.Split
			var sizes []int
			var splits []mapreduce.Split
			for range width {
				b := take()
				buckets, sizes, splits = append(buckets, b), append(sizes, len(b)), append(splits, b...)
			}
			res, err := rt.InitialBuckets(sizes, splits)
			if err != nil {
				t.Fatal(err)
			}
			caught := false
			for i := 0; i < 3*width && !caught; i++ {
				if err := own.Check(rt, res); err != nil {
					if !early {
						t.Fatalf("%s, run %d: %v", c.name, i, err)
					}
					caught = true
					continue
				}
				var window []mapreduce.Split
				for _, b := range buckets {
					window = append(window, b...)
				}
				wantSameOutput(t, res.Output, scratch(t, job, window))
				in := take()
				if res, err = rt.Advance(len(buckets[0]), in); err != nil {
					t.Fatal(err)
				}
				buckets = append(buckets[1:], in)
			}
			if early && !caught {
				t.Fatalf("%s: buckets released as they were evicted went unnoticed", c.name)
			}
		}
	}
}
