package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"slider/internal/apps"
	"slider/internal/mapreduce"
	"slider/internal/persist"
	"slider/internal/stream"
	"slider/internal/workload"
)

// scale sizes a workload: full is the benchmark, tiny is the tier-1 test.
// Window geometry (splits per window, splits per slide) never changes
// with scale, so the layers exercised are the same at both.
type scale struct {
	textLines   int // wordcount lines generated before timing
	textVocab   int
	textSplit   int // RecordsPerSplit of the wordcount workloads
	points      int // K-Means points generated before timing
	pointsSplit int // RecordsPerSplit of the K-Means workload
	burstDiv    int // divisor applied to the bursty period sizes
	probeSlides int // slides replayed by the per-layer probes
}

var (
	fullScale = scale{textLines: 1 << 18, textVocab: 20000, textSplit: 200, points: 1 << 17, pointsSplit: 2000, burstDiv: 1, probeSlides: 64}
	tinyScale = scale{textLines: 1 << 12, textVocab: 500, textSplit: 10, points: 1 << 11, pointsSplit: 20, burstDiv: 20, probeSlides: 8}
)

// burstSizes are the records one period of wc-bursty-time may carry. Each
// block of len(burstSizes) consecutive periods holds every value once, in
// an order drawn from the seed, so any whole number of blocks carries the
// same record count and a run's per-slide means do not depend on where
// the clock stopped it. 400 appears twice so that the median slide is a
// 400-record period; an eighth of the slides carry 3200, so p95 lies
// inside that mass.
var burstSizes = []int{0, 100, 200, 400, 400, 800, 1600, 3200}

const burstPeriods = 4096 // schedule length; the stream cycles through it

// spec names a workload; BENCHMARK.json and README.md record why each
// one exists.
type spec struct {
	name  string
	dist  bool
	build func(seed int64, sc scale) *workloadData
}

// specs lists the workloads in BENCHMARK.json order.
var specs = []spec{
	{
		name: "wc-wide-local",
		build: func(seed int64, sc scale) *workloadData {
			return newCountWorkload(wordCount(), textRecords(seed, sc), sc.textSplit, 64, 1)
		},
	},
	{
		name: "wc-ship-dist2",
		dist: true,
		build: func(seed int64, sc scale) *workloadData {
			return newCountWorkload(wordCount(), textRecords(seed, sc), sc.textSplit, 16, 8)
		},
	},
	{
		name: "kmeans-map-local",
		build: func(seed int64, sc scale) *workloadData {
			persist.RegisterType(&apps.CentroidAcc{}) // checkpoints carry the accumulator behind an interface
			pts := workload.NewPoints(workload.PointsConfig{Seed: seed, PointsPerSplit: sc.points, Dim: 50})
			w := newCountWorkload(apps.KMeans(4, 64, 50, seed), pts.Split(0).Records, sc.pointsSplit, 32, 1)
			w.floatOutput = true
			return w
		},
	},
	{
		name: "wc-bursty-time",
		build: func(seed int64, sc scale) *workloadData {
			return newTimeWorkload(wordCount(), textRecords(seed, sc), burstSchedule(seed, sc.burstDiv), sc.textSplit, 32)
		},
	},
}

func findSpec(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// wordCountJobName is the name cmd/slider-worker registers its wordcount
// job under; jobs travel to workers by name.
const wordCountJobName = "wordcount"

// wordCount must compute what cmd/slider-worker's "wordcount" job
// computes: on wc-ship-dist2 the workers run that one and the oracle and
// the in-process probes run this one.
func wordCount() *mapreduce.Job {
	sum := func(_ string, values []mapreduce.Value) mapreduce.Value {
		var total int64
		for _, v := range values {
			total += v.(int64)
		}
		return total
	}
	return &mapreduce.Job{
		Name:       wordCountJobName,
		Partitions: 4,
		Map: func(rec mapreduce.Record, emit mapreduce.Emit) error {
			for _, w := range strings.Fields(rec.(string)) {
				emit(w, int64(1))
			}
			return nil
		},
		Combine:     sum,
		Reduce:      sum,
		Commutative: true,
	}
}

func textRecords(seed int64, sc scale) []mapreduce.Record {
	text := workload.NewText(workload.TextConfig{
		Seed: seed, LinesPerSplit: sc.textLines, WordsPerLine: 12, Vocabulary: sc.textVocab, ZipfS: 1.2,
	})
	return text.Split(0).Records
}

// burstSchedule returns the records carried by each period of the
// wc-bursty-time stream.
func burstSchedule(seed int64, div int) []int {
	rng := rand.New(rand.NewSource(seed ^ 0x62757273)) // a stream of its own, apart from the corpus
	periods := make([]int, 0, burstPeriods)
	for len(periods) < burstPeriods {
		for _, i := range rng.Perm(len(burstSizes)) {
			periods = append(periods, burstSizes[i]/div)
		}
	}
	// The stream's epoch is its first record, so the first period must
	// have one: swap an empty first period with its successor.
	if periods[0] == 0 {
		periods[0], periods[1] = periods[1], periods[0]
	}
	return periods
}

// workloadData is one workload's generated input: an endless record
// stream (record i is pool[i mod len(pool)]) cut into buckets, the unit
// by which the window slides. A count window's bucket is SlideSplits
// splits; a time window's bucket is one slide period, of any size.
type workloadData struct {
	job             *mapreduce.Job
	pool            []mapreduce.Record
	recordsPerSplit int
	windowBuckets   int
	floatOutput     bool // outputs are float vectors, compared with a tolerance

	// Count windows.
	windowSplits, slideSplits int

	// Time windows: records per period, cycled, and its running sum.
	periods []int
	cum     []int
	slide   time.Duration
	block   int // buckets per schedule block (1 for count windows)
}

func newCountWorkload(job *mapreduce.Job, pool []mapreduce.Record, recordsPerSplit, windowSplits, slideSplits int) *workloadData {
	return &workloadData{
		job: job, pool: pool, recordsPerSplit: recordsPerSplit,
		windowSplits: windowSplits, slideSplits: slideSplits,
		windowBuckets: windowSplits / slideSplits, block: 1,
	}
}

func newTimeWorkload(job *mapreduce.Job, pool []mapreduce.Record, periods []int, recordsPerSplit, windowPeriods int) *workloadData {
	cum := make([]int, len(periods)+1)
	for i, n := range periods {
		cum[i+1] = cum[i] + n
	}
	return &workloadData{
		job: job, pool: pool, recordsPerSplit: recordsPerSplit,
		windowBuckets: windowPeriods, periods: periods, cum: cum,
		slide: time.Second, block: len(burstSizes),
	}
}

func (w *workloadData) timed() bool { return w.periods != nil }

func (w *workloadData) record(i int) mapreduce.Record { return w.pool[i%len(w.pool)] }

// start returns the stream index of bucket k's first record.
func (w *workloadData) start(k int) int {
	if !w.timed() {
		return k * w.slideSplits * w.recordsPerSplit
	}
	n := len(w.periods)
	return (k/n)*w.cum[n] + w.cum[k%n]
}

func (w *workloadData) bucketLen(k int) int { return w.start(k+1) - w.start(k) }

// splits cuts stream records [lo, hi) into splits the way the stream
// drivers do: RecordsPerSplit records each, the last one shorter.
func (w *workloadData) splits(lo, hi int) []mapreduce.Split {
	var out []mapreduce.Split
	for ; lo < hi; lo += w.recordsPerSplit {
		end := lo + w.recordsPerSplit
		if end > hi {
			end = hi
		}
		recs := make([]mapreduce.Record, 0, end-lo)
		for i := lo; i < end; i++ {
			recs = append(recs, w.record(i))
		}
		out = append(out, mapreduce.Split{ID: fmt.Sprintf("bench-%d", lo), Records: recs})
	}
	return out
}

// bucketSplits returns bucket k as splits. A time window never lets a
// split span two periods, so buckets are cut one at a time.
func (w *workloadData) bucketSplits(k int) []mapreduce.Split {
	return w.splits(w.start(k), w.start(k+1))
}

// windowSplitsOf returns buckets [lo, hi) as splits.
func (w *workloadData) windowSplitsOf(lo, hi int) []mapreduce.Split {
	var out []mapreduce.Split
	for k := lo; k < hi; k++ {
		out = append(out, w.bucketSplits(k)...)
	}
	return out
}

// countConfig and timeConfig build the stream driver configurations.
func (w *workloadData) countConfig() stream.CountConfig {
	return stream.CountConfig{Job: w.job, RecordsPerSplit: w.recordsPerSplit, WindowSplits: w.windowSplits, SlideSplits: w.slideSplits}
}

func (w *workloadData) timeConfig() stream.TimeConfig {
	return stream.TimeConfig{Job: w.job, Window: time.Duration(w.windowBuckets) * w.slide, Slide: w.slide, RecordsPerSplit: w.recordsPerSplit}
}
