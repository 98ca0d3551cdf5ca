package bench

import (
	"runtime"

	"slider/internal/apps"
	"slider/internal/mapreduce"
	"slider/internal/memo"
	"slider/internal/sliderrt"
	"slider/internal/workload"
)

// The slide loop drives a job through a Fixed-mode window and measures
// what a slide allocates, the run and its upkeep together; the
// allocation pins in payload_test.go hold it. It runs no codec: the
// "map:"/"part:" memo entries hold sizes and placement, not encoded
// payloads, so a slide serialises nothing.

// slideCell is the slide loop's per-slide averages.
type slideCell struct {
	AllocsPerSlide float64
	BytesPerSlide  float64
}

// payloadSlideWindow is the window, in one-split buckets, of the wordcount
// slide loop TestPayloadSlideAllocs pins.
const payloadSlideWindow = 16

// measurePayloadSlides drives the wordcount slide loop (a window of
// `window` one-split buckets, sliding by one) and returns per-slide
// averages.
func measurePayloadSlides(s Scale, window, slides int) (slideCell, error) {
	return measureSlideLoop(apps.WordCount(s.Partitions), workload.NewText(s.Text).Range, 1, window, slides, false)
}

// measureSlideLoop is measurePayloadSlides for any job over the splits gen
// yields, in buckets of bucket splits: a window of window buckets sliding by
// one. A cold loop starts every measured slide in one known state: its map
// tasks run one at a time, and two collections before the slide empty every
// sync.Pool, so that each slide grows exactly one map-task scratch, whatever
// the machine's core count and wherever the collector would have run.
func measureSlideLoop(job *mapreduce.Job, gen func(lo, hi int) []mapreduce.Split, bucket, window, slides int, cold bool) (slideCell, error) {
	var cell slideCell
	cfg := sliderrt.Config{
		Mode:          sliderrt.Fixed,
		BucketSplits:  bucket,
		WindowBuckets: window,
		Memo:          memo.DefaultConfig(),
	}
	if cold {
		cfg.Parallelism = 1
	}
	rt, err := sliderrt.New(job, cfg)
	if err != nil {
		return cell, err
	}
	if _, err := rt.Initial(gen(0, bucket*window)); err != nil {
		return cell, err
	}
	// A slide is the run and its upkeep, as the stream driver does them: the
	// measured slides then hold exactly their own upkeep, not the one the
	// warm-up left pending.
	next := bucket * window
	slide := func() error {
		if _, err := rt.Advance(bucket, gen(next, next+bucket)); err != nil {
			return err
		}
		next += bucket
		return rt.Background()
	}
	for i := 0; i < 2; i++ {
		if err := slide(); err != nil {
			return cell, err
		}
	}

	quiesce()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < slides; i++ {
		if cold {
			runtime.GC()
			runtime.GC()
		}
		if err := slide(); err != nil {
			return cell, err
		}
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	n := float64(slides)
	cell.AllocsPerSlide = float64(after.Mallocs-before.Mallocs) / n
	cell.BytesPerSlide = float64(after.TotalAlloc-before.TotalAlloc) / n
	return cell, nil
}
