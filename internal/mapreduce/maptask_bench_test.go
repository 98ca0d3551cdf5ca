package mapreduce_test

import (
	"strings"
	"testing"

	"slider/internal/apps"
	"slider/internal/mapreduce"
	"slider/internal/workload"
)

// BenchmarkRunMapTask is the map kernel over the three split shapes the
// repository's benchmark maps: a wordcount split of 200 twelve-word lines
// drawn Zipf(1.2) from 20 000 words into four partitions (~2 400 emits, ~630
// keys); a wordcount range of four such splits, 800 lines, which is how a
// Fixed window maps a bucket of several splits (~9 600 emits, ~2 500 keys);
// and a K-Means split of 2 000 points of 50 dimensions onto 64 centroids
// (2 000 emits, at most 64 keys, struct values). Splits rotate so that no run
// is one split's cache behaviour.
func BenchmarkRunMapTask(b *testing.B) {
	sum := func(_ string, values []mapreduce.Value) mapreduce.Value {
		var total int64
		for _, v := range values {
			total += v.(int64)
		}
		return total
	}
	wordcount := &mapreduce.Job{
		Name:       "wordcount",
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
	text := workload.NewText(workload.TextConfig{Seed: 7, LinesPerSplit: 200, WordsPerLine: 12, Vocabulary: 20000, ZipfS: 1.2})
	textRange := func(i int) mapreduce.Split {
		r := text.Split(4 * i)
		for j := 1; j < 4; j++ {
			r.Records = append(r.Records, text.Split(4*i+j).Records...)
		}
		return r
	}
	points := workload.NewPoints(workload.PointsConfig{Seed: 7, PointsPerSplit: 2000, Dim: 50})
	for _, bc := range []struct {
		name  string
		job   *mapreduce.Job
		split func(i int) mapreduce.Split
	}{
		{"wordcount", wordcount, text.Split},
		{"wordcount-range", wordcount, textRange},
		{"kmeans", apps.KMeans(4, 64, 50, 7), points.Split},
	} {
		b.Run(bc.name, func(b *testing.B) {
			splits := make([]mapreduce.Split, 16)
			for i := range splits {
				splits[i] = bc.split(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := mapreduce.RunMapTask(bc.job, splits[i%len(splits)])
				if err != nil || res.Bytes == 0 {
					b.Fatalf("map task: %d bytes, err %v", res.Bytes, err)
				}
			}
		})
	}
}
