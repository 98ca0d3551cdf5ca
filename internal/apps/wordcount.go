package apps

import (
	"fmt"
	"strings"

	"slider/internal/mapreduce"
)

// lineJob is a job over text lines that counts what words emits; a record
// that is not a string — records arrive off the wire in a worker — is the
// task's error.
func lineJob(name string, partitions int, words func(line string, emit mapreduce.Emit)) *mapreduce.Job {
	return &mapreduce.Job{
		Name:       name,
		Partitions: partitions,
		Map: func(rec mapreduce.Record, emit mapreduce.Emit) error {
			line, ok := rec.(string)
			if !ok {
				return fmt.Errorf("%s: record %T is not a string", name, rec)
			}
			words(line, emit)
			return nil
		},
		Combine:     sumValues,
		Reduce:      sumValues,
		Commutative: true,
	}
}

// WordCount is the "wordcount" job of the demo binaries and the bench
// harness: the count of every whitespace-separated word. Jobs travel to
// workers by name, so the driver and cmd/slider-worker must build it here.
func WordCount(partitions int) *mapreduce.Job {
	return lineJob("wordcount", partitions, func(line string, emit mapreduce.Emit) {
		for _, w := range strings.Fields(line) {
			emit(w, int64(1))
		}
	})
}

// StreamWordCount is cmd/slider-stream's "stream-wordcount": WordCount over
// words lower-cased and stripped of surrounding punctuation.
func StreamWordCount(partitions int) *mapreduce.Job {
	return lineJob("stream-wordcount", partitions, func(line string, emit mapreduce.Emit) {
		for _, w := range strings.Fields(line) {
			emit(strings.ToLower(strings.Trim(w, ".,;:!?\"'()[]")), int64(1))
		}
	})
}
