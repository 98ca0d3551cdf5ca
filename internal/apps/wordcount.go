package apps

import (
	"fmt"
	"strings"

	"slider/internal/mapreduce"
)

// lineJob is a job over text lines that counts what mapLine emits. It
// declares MapLine, so a worker maps a split of lines without boxing one,
// and its Map is MapLine over a record that is a string; any other record —
// records arrive off the wire in a worker — is the task's error. Every count
// is an int64 and Combine is their sum, which the job declares (SumInt64): a
// map task adds each count as it is emitted.
func lineJob(name string, partitions int, mapLine func(line string, emit mapreduce.Emit)) *mapreduce.Job {
	mapText := func(line string, emit mapreduce.Emit) error {
		mapLine(line, emit)
		return nil
	}
	return &mapreduce.Job{
		Name:       name,
		Partitions: partitions,
		Map: func(rec mapreduce.Record, emit mapreduce.Emit) error {
			line, ok := rec.(string)
			if !ok {
				return fmt.Errorf("%s: record %T is not a string", name, rec)
			}
			return mapText(line, emit)
		},
		MapLine:     mapText,
		Combine:     sumValues,
		Commutative: true,
		SumInt64:    true,
	}
}

// WordCount is the "wordcount" job of the demo binaries and the bench
// harness: the count of every whitespace-separated word. Jobs travel to
// workers by name, so the driver and cmd/slider-worker must build it here.
func WordCount(partitions int) *mapreduce.Job {
	return lineJob("wordcount", partitions, func(line string, emit mapreduce.Emit) {
		words(line, func(w string) { emit(w, int64(1)) })
	})
}

// StreamWordCount is cmd/slider-stream's "stream-wordcount": WordCount over
// words lower-cased and stripped of surrounding punctuation. A token of
// punctuation alone ("...", "!!") is no word and is not counted.
func StreamWordCount(partitions int) *mapreduce.Job {
	return lineJob("stream-wordcount", partitions, func(line string, emit mapreduce.Emit) {
		words(line, func(w string) {
			if w = strings.Trim(w, ".,;:!?\"'()[]"); w != "" {
				emit(strings.ToLower(w), int64(1))
			}
		})
	})
}
