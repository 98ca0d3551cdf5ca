// Quickstart: incremental word counting over a fixed-width sliding
// window.
//
// A Slider job is an ordinary, non-incremental MapReduce program — the
// word-count below contains no incremental logic whatsoever. Slider's
// rotating contraction tree (§4.1 of the paper) updates the output when
// the window slides, at a cost logarithmic in the window size.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"strconv"
	"strings"

	"slider"
)

// sum is both the Combiner and the Reducer: associative, commutative.
func sum(_ string, values []slider.Value) slider.Value {
	var total int64
	for _, v := range values {
		total += v.(int64)
	}
	return total
}

func main() {
	job := &slider.Job{
		Name:       "wordcount",
		Partitions: 2,
		Map: func(rec slider.Record, emit slider.Emit) error {
			for _, w := range strings.Fields(rec.(string)) {
				emit(strings.ToLower(w), int64(1))
			}
			return nil
		},
		Combine:     sum,
		Commutative: true, // required for Fixed (rotating-tree) mode
	}

	// A window of 4 buckets × 1 split: every Advance drops the oldest
	// split and appends a new one.
	rt, err := slider.New(job, slider.Config{
		Mode:          slider.Fixed,
		BucketSplits:  1,
		WindowBuckets: 4,
	})
	if err != nil {
		log.Fatal(err)
	}

	mkSplit := func(id int, lines ...string) slider.Split {
		records := make([]slider.Record, len(lines))
		for i, l := range lines {
			records[i] = l
		}
		return slider.Split{ID: "day-" + strconv.Itoa(id), Records: records}
	}

	res, err := rt.Initial([]slider.Split{
		mkSplit(0, "the quick brown fox"),
		mkSplit(1, "jumps over the lazy dog"),
		mkSplit(2, "the dog barks"),
		mkSplit(3, "the fox runs"),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("initial window:")
	show(res.Output, "the", "fox", "dog", "cat")

	// Slide: day 0 falls out, day 4 arrives. Only the new split is
	// mapped; the contraction tree recombines log(N) nodes.
	res, err = rt.Advance(1, []slider.Split{
		mkSplit(4, "the cat and the fox nap"),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nafter sliding out day 0 and in day 4:")
	show(res.Output, "the", "fox", "dog", "cat")
	fmt.Printf("\nincremental update: %d map task(s) run, %d combiner call(s), work %v\n",
		res.Report.Counters.MapTasks, res.Report.Counters.CombineCalls, res.Report.Work)
}

func show(out slider.Output, words ...string) {
	for _, w := range words {
		if v, ok := out[w]; ok {
			fmt.Printf("  %-6s %d\n", w, v)
		} else {
			fmt.Printf("  %-6s -\n", w)
		}
	}
}
