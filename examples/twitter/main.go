// Twitter information propagation (paper §8.1): append-only windowing.
//
// The job builds, per URL, the information propagation tree — a user who
// posts a URL after an account they follow posted it is attached under
// the earliest such spreader — and reports Krackhardt-style statistics
// (posts, edges, roots, depth). Each week's tweets are appended to the
// window; the coalescing contraction tree (§4.2) folds them into the
// history with a single combiner pass over the delta.
//
// Run with: go run ./examples/twitter
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"slider"
	"slider/internal/apps"
	"slider/internal/workload"
)

func main() {
	tw := workload.NewTwitter(workload.TwitterConfig{
		Seed: 7, Users: 1200, MeanFollows: 10, URLs: 150, TweetsPerSplit: 250,
	})
	job := apps.TwitterPropagation(4, tw.Graph())

	rt, err := slider.New(job, slider.Config{
		Mode:            slider.Append,
		SplitProcessing: true, // pre-combine in the background between weeks
	})
	if err != nil {
		log.Fatal(err)
	}

	// The long historical interval (the paper's Mar'06–Jun'09 crawl).
	const history = 40
	res, err := rt.Initial(tw.Range(0, history))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("history: %d tweet splits, %d URLs tracked, work %v\n",
		history, len(res.Output), res.Report.Work.Round(1000))

	// A week's background fold runs once its answer is out (rt.Background)
	// and is reported by the next result: each week's line is printed when
	// the next week's result is in, the last week's after one more append.
	const weeks = 4
	next := history
	var update time.Duration
	var top []urlStats
	for week := 1; week <= weeks+1; week++ {
		add := tw.Range(next, next+2) // ~5% of the history per week
		next += 2
		res, err = rt.Advance(0, add)
		if err != nil {
			log.Fatal(err)
		}
		if week > 1 {
			fmt.Printf("week %d appended: update work %v (background %v)\n",
				week-1, update.Round(1000), res.Background.Work.Round(1000))
		}
		if week == weeks {
			top = topURLs(res.Output, 5)
		}
		update = res.Report.Work
		if err := rt.Background(); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Printf("\ntop URLs by propagation edges after week %d:\n", weeks)
	fmt.Printf("%-8s %8s %8s %8s %8s\n", "url", "posts", "edges", "roots", "depth")
	for _, u := range top {
		s := u.stats
		fmt.Printf("%-8s %8d %8d %8d %8d\n", u.url, s.Posts, s.Edges, s.Roots, s.Depth)
	}
}

type urlStats struct {
	url   string
	stats apps.PropStats
}

// topURLs returns the n most widely propagated URLs of a window's output.
func topURLs(out slider.Output, n int) []urlStats {
	var all []urlStats
	for url, v := range out {
		all = append(all, urlStats{url, v.(apps.PropStats)})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].stats.Edges > all[j].stats.Edges })
	return all[:min(n, len(all))]
}
