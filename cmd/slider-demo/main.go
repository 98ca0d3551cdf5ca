// Command slider-demo runs a word-count job over a sliding window of
// synthetic text in any window mode and prints, for every slide, the
// incremental-update cost next to the recompute-from-scratch cost — a
// live demonstration of the paper's headline result.
//
// Usage:
//
//	slider-demo [-mode A|F|V] [-window N] [-delta D] [-slides K] [-split]
//	            [-backend NAME] [-lateness L] [-workers addr1,addr2]
//
// With -workers, the map phase executes on remote slider-worker
// processes serving the "wordcount" job.
package main

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"

	"slider"
	"slider/internal/apps"
	"slider/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "slider-demo:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("slider-demo", flag.ContinueOnError)
	modeFlag := fs.String("mode", "F", "window mode: A (append), F (fixed), V (variable)")
	window := fs.Int("window", 40, "window size in splits")
	delta := fs.Int("delta", 4, "splits per slide")
	slides := fs.Int("slides", 5, "number of incremental slides")
	split := fs.Bool("split", false, "enable split processing (A and F modes)")
	backendName := fs.String("backend", slider.BackendAuto.String(), fmt.Sprintf("aggregation backend: %v, or one of %v", slider.BackendAuto, slider.Kinds()))
	lateness := fs.Int("lateness", 0, "accepted bucket lateness for out-of-order arrivals (F mode; >0 selects the fingertree backend)")
	workerList := fs.String("workers", "", "comma-separated slider-worker addresses for remote maps")
	if err := fs.Parse(args); err != nil {
		return err
	}
	backend, err := slider.ParseKind(*backendName)
	if err != nil {
		return err
	}

	var mode slider.Mode
	switch *modeFlag {
	case "A":
		mode = slider.Append
	case "F":
		mode = slider.Fixed
	case "V":
		mode = slider.Variable
	default:
		return fmt.Errorf("unknown mode %q", *modeFlag)
	}
	cfg := slider.Config{Mode: mode, SplitProcessing: *split, Backend: backend, AllowedLateness: *lateness}
	if *workerList != "" {
		pool, err := slider.NewWorkerPool("wordcount", strings.Split(*workerList, ","))
		if err != nil {
			return err
		}
		defer pool.Close()
		cfg.MapRunner = pool
		fmt.Printf("map phase on %d remote worker(s)\n", pool.LiveWorkers())
	}
	if mode == slider.Fixed {
		if (*window)%(*delta) != 0 {
			return fmt.Errorf("fixed mode needs window %% delta == 0")
		}
		cfg.BucketSplits = *delta
		cfg.WindowBuckets = *window / *delta
	}

	gen := workload.NewText(workload.TextConfig{
		Seed: 1, LinesPerSplit: 200, WordsPerLine: 12, Vocabulary: 5000, ZipfS: 1.2,
	})
	rt, err := slider.New(apps.WordCount(4), cfg)
	if err != nil {
		return err
	}
	windowSplits := gen.Range(0, *window)
	res, err := rt.Initial(windowSplits)
	if err != nil {
		return err
	}
	fmt.Printf("initial run: %d splits, %d distinct words, work=%v\n",
		*window, len(res.Output), res.Report.Work.Round(1000))

	// With -split a slide's background step runs once its answer is out
	// (rt.Background) and is reported by the next result: each slide's line
	// is printed when that result is in, and one more slide runs to report
	// the last one's.
	total := *slides
	if *split {
		total++
	}
	next := *window
	held := ""
	for i := 1; i <= total; i++ {
		drop := *delta
		if mode == slider.Append {
			drop = 0
		}
		add := gen.Range(next, next+*delta)
		next += *delta
		res, err := rt.Advance(drop, add)
		if err != nil {
			return err
		}
		windowSplits = append(windowSplits[drop:], add...)

		rec := slider.NewRecorder()
		want, err := slider.RunScratch(apps.WordCount(4), windowSplits, 0, rec)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(res.Output, want) {
			return fmt.Errorf("slide %d: the incremental output differs from recomputation from scratch", i)
		}
		if held != "" {
			fmt.Printf("%s  (background %v)\n", held, res.Background.Work.Round(1000))
		}
		if i > *slides {
			break
		}
		scratch := rec.Snapshot()
		line := fmt.Sprintf("slide %d: slider work=%-12v scratch work=%-12v speedup=%.1fx",
			i, res.Report.Work.Round(1000), scratch.Work.Round(1000),
			float64(scratch.Work)/float64(res.Report.Work))
		if !*split {
			fmt.Println(line)
			continue
		}
		held = line
		if err := rt.Background(); err != nil {
			return err
		}
	}
	return nil
}
