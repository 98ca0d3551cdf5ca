// Checkpointing and crash recovery: a sliding word-count whose driver
// "crashes" mid-stream and resumes from a replicated checkpoint store.
//
// Slider's runtime state (the window bookkeeping plus every contraction
// tree) serializes through Runtime.Checkpoint; slider.Restore rebuilds
// an equivalent runtime that continues the window where it left off.
// The checkpoint store writes replicated, checksummed, atomically-renamed
// files — a corrupted replica falls back to the survivor.
//
// Run with: go run ./examples/checkpoint
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"
	"strings"

	"slider"
	"slider/internal/workload"
)

func wordCount() *slider.Job {
	sum := func(_ string, values []slider.Value) slider.Value {
		var total int64
		for _, v := range values {
			total += v.(int64)
		}
		return total
	}
	return &slider.Job{
		Name:       "wordcount",
		Partitions: 4,
		Map: func(rec slider.Record, emit slider.Emit) error {
			for _, w := range strings.Fields(rec.(string)) {
				emit(w, int64(1))
			}
			return nil
		},
		Combine:     sum,
		Commutative: true,
	}
}

func main() {
	dir, err := os.MkdirTemp("", "slider-checkpoints-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	store, err := slider.NewCheckpointStore(dir, 2)
	if err != nil {
		log.Fatal(err)
	}

	cfg := slider.Config{Mode: slider.Fixed, BucketSplits: 2, WindowBuckets: 8}
	gen := workload.NewText(workload.TextConfig{
		Seed: 9, LinesPerSplit: 50, WordsPerLine: 10, Vocabulary: 800, ZipfS: 1.2,
	})

	// Phase 1: a driver processes the stream and checkpoints each run.
	rt, err := slider.New(wordCount(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := rt.Initial(gen.Range(0, 16)); err != nil {
		log.Fatal(err)
	}
	next := 16
	for slide := 1; slide <= 3; slide++ {
		res, err := rt.Advance(2, gen.Range(next, next+2))
		if err != nil {
			log.Fatal(err)
		}
		next += 2
		var buf bytes.Buffer
		if err := rt.Checkpoint(&buf); err != nil {
			log.Fatal(err)
		}
		if err := store.Save("latest", buf.Bytes()); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("slide %d: %d distinct words, window [%d..%d), checkpoint saved (%d bytes)\n",
			slide, len(res.Output), rt.WindowLo(), next, buf.Len())
	}

	// The driver "crashes" here; one checkpoint replica is even corrupted
	// on disk.
	fmt.Println("\n-- driver crash; corrupting checkpoint replica 0 --")
	if err := store.CorruptReplica("latest", 0); err != nil {
		log.Fatal(err)
	}

	// Phase 2: a fresh driver restores from the surviving replica and
	// keeps sliding as if nothing happened.
	var frame []byte
	if err := store.Load("latest", &frame); err != nil {
		log.Fatal(err)
	}
	restored, err := slider.Restore(wordCount(), cfg, bytes.NewReader(frame))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("restored: window [%d..), %d live splits\n", restored.WindowLo(), restored.Live())

	res, err := restored.Advance(2, gen.Range(next, next+2))
	if err != nil {
		log.Fatal(err)
	}
	next += 2

	// Prove the restored runtime is equivalent: recompute the same
	// window from scratch and compare a few hot words.
	window := gen.Range(next-16, next)
	scratch, err := slider.RunScratch(wordCount(), window, 0, slider.NewRecorder())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nafter resuming, incremental vs scratch on the same window:")
	shown := 0
	for word, v := range res.Output {
		if shown == 5 {
			break
		}
		if v.(int64) < 20 {
			continue
		}
		fmt.Printf("  %-10s incremental=%-5d scratch=%-5d\n", word, v, scratch[word])
		if v.(int64) != scratch[word].(int64) {
			log.Fatalf("MISMATCH for %q", word)
		}
		shown++
	}
	fmt.Println("outputs agree — recovery preserved the window exactly")
}
