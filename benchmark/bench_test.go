package main

import (
	"context"
	"fmt"
	"math"
	"regexp"
	"strings"
	"testing"

	"slider/internal/dist"
)

// inProcessWorkers stands in for the child processes: dist.Worker values
// on loopback TCP, so the pool, the codec and the sockets are still real.
func inProcessWorkers(n int) (*workers, error) {
	registry := &dist.Registry{}
	if err := registry.Register(wordCountJobName, wordCount); err != nil {
		return nil, err
	}
	ws := &workers{}
	var started []*dist.Worker
	ws.stop = func() {
		for _, w := range started {
			w.Close()
		}
		started = nil
	}
	for i := 0; i < n; i++ {
		w, err := dist.NewWorker(fmt.Sprintf("bench-%d", i), "127.0.0.1:0", registry)
		if err != nil {
			ws.stop()
			return nil, err
		}
		started = append(started, w)
		ws.addrs = append(ws.addrs, w.Addr())
	}
	return ws, nil
}

// testReference is shared by every tiny run: it takes longer to build than
// a tiny run takes, and runs never overlap.
var testReference = newReference()

func tinyBench(t *testing.T) *bench {
	t.Helper()
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	man, err := loadManifest(root)
	if err != nil {
		t.Fatal(err)
	}
	return &bench{
		man: man, seed: 1, sc: tinyScale, traceDir: t.TempDir(), spawn: inProcessWorkers, ref: testReference,
		lim: limits{seconds: 3600, maxSlides: 16, warmup: 8, setups: 1},
	}
}

func TestManifestMatchesContract(t *testing.T) {
	man := tinyBench(t).man
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %v", n, name)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(man.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(man.Workloads), len(specs))
	}
	for i, w := range man.Workloads {
		check(w.Name)
		if w.Name != specs[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, w.Name, specs[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(man.EndToEnd) != 7 || len(man.PerLayer) < 1 || len(man.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(man.EndToEnd), len(man.PerLayer))
	}
	setup := false
	for _, m := range man.EndToEnd {
		check(m.Name)
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound must be in (0, 0.25]", m.Name)
		}
		setup = setup || m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower"
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range man.PerLayer {
		check(m.Name)
		if m.Bound != nil {
			t.Errorf("%s: per-layer metrics have no bound", m.Name)
		}
	}
	if len(man.Paths) != 1 || man.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", man.Paths)
	}
}

// exact lists the metrics that are counts made by the program: two runs of
// one seed over the same slides must agree on them to the last digit.
var exact = regexp.MustCompile(`^(sliderrt\.(merges|combines|nodes_recomputed|map_tasks|reduce_calls)_per_slide|core\.[a-z]+\.merges_per_slide|mapreduce\.(pairs_per_split|reduce_keys)|state_mb)$`)

// TestTinyRuns runs every workload twice at tiny scale, both runs each.
// runWorkload itself fails on a metric name that BENCHMARK.json lacks or
// one that was not measured.
func TestTinyRuns(t *testing.T) {
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			var reps [2]workloadReport
			for i := range reps {
				rep, err := tinyBench(t).runWorkload(context.Background(), s, true, true)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d: %v", rep.Correct, rep.Attempted, rep.Failed, rep.Errors)
				}
				reps[i] = rep
			}
			man := tinyBench(t).man
			if got, want := len(reps[0].Metrics), len(man.EndToEnd)+len(man.PerLayer); got != want {
				t.Fatalf("%d metrics reported, BENCHMARK.json declares %d", got, want)
			}
			checked := 0
			for i, m := range reps[0].Metrics {
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s = %v", m.Name, m.Value)
				}
				if exact.MatchString(m.Name) {
					checked++
					if other := reps[1].Metrics[i]; other.Value != m.Value {
						t.Errorf("%s: %v then %v on the same seed", m.Name, m.Value, other.Value)
					}
				}
			}
			if checked != 12 {
				t.Errorf("%d exact counters compared, want 12", checked)
			}
		})
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	values := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := spread(values); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}
