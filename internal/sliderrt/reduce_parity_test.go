package sliderrt

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"slider/internal/mapreduce"
	"slider/internal/metrics"
)

// paritySplits returns n splits of four lines of six words drawn from a
// vocabulary of 300, skewed towards its front: many keys, few of them
// touched by a one-split slide, so slides patch the output as well as
// refill it.
func paritySplits(id0, n int) []mapreduce.Split {
	rng := rand.New(rand.NewSource(int64(id0) + 5))
	splits := make([]mapreduce.Split, n)
	for i := range splits {
		records := make([]mapreduce.Record, 4)
		for j := range records {
			var sb strings.Builder
			for k := 0; k < 6; k++ {
				sb.WriteString("w" + strconv.Itoa(rng.Intn(1+rng.Intn(300))) + " ")
			}
			records[j] = sb.String()
		}
		splits[i] = mapreduce.Split{ID: "p" + strconv.Itoa(id0+i), Records: records}
	}
	return splits
}

// TestUndeclaredReduceMatchesDeclared runs one job twice, once declaring no
// Reduce and once with Reduce = its Combine, at parallelism 1, 4 and 8, and
// requires the same Output, Changed, Rebuilt, Reduce-call count and
// StateFingerprint after every run — the first, slides that patch the
// output, slides that refill it, from one root (folding, coalescing), from
// the daba kind's two and from the rotating tree's pending splits — across
// a checkpoint and a restore, and from RunScratch's k roots.
func TestUndeclaredReduceMatchesDeclared(t *testing.T) {
	declared := wordCountJob()
	declared.Reduce = declared.Combine
	undeclared := wordCountJob()
	undeclared.Reduce = nil

	type slide struct{ drop, add int }
	// patches says the shape's slides patch the output as well as refill
	// it; the rotating tree's pending splits make every slide a refill.
	shapes := []struct {
		name    string
		cfg     Config
		slides  []slide
		patches bool
	}{
		{"daba", Config{Mode: Fixed, BucketSplits: 1, WindowBuckets: 12},
			[]slide{{1, 1}, {1, 1}, {1, 1}, {1, 1}, {1, 1}, {1, 1}}, true},
		{"rotating split processing", Config{Mode: Fixed, BucketSplits: 2, WindowBuckets: 6, Backend: BackendRotating, SplitProcessing: true},
			[]slide{{2, 2}, {2, 2}, {2, 2}, {2, 2}}, false},
		{"folding", Config{Mode: Variable},
			[]slide{{3, 2}, {1, 1}, {9, 1}, {0, 4}, {2, 3}}, true},
		{"coalescing", Config{Mode: Append},
			[]slide{{0, 1}, {0, 3}, {0, 1}}, true},
	}
	for _, shape := range shapes {
		var first []string // par 1's declared trace, which every run must equal
		for _, par := range []int{1, 4, 8} {
			cfg := shape.cfg
			cfg.Parallelism = par
			cfg.Memo = testMemoConfig()
			rts := [2]*Runtime{}
			for i, job := range []*mapreduce.Job{declared, undeclared} {
				rt, err := New(job, cfg)
				if err != nil {
					t.Fatal(err)
				}
				rts[i] = rt
			}
			var trace [2][]string
			record := func(step string, res [2]*RunResult) {
				for i, r := range res {
					trace[i] = append(trace[i], fmt.Sprintf("%s: rebuilt=%v reduces=%d changed=%v fp=%#x output=%v",
						step, r.Rebuilt, r.Report.Counters.ReduceCalls, r.Changed,
						rts[i].StateFingerprint(), sortedOutput(r.Output)))
				}
			}
			run := func(step string, f func(rt *Runtime) (*RunResult, error)) {
				var res [2]*RunResult
				for i, rt := range rts {
					r, err := f(rt)
					if err != nil {
						t.Fatalf("%s par=%d %s: %v", shape.name, par, step, err)
					}
					res[i] = r
				}
				if !reflect.DeepEqual(res[0].Output, res[1].Output) {
					t.Fatalf("%s par=%d %s: outputs differ", shape.name, par, step)
				}
				record(step, res)
			}
			window := paritySplits(0, 12)
			run("initial", func(rt *Runtime) (*RunResult, error) { return rt.Initial(window) })
			next := len(window)
			for i, s := range shape.slides {
				add := paritySplits(next, s.add)
				next += s.add
				run(fmt.Sprintf("slide %d", i), func(rt *Runtime) (*RunResult, error) { return rt.Advance(s.drop, add) })
				if i == len(shape.slides)/2 {
					for j, job := range []*mapreduce.Job{declared, undeclared} {
						var buf bytes.Buffer
						if err := rts[j].Checkpoint(&buf); err != nil {
							t.Fatal(err)
						}
						restored, err := Restore(job, cfg, &buf)
						if err != nil {
							t.Fatalf("%s par=%d: %v", shape.name, par, err)
						}
						rts[j] = restored
					}
				}
			}
			refill := paritySplits(next, 6) // moves more than half the window
			drop := 6
			if shape.cfg.Mode == Append {
				drop = 0
			}
			run("refill", func(rt *Runtime) (*RunResult, error) { return rt.Advance(drop, refill) })

			if !slices.Equal(trace[0], trace[1]) {
				t.Fatalf("%s par=%d: declared and undeclared Reduce differ:\n%s\nvs\n%s", shape.name, par,
					strings.Join(trace[0], "\n"), strings.Join(trace[1], "\n"))
			}
			if first == nil {
				first = trace[0]
				rebuilt, patched := false, false
				for _, line := range first[1:] {
					rebuilt = rebuilt || strings.Contains(line, "rebuilt=true")
					patched = patched || strings.Contains(line, "rebuilt=false")
				}
				if !rebuilt || patched != shape.patches {
					t.Fatalf("%s: the slides do not both patch and refill the output (patched %v, refilled %v)", shape.name, patched, rebuilt)
				}
			} else if !slices.Equal(first, trace[0]) {
				t.Fatalf("%s: par=%d differs from par=1", shape.name, par)
			}
		}
	}

	// RunScratch joins the map outputs of every split: k roots a partition.
	window := paritySplits(0, 9)
	var outs [2]mapreduce.Output
	var calls [2]int64
	for i, job := range []*mapreduce.Job{declared, undeclared} {
		rec := metrics.NewRecorder()
		out, err := mapreduce.RunScratch(job, window, 4, rec)
		if err != nil {
			t.Fatal(err)
		}
		outs[i], calls[i] = out, rec.Snapshot().Counters.ReduceCalls
	}
	if !maps.Equal(outs[0], outs[1]) || calls[0] != calls[1] || calls[0] != int64(len(outs[0])) {
		t.Fatalf("RunScratch: declared %d keys in %d reduces, undeclared %d keys in %d", len(outs[0]), calls[0], len(outs[1]), calls[1])
	}
}

// sortedOutput renders an output in key order.
func sortedOutput(out mapreduce.Output) string {
	keys := make([]string, 0, len(out))
	for k := range out {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, "%s=%v ", k, out[k])
	}
	return sb.String()
}
