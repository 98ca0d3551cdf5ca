package apps

import (
	"math"
	"testing"

	"slider/internal/mapreduce"
	"slider/internal/memo"
	"slider/internal/sliderrt"
	"slider/internal/workload"
)

// integration drives a job through the Slider runtime in every window
// mode and checks each incremental output against recomputation from
// scratch — the end-to-end transparency guarantee, per application.

func approxValue(a, b mapreduce.Value) bool {
	switch x := a.(type) {
	case float64:
		y, ok := b.(float64)
		return ok && math.Abs(x-y) <= 1e-9*math.Max(1, math.Max(math.Abs(x), math.Abs(y)))
	case []float64:
		y, ok := b.([]float64)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if !approxValue(x[i], y[i]) {
				return false
			}
		}
		return true
	default:
		return mapreduce.Fingerprint(a) == mapreduce.Fingerprint(b)
	}
}

func assertSameOutput(t *testing.T, label string, got, want mapreduce.Output) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d keys, want %d", label, len(got), len(want))
	}
	for k, wv := range want {
		gv, ok := got[k]
		if !ok {
			t.Fatalf("%s: missing key %q", label, k)
		}
		if !approxValue(gv, wv) {
			t.Fatalf("%s: key %q: %v != %v", label, k, gv, wv)
		}
	}
}

// driveApp runs initial + three slides in the given mode.
func driveApp(t *testing.T, name string, job *mapreduce.Job, gen func(lo, hi int) []mapreduce.Split, mode sliderrt.Mode) {
	t.Helper()
	memoCfg := memo.DefaultConfig()
	memoCfg.Nodes = 4
	cfg := sliderrt.Config{Mode: mode, Memo: memoCfg}
	if mode == sliderrt.Fixed {
		cfg.BucketSplits = 2
		cfg.WindowBuckets = 4
	}
	rt, err := sliderrt.New(job, cfg)
	if err != nil {
		t.Fatalf("%s/%v: %v", name, mode, err)
	}
	window := gen(0, 8)
	// Every application must honour the combiner and reducer contract the
	// runtime's scratch slices rely on, on the data it is about to run.
	// K-Means' float sums inside a struct are compared with CheckJob's float
	// tolerance, like a bare float.
	if err := mapreduce.CheckJob(job, window); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	res, err := rt.Initial(window)
	if err != nil {
		t.Fatalf("%s/%v initial: %v", name, mode, err)
	}
	want, err := mapreduce.RunScratch(job, window, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameOutput(t, name+"/initial", res.Output, want)

	next := 8
	for slide := 0; slide < 3; slide++ {
		drop := 2
		if mode == sliderrt.Append {
			drop = 0
		}
		add := gen(next, next+2)
		next += 2
		res, err := rt.Advance(drop, add)
		if err != nil {
			t.Fatalf("%s/%v slide %d: %v", name, mode, slide, err)
		}
		window = append(window[drop:], add...)
		want, err := mapreduce.RunScratch(job, window, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		assertSameOutput(t, name+"/slide", res.Output, want)
	}
}

func TestAllMicroAppsAllModes(t *testing.T) {
	text := workload.NewText(workload.TextConfig{
		Seed: 5, LinesPerSplit: 10, WordsPerLine: 8, Vocabulary: 300, ZipfS: 1.2,
	})
	points := workload.NewPoints(workload.PointsConfig{Seed: 5, PointsPerSplit: 40, Dim: 12})
	cases := []struct {
		name string
		job  func() *mapreduce.Job
		gen  func(lo, hi int) []mapreduce.Split
	}{
		{"HCT", func() *mapreduce.Job { return HCT(3) }, text.Range},
		{"Matrix", func() *mapreduce.Job { return Matrix(3) }, text.Range},
		{"subStr", func() *mapreduce.Job { return SubStr(3) }, text.Range},
		{"K-Means", func() *mapreduce.Job { return KMeans(3, 6, 12, 9) }, points.Range},
		{"KNN", func() *mapreduce.Job { return KNN(3, 5, points.QueryPoints(5)) }, points.Range},
	}
	for _, c := range cases {
		for _, mode := range []sliderrt.Mode{sliderrt.Append, sliderrt.Fixed, sliderrt.Variable} {
			driveApp(t, c.name, c.job(), c.gen, mode)
		}
	}
}

func TestCaseStudyAppsIncremental(t *testing.T) {
	tw := workload.NewTwitter(workload.TwitterConfig{
		Seed: 6, Users: 300, MeanFollows: 6, URLs: 40, TweetsPerSplit: 60,
	})
	driveApp(t, "twitter", TwitterPropagation(3, tw.Graph()), tw.Range, sliderrt.Append)

	gl := workload.NewGlasnost(workload.GlasnostConfig{
		Seed: 6, Servers: 4, RunsPerSplit: 40, SplitsPerMonth: 2,
	})
	glGen := func(lo, hi int) []mapreduce.Split {
		out := make([]mapreduce.Split, 0, hi-lo)
		for i := lo; i < hi; i++ {
			out = append(out, gl.Split(i))
		}
		return out
	}
	driveApp(t, "glasnost", GlasnostMonitor(3), glGen, sliderrt.Variable)

	ns := workload.NewNetSession(workload.NetSessionConfig{
		Seed: 6, Clients: 500, LogsPerSplit: 10, EntriesPerLog: 50, TamperRate: 0.1,
	})
	nsGen := func(lo, hi int) []mapreduce.Split {
		out := make([]mapreduce.Split, 0, hi-lo)
		for i := lo; i < hi; i++ {
			out = append(out, ns.Split(i, i/4))
		}
		return out
	}
	driveApp(t, "netsession", NetSessionAudit(3, 16), nsGen, sliderrt.Variable)
}
