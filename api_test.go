package slider_test

import (
	"strconv"
	"strings"
	"testing"

	"slider"
)

// sumValues is the combiner/reducer of the API tests.
func sumValues(_ string, values []slider.Value) slider.Value {
	var total int64
	for _, v := range values {
		total += v.(int64)
	}
	return total
}

func apiJob() *slider.Job {
	return &slider.Job{
		Name:       "wordcount",
		Partitions: 2,
		Map: func(rec slider.Record, emit slider.Emit) error {
			for _, w := range strings.Fields(rec.(string)) {
				emit(w, int64(1))
			}
			return nil
		},
		Combine:     sumValues,
		Reduce:      sumValues,
		Commutative: true,
	}
}

func textSplit(id int, text string) slider.Split {
	return slider.Split{ID: "s" + strconv.Itoa(id), Records: []slider.Record{text}}
}

func TestPublicAPIEndToEnd(t *testing.T) {
	rt, err := slider.New(apiJob(), slider.Config{
		Mode:          slider.Fixed,
		BucketSplits:  1,
		WindowBuckets: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.Initial([]slider.Split{
		textSplit(0, "a b"),
		textSplit(1, "b c"),
		textSplit(2, "c d"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output["b"].(int64) != 2 || res.Output["d"].(int64) != 1 {
		t.Fatalf("initial output = %v", res.Output)
	}
	res, err = rt.Advance(1, []slider.Split{textSplit(3, "d d")})
	if err != nil {
		t.Fatal(err)
	}
	// Window is now {b c, c d, d d}.
	if _, ok := res.Output["a"]; ok {
		t.Fatal("dropped split still visible")
	}
	if res.Output["d"].(int64) != 3 {
		t.Fatalf("d = %v", res.Output["d"])
	}

	// The simulated cluster turns the run's tasks into a makespan.
	sim := slider.Simulate(slider.DefaultClusterConfig(), res.Report, slider.HybridPolicy)
	if sim.Makespan <= 0 {
		t.Fatal("no makespan")
	}
	baseline := slider.Simulate(slider.DefaultClusterConfig(), res.Report, slider.BaselinePolicy)
	if baseline.Makespan <= 0 {
		t.Fatal("no baseline makespan")
	}
}

func TestPublicAPIScratchAgreement(t *testing.T) {
	window := []slider.Split{
		textSplit(0, "x y"),
		textSplit(1, "y z z"),
	}
	out, err := slider.RunScratch(apiJob(), window, 0, slider.NewRecorder())
	if err != nil {
		t.Fatal(err)
	}
	if out["z"].(int64) != 2 {
		t.Fatalf("out = %v", out)
	}
}

func TestPublicAPIQueryPipeline(t *testing.T) {
	script, err := slider.ParseQuery(`
ev = LOAD 'events' AS (user, n);
g = GROUP ev BY user;
agg = FOREACH g GENERATE group AS user, SUM(n) AS total;
o = ORDER agg BY total DESC;
STORE o INTO 'out';
`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := slider.CompileQuery(script, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := slider.NewPipeline(plan, slider.PipelineConfig{Config: slider.Config{Mode: slider.Append}})
	if err != nil {
		t.Fatal(err)
	}
	mkSplit := func(id int, rows ...slider.Row) slider.Split {
		records := make([]slider.Record, len(rows))
		for i, r := range rows {
			records[i] = r
		}
		return slider.Split{ID: "q" + strconv.Itoa(id), Records: records}
	}
	res, err := pl.Initial([]slider.Split{
		mkSplit(0, slider.Row{"alice", 2.0}, slider.Row{"bob", 1.0}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0] != "alice" {
		t.Fatalf("rows = %v", res.Rows)
	}
	res, err = pl.Advance(0, []slider.Split{
		mkSplit(1, slider.Row{"bob", 5.0}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != "bob" || res.Rows[0][1].(float64) != 6 {
		t.Fatalf("rows after append = %v", res.Rows)
	}

	// Scratch agreement through the public API.
	want, _, err := slider.RunQueryScratch(plan, []slider.Split{
		mkSplit(0, slider.Row{"alice", 2.0}, slider.Row{"bob", 1.0}),
		mkSplit(1, slider.Row{"bob", 5.0}),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(res.Rows) {
		t.Fatalf("scratch rows = %v", want)
	}
}

func TestPublicAPIStrawmanBackend(t *testing.T) {
	backend, err := slider.ParseKind("strawman")
	if err != nil || backend != slider.BackendStrawman {
		t.Fatalf("ParseKind = %v, %v", backend, err)
	}
	rt, err := slider.New(apiJob(), slider.Config{Mode: slider.Variable, Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Initial([]slider.Split{textSplit(0, "a"), textSplit(1, "b")}); err != nil {
		t.Fatal(err)
	}
	res, err := rt.Advance(1, []slider.Split{textSplit(2, "c")})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Output["a"]; ok {
		t.Fatal("strawman kept a dropped split")
	}
}
