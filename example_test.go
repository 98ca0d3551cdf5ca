package slider_test

import (
	"fmt"
	"strconv"
	"strings"

	"slider"
)

func sum(_ string, values []slider.Value) slider.Value {
	var total int64
	for _, v := range values {
		total += v.(int64)
	}
	return total
}

func lines(id int, text ...string) slider.Split {
	records := make([]slider.Record, len(text))
	for i, l := range text {
		records[i] = l
	}
	return slider.Split{ID: "ex" + strconv.Itoa(id), Records: records}
}

// Example runs a word count over a fixed-width sliding window and slides
// it once: only the new split is mapped, and the contraction tree updates
// the counts incrementally.
func Example() {
	job := &slider.Job{
		Name: "wordcount",
		Map: func(rec slider.Record, emit slider.Emit) error {
			for _, w := range strings.Fields(rec.(string)) {
				emit(w, int64(1))
			}
			return nil
		},
		Combine:     sum,
		Reduce:      sum,
		Commutative: true,
	}
	rt, err := slider.New(job, slider.Config{
		Mode: slider.Fixed, BucketSplits: 1, WindowBuckets: 3,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	res, _ := rt.Initial([]slider.Split{
		lines(0, "go go"),
		lines(1, "go gopher"),
		lines(2, "gopher"),
	})
	fmt.Println("go:", res.Output["go"], "gopher:", res.Output["gopher"])

	res, _ = rt.Advance(1, []slider.Split{lines(3, "gopher gopher")})
	fmt.Println("go:", res.Output["go"], "gopher:", res.Output["gopher"])
	// Output:
	// go: 3 gopher: 2
	// go: 1 gopher: 4
}

// ExampleNew_appendOnly shows the append-only mode: the window grows
// monotonically and every append costs a single combiner pass over the
// delta (coalescing contraction tree).
func ExampleNew_appendOnly() {
	job := &slider.Job{
		Name: "sum",
		Map: func(rec slider.Record, emit slider.Emit) error {
			emit("total", rec.(int64))
			return nil
		},
		Combine: sum,
		Reduce:  sum,
	}
	rt, _ := slider.New(job, slider.Config{Mode: slider.Append})
	ints := func(id int, vs ...int64) slider.Split {
		records := make([]slider.Record, len(vs))
		for i, v := range vs {
			records[i] = v
		}
		return slider.Split{ID: "n" + strconv.Itoa(id), Records: records}
	}
	res, _ := rt.Initial([]slider.Split{ints(0, 1, 2, 3)})
	fmt.Println(res.Output["total"])
	res, _ = rt.Advance(0, []slider.Split{ints(1, 10)})
	fmt.Println(res.Output["total"])
	// Output:
	// 6
	// 16
}

// ExampleParseKind shows the one selector of the structure behind a
// window: Config.Backend, by constant or by the name the daemons' -backend
// flag takes. BackendAuto resolves from the mode; a name the mode cannot
// run is refused when the runtime is built.
func ExampleParseKind() {
	job := &slider.Job{
		Name:    "sum",
		Map:     func(rec slider.Record, emit slider.Emit) error { emit("total", rec.(int64)); return nil },
		Combine: sum,
		Reduce:  sum,
	}
	fmt.Println(slider.Kinds())
	for _, name := range []string{"auto", "randomized-folding", "strawman", "daba"} {
		backend, _ := slider.ParseKind(name)
		rt, err := slider.New(job, slider.Config{Mode: slider.Variable, Backend: backend})
		if err != nil {
			fmt.Println(name, "→", err)
			continue
		}
		fmt.Println(name, "→", rt.Backend())
	}
	// Output:
	// [daba rotating coalescing folding randomized-folding strawman fingertree]
	// auto → folding
	// randomized-folding → randomized-folding
	// strawman → strawman
	// daba → sliderrt: backend incompatible with the window mode, combiner or window options: backend daba does not serve mode V
}

// ExampleParseQuery compiles a Pig-lite script to a MapReduce pipeline
// and prints its plan.
func ExampleParseQuery() {
	script, err := slider.ParseQuery(`
		ev  = LOAD 'events' AS (user, n);
		big = FILTER ev BY n >= 10;
		g   = GROUP big BY user;
		agg = FOREACH g GENERATE group AS user, SUM(n) AS total;
		o   = ORDER agg BY total DESC;
		top = LIMIT o 3;
		STORE top INTO 'out';
	`)
	if err != nil {
		fmt.Println(err)
		return
	}
	plan, err := slider.CompileQuery(script, nil, 2)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Print(plan.Describe())
	// Output:
	// pipeline of 2 MapReduce stage(s), input [user n]:
	//   stage 1: group(user) [filter] → [user total]
	//   stage 2: order(total)+limit(3) → [user total]
	//   store into "out"
}

// ExampleNewCountWindow streams records through an automatically managed
// sliding window.
func ExampleNewCountWindow() {
	job := &slider.Job{
		Name: "count",
		Map: func(rec slider.Record, emit slider.Emit) error {
			emit(rec.(string), int64(1))
			return nil
		},
		Combine:     sum,
		Reduce:      sum,
		Commutative: true,
	}
	cw, _ := slider.NewCountWindow(slider.CountWindowConfig{
		Job:             job,
		RecordsPerSplit: 2,
		WindowSplits:    2,
		SlideSplits:     1,
	}, func(o slider.WindowOutput) error {
		fmt.Printf("window [%d,%d): a=%v\n", o.WindowStart, o.WindowEnd, o.Result.Output["a"])
		return nil
	})
	for i := 0; i < 6; i++ {
		_ = cw.Push("a")
	}
	// Output:
	// window [0,2): a=4
	// window [1,3): a=4
}
