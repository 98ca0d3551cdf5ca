// Incremental data-flow query processing (paper §5): a Pig-lite script
// compiled to a pipeline of MapReduce jobs and executed incrementally
// with multi-level contraction trees.
//
// The query joins a page-view stream against a static user→region table,
// aggregates time-spent per region, and keeps the busiest pages — three
// chained MapReduce stages. Stage 1 runs on a rotating tree; later
// stages reuse their sub-computations through content fingerprints.
//
// Run with: go run ./examples/pigquery
package main

import (
	"fmt"
	"log"

	"slider"
	"slider/internal/workload"
)

const query = `
raw = LOAD 'events' AS (user, action, page, timespent, revenue);
engaged = FILTER raw BY action == 'view' AND timespent > 30;
joined = JOIN engaged BY user, 'users' BY user;
grouped = GROUP joined BY page;
stats = FOREACH grouped GENERATE group AS page, COUNT(*) AS views, AVG(timespent) AS avgtime;
busy = FILTER stats BY views >= 3;
ordered = ORDER busy BY views DESC;
top = LIMIT ordered 8;
STORE top INTO 'busiest_pages';
`

func main() {
	gen := workload.NewPigMix(workload.PigMixConfig{
		Seed: 5, Users: 300, Pages: 120, RowsPerSplit: 400,
	})
	tblSchema, tblRows := gen.UserTable()
	table := &slider.QueryTable{Schema: tblSchema}
	for _, r := range tblRows {
		table.Rows = append(table.Rows, slider.Row(r))
	}

	script, err := slider.ParseQuery(query)
	if err != nil {
		log.Fatal(err)
	}
	plan, err := slider.CompileQuery(script, map[string]*slider.QueryTable{"users": table}, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query compiles to %d pipelined MapReduce job(s):", len(plan.Stages))
	for _, st := range plan.Stages {
		fmt.Printf(" [%s]", st.Name)
	}
	fmt.Println()

	pl, err := slider.NewPipeline(plan, slider.PipelineConfig{
		Config: slider.Config{Mode: slider.Fixed, BucketSplits: 2, WindowBuckets: 10},
	})
	if err != nil {
		log.Fatal(err)
	}

	res, err := pl.Initial(gen.Range(0, 20))
	if err != nil {
		log.Fatal(err)
	}
	printTop("initial window", res)

	next := 20
	for slide := 1; slide <= 3; slide++ {
		res, err = pl.Advance(2, gen.Range(next, next+2))
		if err != nil {
			log.Fatal(err)
		}
		next += 2
		c := res.Report.Counters
		fmt.Printf("\nslide %d: work %v | stage-1 maps %d | later-stage maps run %d, reused %d\n",
			slide, res.Report.Work.Round(1000), res.StageReports[0].Counters.MapTasks,
			c.MapTasks-res.StageReports[0].Counters.MapTasks, c.MapTasksReused)
		printTop(fmt.Sprintf("window after slide %d", slide), res)
	}
}

func printTop(label string, res *slider.PipelineResult) {
	fmt.Printf("%s — busiest pages %v:\n", label, res.Schema)
	for _, row := range res.Rows {
		fmt.Printf("  %-8v views=%-4v avgtime=%.1f\n", row[0], row[1], row[2].(float64))
	}
}
