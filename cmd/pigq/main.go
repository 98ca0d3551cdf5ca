// Command pigq runs a Pig-lite query incrementally over a sliding window
// of the synthetic page-views stream, demonstrating the multi-level
// query processing of §5.
//
// Usage:
//
//	pigq [-query file.pig] [-input data.tsv] [-mode A|F|V] [-window N]
//	     [-slides K] [-delta D]
//
// With no -query, a built-in top-regions-by-time query runs over the
// synthetic page-views stream. With -input, rows come from a TSV file
// whose columns match the query's LOAD schema (numeric-looking fields
// are parsed as numbers). After each slide the query's output rows and
// the incremental work savings are printed.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"slider"
	"slider/internal/workload"
)

const defaultQuery = `
raw = LOAD 'events' AS (user, action, page, timespent, revenue);
views = FILTER raw BY action == 'view';
joined = JOIN views BY user, 'users' BY user;
grouped = GROUP joined BY region;
agg = FOREACH grouped GENERATE group AS region, COUNT(*) AS views, SUM(timespent) AS total;
ordered = ORDER agg BY total DESC;
STORE ordered INTO 'top_regions';
`

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "pigq:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("pigq", flag.ContinueOnError)
	queryPath := fs.String("query", "", "path to a Pig-lite script (default: built-in query)")
	inputPath := fs.String("input", "", "TSV file of input rows (default: synthetic page views)")
	modeFlag := fs.String("mode", "F", "window mode: A (append), F (fixed), V (variable)")
	window := fs.Int("window", 20, "window size in splits")
	slides := fs.Int("slides", 3, "number of incremental slides to run")
	delta := fs.Int("delta", 2, "splits added (and, except in A mode, dropped) per slide")
	rowsPerSplit := fs.Int("rows", 100, "rows per split when reading -input")
	explain := fs.Bool("explain", false, "print the compiled pipeline and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	src := defaultQuery
	if *queryPath != "" {
		data, err := os.ReadFile(*queryPath)
		if err != nil {
			return err
		}
		src = string(data)
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

	gen := workload.NewPigMix(workload.DefaultPigMixConfig())
	tblSchema, tblRows := gen.UserTable()
	table := &slider.QueryTable{Schema: tblSchema}
	for _, r := range tblRows {
		table.Rows = append(table.Rows, slider.Row(r))
	}

	script, err := slider.ParseQuery(src)
	if err != nil {
		return err
	}
	plan, err := slider.CompileQuery(script, map[string]*slider.QueryTable{"users": table}, 4)
	if err != nil {
		return err
	}

	if *explain {
		fmt.Print(plan.Describe())
		return nil
	}
	source := gen.Range
	if *inputPath != "" {
		source, err = tsvSource(*inputPath, len(plan.LoadSchema), *rowsPerSplit)
		if err != nil {
			return err
		}
	}
	fmt.Printf("compiled %d MapReduce stage(s):", len(plan.Stages))
	for _, st := range plan.Stages {
		fmt.Printf(" [%s]", st.Name)
	}
	fmt.Println()

	cfg := slider.Config{Mode: mode}
	if mode == slider.Fixed {
		cfg.BucketSplits = *delta
		cfg.WindowBuckets = *window / *delta
		if (*window)%(*delta) != 0 {
			return fmt.Errorf("fixed mode needs window %% delta == 0")
		}
	}
	pl, err := slider.NewPipeline(plan, slider.PipelineConfig{Config: cfg})
	if err != nil {
		return err
	}

	res, err := pl.Initial(source(0, *window))
	if err != nil {
		return err
	}
	printRows("initial window", res)

	next := *window
	for i := 1; i <= *slides; i++ {
		drop := *delta
		if mode == slider.Append {
			drop = 0
		}
		add := source(next, next+*delta)
		next += *delta
		res, err := pl.Advance(drop, add)
		if err != nil {
			return err
		}
		printRows(fmt.Sprintf("slide %d (drop %d, add %d)", i, drop, *delta), res)
		c := res.Report.Counters
		fmt.Printf("  work: %v | map tasks run %d, reused %d | combines %d\n\n",
			res.Report.Work.Round(1000), c.MapTasks, c.MapTasksReused, c.CombineCalls)
	}
	return nil
}

// tsvSource loads a TSV file and serves it as numbered splits. Fields
// that parse as numbers become float64; everything else stays a string.
func tsvSource(path string, columns, rowsPerSplit int) (func(lo, hi int) []slider.Split, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rows []slider.Row
	scanner := bufio.NewScanner(f)
	scanner.Buffer(make([]byte, 1024*1024), 1024*1024)
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := scanner.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		fields := strings.Split(line, "\t")
		if len(fields) != columns {
			return nil, fmt.Errorf("%s:%d: %d fields, query's LOAD schema has %d",
				path, lineNo, len(fields), columns)
		}
		row := make(slider.Row, len(fields))
		for i, field := range fields {
			if n, err := strconv.ParseFloat(field, 64); err == nil {
				row[i] = n
			} else {
				row[i] = field
			}
		}
		rows = append(rows, row)
	}
	if err := scanner.Err(); err != nil {
		return nil, err
	}
	total := (len(rows) + rowsPerSplit - 1) / rowsPerSplit
	return func(lo, hi int) []slider.Split {
		var out []slider.Split
		for i := lo; i < hi; i++ {
			// Past end of file: recycle rows so slides keep flowing,
			// keeping a stream-position-unique split identity.
			idx := i % total
			start := idx * rowsPerSplit
			end := start + rowsPerSplit
			if end > len(rows) {
				end = len(rows)
			}
			records := make([]slider.Record, 0, end-start)
			for _, r := range rows[start:end] {
				records = append(records, r)
			}
			out = append(out, slider.Split{
				ID:      fmt.Sprintf("tsv-%d", i),
				Records: records,
			})
		}
		return out
	}, nil
}

func printRows(label string, res *slider.PipelineResult) {
	fmt.Printf("%s → %d row(s) %v\n", label, len(res.Rows), res.Schema)
	for i, r := range res.Rows {
		if i == 10 {
			fmt.Printf("  ... (%d more)\n", len(res.Rows)-10)
			break
		}
		fmt.Print("  ")
		for _, v := range r {
			fmt.Printf("%v\t", v)
		}
		fmt.Println()
	}
}
