// Command slider-bench regenerates the paper's evaluation tables and
// figures (§7–§8) from the Go reproduction.
//
// Usage:
//
//	slider-bench [-scale quick|full] [-exp all|fig7,table3,...] [-out file]
//
// Experiment names: fig7 fig8 fig9 fig10 fig11 fig12 fig13 table1 table2
// table3 table4 table5 ablation backends outoforder.
//
// -backends-json writes the DABA-vs-rotating head-to-head sweep (the
// "backends" experiment) as a standalone JSON document (BENCH_daba.json).
//
// -ooo-json writes the finger-tree bulk-vs-sequential sweep (the
// "outoforder" experiment) as JSON (BENCH_ooo.json).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"slider/internal/bench"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "slider-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("slider-bench", flag.ContinueOnError)
	scaleName := fs.String("scale", "full", "experiment scale: quick or full")
	expList := fs.String("exp", "all", "comma-separated experiments, or 'all': "+strings.Join(bench.Experiments, " "))
	outPath := fs.String("out", "", "write results to this file instead of stdout")
	jsonPath := fs.String("json", "", "also write a machine-readable JSON record to this file")
	backendsJSON := fs.String("backends-json", "", "write the backends head-to-head sweep as JSON to this file")
	oooJSON := fs.String("ooo-json", "", "write the out-of-order bulk-vs-sequential sweep as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var scale bench.Scale
	switch *scaleName {
	case "quick":
		scale = bench.Quick()
	case "full":
		scale = bench.Full()
	default:
		return fmt.Errorf("unknown scale %q (want quick or full)", *scaleName)
	}

	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = io.MultiWriter(os.Stdout, f)
	}

	var selected []string
	if *expList != "all" {
		selected = strings.Split(*expList, ",")
	}
	start := time.Now()
	fmt.Fprintf(out, "slider-bench: scale=%s experiments=%s\n\n", *scaleName, *expList)
	if err := bench.Run(out, scale, selected); err != nil {
		return err
	}
	fmt.Fprintf(out, "total benchmark time: %v\n", time.Since(start).Round(time.Millisecond))
	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := bench.RunJSON(f, scale, *scaleName); err != nil {
			return err
		}
		fmt.Fprintf(out, "JSON record written to %s\n", *jsonPath)
	}
	if *backendsJSON != "" {
		f, err := os.Create(*backendsJSON)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := bench.WriteBackendsJSON(f, scale); err != nil {
			return err
		}
		fmt.Fprintf(out, "backends JSON written to %s\n", *backendsJSON)
	}
	if *oooJSON != "" {
		f, err := os.Create(*oooJSON)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := bench.WriteOOOJSON(f, scale); err != nil {
			return err
		}
		fmt.Fprintf(out, "out-of-order JSON written to %s\n", *oooJSON)
	}
	return nil
}
