// Command slider-bench regenerates the paper's evaluation tables and
// figures (§7–§8) from the Go reproduction.
//
// Usage:
//
//	slider-bench [-scale quick|full] [-exp all|fig7,table3,...] [-out file] [-json file]
//
// Experiment names: fig7 fig8 fig9 fig10 fig11 fig12 fig13 table1 table2
// table3 table4 table5 ablation. An unknown name is an error.
//
// -json also writes the run it printed as one JSON document: a section
// per selected experiment, holding the values its text showed.
//
// The text's first line and the JSON's "commit" name the commit the run
// was built from (git rev-parse --short HEAD in the working directory), or
// "unknown" outside a git checkout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
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
	jsonPath := fs.String("json", "", "also write the run's machine-readable JSON record to this file")
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
	rev := commit("")
	fmt.Fprintf(out, "slider-bench: scale=%s experiments=%s commit=%s\n\n", *scaleName, *expList, rev)
	rec, err := bench.Run(out, scale, selected)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Fprintf(out, "total benchmark time: %v\n", elapsed.Round(time.Millisecond))
	if *jsonPath != "" {
		rec.Scale, rec.Commit, rec.DurationMs = *scaleName, rev, elapsed.Milliseconds()
		data, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "JSON record written to %s\n", *jsonPath)
	}
	return nil
}

// commit names the commit checked out in dir (the working directory when
// dir is ""), or "unknown" outside a git repository.
func commit(dir string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
