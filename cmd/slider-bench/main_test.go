package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"slider/internal/bench"
)

func TestRunSelectedExperiment(t *testing.T) {
	out := filepath.Join(t.TempDir(), "res.txt")
	if err := run([]string{"-scale", "quick", "-exp", "fig12", "-out", out}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "Figure 12") {
		t.Fatalf("output missing experiment:\n%s", data)
	}
}

func TestRunJSONRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick JSON run")
	}
	jsonPath := filepath.Join(t.TempDir(), "res.json")
	out := filepath.Join(t.TempDir(), "res.txt")
	if err := run([]string{"-scale", "quick", "-exp", "fig12", "-out", out, "-json", jsonPath}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if decoded["scale"] != "quick" {
		t.Fatalf("scale = %v", decoded["scale"])
	}
}

// runRecorded runs slider-bench at quick scale on exp with -out and -json,
// and returns what it printed, the record's top-level fields, and the
// record.
func runRecorded(t *testing.T, exp string) (string, map[string]json.RawMessage, bench.ResultsJSON) {
	t.Helper()
	dir := t.TempDir()
	out, jsonPath := filepath.Join(dir, "res.txt"), filepath.Join(dir, "res.json")
	if err := run([]string{"-scale", "quick", "-exp", exp, "-out", out, "-json", jsonPath}); err != nil {
		t.Fatal(err)
	}
	text, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	var rec bench.ResultsJSON
	if err := json.Unmarshal(data, &fields); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.DurationMs <= 0 {
		t.Fatalf("-exp %s: durationMs = %d", exp, rec.DurationMs)
	}
	return string(text), fields, rec
}

// printedRows returns the rows of the printed table titled title: the
// lines after its column header, up to the first blank line.
func printedRows(t *testing.T, text, title string) []string {
	t.Helper()
	_, rest, ok := strings.Cut(text, title)
	if !ok {
		t.Fatalf("no %q in the output:\n%s", title, text)
	}
	lines := strings.Split(rest, "\n")[2:] // the title line's rest, the column header
	for i, l := range lines {
		if strings.TrimSpace(l) == "" {
			return lines[:i]
		}
	}
	return lines
}

func speedup(v float64) string { return fmt.Sprintf("%.2fx", v) }

// TestJSONRecordIsThePrintedRun: -json records the run the text shows —
// a section only for the experiments selected, holding the numbers that
// were printed, in the order they were printed.
func TestJSONRecordIsThePrintedRun(t *testing.T) {
	t.Run("fig12", func(t *testing.T) {
		_, fields, _ := runRecorded(t, "fig12")
		if _, ok := fields["randomizedFolding"]; !ok {
			t.Fatal("no randomizedFolding section")
		}
		for _, name := range []string{"sweep", "queries", "schedulerNormalized", "cacheReadSavingPct", "caseStudies", "windowScale"} {
			if _, ok := fields[name]; ok {
				t.Errorf("unselected section %s recorded", name)
			}
		}
	})
	t.Run("ablation", func(t *testing.T) {
		text, _, rec := runRecorded(t, "ablation")
		rows := printedRows(t, text, "=== Ablation: speedup vs window size (app Matrix,")
		if len(rec.WindowScale) != len(rows) || len(rows) != 3 {
			t.Fatalf("%d window sizes recorded, %d printed, want 3", len(rec.WindowScale), len(rows))
		}
		for i, r := range rec.WindowScale {
			want := fmt.Sprintf("%d %s %d", r.WindowSplits, speedup(r.WorkSpeedup), r.SliderCombines)
			if got := strings.Join(strings.Fields(rows[i]), " "); got != want {
				t.Errorf("window size %d: recorded %q, printed %q", i, want, got)
			}
		}
	})
	t.Run("table3,table4,table5", func(t *testing.T) {
		text, _, rec := runRecorded(t, "table3,table4,table5")
		var printed []string
		for _, n := range []string{"3", "4", "5"} {
			for _, row := range printedRows(t, text, "=== Table "+n+":") {
				printed = append(printed, "table"+n+" "+strings.Join(strings.Fields(row), " "))
			}
		}
		if len(rec.CaseStudies) != len(printed) {
			t.Fatalf("%d case-study rows recorded, %d printed", len(rec.CaseStudies), len(printed))
		}
		for i, r := range rec.CaseStudies {
			want := fmt.Sprintf("%s %s %.1f%% %s %s", r.Table, r.Label, r.ChangePct, speedup(r.TimeSpeedup), speedup(r.WorkSpeedup))
			if want != printed[i] {
				t.Errorf("row %d: recorded %q, printed %q", i, want, printed[i])
			}
		}
	})
	t.Run("fig10", func(t *testing.T) {
		text, _, rec := runRecorded(t, "fig10")
		rows := printedRows(t, text, "=== Figure 10:")
		if len(rec.Queries) != len(rows) || len(rows) != 9 {
			t.Fatalf("%d query cells recorded, %d printed, want 9", len(rec.Queries), len(rows))
		}
		for i, q := range rec.Queries {
			row := strings.Join(strings.Fields(rows[i]), " ")
			speedups := " " + speedup(q.WorkSpeedup) + " " + speedup(q.TimeSpeedup)
			if !strings.HasPrefix(row, q.Query+" ") || !strings.HasSuffix(row, speedups) {
				t.Errorf("row %d: recorded %s%s, printed %q", i, q.Query, speedups, row)
			}
		}
	})
}

// TestRecordNamesItsCommit: the text's first line and the JSON record
// name the same commit, the one git reports for the working directory
// (this test runs inside the checkout, or outside any, where both say
// "unknown"); a directory outside any git repository reads "unknown".
func TestRecordNamesItsCommit(t *testing.T) {
	text, fields, rec := runRecorded(t, "fig12")
	want := commit("")
	if want == "" || strings.ContainsAny(want, " \n") {
		t.Fatalf("commit() = %q, want one word", want)
	}
	if _, ok := fields["commit"]; !ok || rec.Commit != want {
		t.Fatalf("JSON commit = %q (present %v), want %q", rec.Commit, ok, want)
	}
	first, _, _ := strings.Cut(text, "\n")
	if !strings.HasSuffix(first, " commit="+want) {
		t.Fatalf("header %q does not end in commit=%s", first, want)
	}
	if got := commit(t.TempDir()); got != "unknown" {
		t.Fatalf("commit outside a repository = %q, want unknown", got)
	}
}

func TestRunRejectsBadScale(t *testing.T) {
	if err := run([]string{"-scale", "huge"}); err == nil {
		t.Fatal("bad scale accepted")
	}
}

// TestRunRejectsUnknownExperiment: a name that is not an experiment — a
// typo, or one that has been retired — fails the run and lists the valid
// names, instead of running nothing and succeeding.
func TestRunRejectsUnknownExperiment(t *testing.T) {
	out := filepath.Join(t.TempDir(), "res.txt")
	for _, exp := range []string{"bogus", "fig12,backends"} {
		err := run([]string{"-scale", "quick", "-exp", exp, "-out", out})
		if err == nil {
			t.Fatalf("-exp %s accepted", exp)
		}
		if !strings.Contains(err.Error(), "fig12") || !strings.Contains(err.Error(), "ablation") {
			t.Fatalf("-exp %s: error does not list the experiments: %v", exp, err)
		}
	}
}
