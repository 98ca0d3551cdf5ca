package bench

import (
	"fmt"
	"io"
	"slices"
	"strings"
)

// Experiments names every runnable experiment.
var Experiments = []string{
	"fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
	"table1", "table2", "table3", "table4", "table5",
	"ablation",
}

// Run executes the selected experiments at the given scale, streaming
// formatted results to w, and returns the machine-readable record of the
// same run: each section is built from the values its experiment printed,
// and present only when that experiment was selected (Scale and
// DurationMs are the caller's to fill in). Selecting "all" (or nil) runs
// everything; a name that is not in Experiments fails the call before
// anything runs.
func Run(w io.Writer, s Scale, selected []string) (*ResultsJSON, error) {
	want := make(map[string]bool)
	if len(selected) == 0 {
		want["all"] = true
	}
	for _, e := range selected {
		name := strings.ToLower(strings.TrimSpace(e))
		if name != "all" && !slices.Contains(Experiments, name) {
			return nil, fmt.Errorf("unknown experiment %q (want all or any of: %s)", e, strings.Join(Experiments, " "))
		}
		want[name] = true
	}
	on := func(name string) bool { return want["all"] || want[name] }
	// emit prints one experiment's text, or names it in its error.
	emit := func(what, text string, err error) error {
		if err != nil {
			return fmt.Errorf("%s: %w", what, err)
		}
		fmt.Fprintln(w, text)
		return nil
	}

	appList := MicroApps(s)
	rec := &ResultsJSON{}

	var sweep *Sweep
	if on("fig7") || on("fig8") || on("fig9") || on("fig13") {
		var err error
		if sweep, err = RunSweep(s, appList, Pcts); err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
		for _, c := range sweep.Cells {
			rec.Sweep = append(rec.Sweep, cellJSON(c))
		}
	}
	if on("fig7") {
		fmt.Fprintln(w, Figure7(sweep))
	}
	if on("fig8") {
		fmt.Fprintln(w, Figure8(sweep))
	}
	if on("fig9") {
		fmt.Fprintln(w, Figure9(sweep))
	}
	if on("fig10") {
		queries, text, err := Figure10(s)
		if err := emit("figure 10", text, err); err != nil {
			return nil, err
		}
		for _, q := range queries {
			rec.Queries = append(rec.Queries, QueryJSON{
				Query: q.Query, Mode: q.Mode.String(), Stages: q.Stages,
				WorkSpeedup: q.WorkSpeedup, TimeSpeedup: q.TimeSpeedup,
			})
		}
	}
	if on("fig11") {
		_, text, err := Figure11(s, appList)
		if err := emit("figure 11", text, err); err != nil {
			return nil, err
		}
	}
	if on("fig12") {
		results, text, err := Figure12(s, appList)
		if err := emit("figure 12", text, err); err != nil {
			return nil, err
		}
		rec.Randomized = results
	}
	if on("fig13") {
		fmt.Fprintln(w, Figure13(sweep))
	}
	if on("table1") {
		rows, text, err := Table1(s, appList)
		if err := emit("table 1", text, err); err != nil {
			return nil, err
		}
		rec.Scheduler = make(map[string]float64, len(rows))
		for _, r := range rows {
			rec.Scheduler[r.App] = r.Normalized
		}
	}
	if on("table2") {
		rows, text, err := Table2(s, appList)
		if err := emit("table 2", text, err); err != nil {
			return nil, err
		}
		rec.CacheSavings = make(map[string]float64, len(rows))
		for _, r := range rows {
			rec.CacheSavings[r.App] = r.ReductionPct
		}
	}
	for _, t := range []struct {
		name string
		run  func(Scale) ([]CaseStudyRow, string, error)
	}{{"table3", Table3}, {"table4", Table4}, {"table5", Table5}} {
		if !on(t.name) {
			continue
		}
		rows, text, err := t.run(s)
		if err := emit("table "+t.name[len("table"):], text, err); err != nil {
			return nil, err
		}
		for _, r := range rows {
			rec.CaseStudies = append(rec.CaseStudies, CaseStudyJSON{
				Table: t.name, Label: r.Label, ChangePct: r.ChangePct,
				WorkSpeedup: r.WorkSpeedup, TimeSpeedup: r.TimeSpeedup,
			})
		}
	}
	if on("ablation") {
		matrix := appList[slices.IndexFunc(appList, func(a App) bool { return a.Name == "Matrix" })]
		_, text, err := AblationBucket(s, matrix)
		if err := emit("ablation bucket", text, err); err != nil {
			return nil, err
		}
		_, text, err = AblationRebuild(s, matrix)
		if err := emit("ablation rebuild", text, err); err != nil {
			return nil, err
		}
		results, text, err := AblationWindowScale(s, matrix)
		if err := emit("ablation window scale", text, err); err != nil {
			return nil, err
		}
		rec.WindowScale = results
	}
	return rec, nil
}
