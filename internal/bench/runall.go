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
// formatted results to w. Selecting "all" (or nil) runs everything; a
// name that is not in Experiments fails the call before anything runs.
func Run(w io.Writer, s Scale, selected []string) error {
	want := make(map[string]bool)
	if len(selected) == 0 {
		want["all"] = true
	}
	for _, e := range selected {
		name := strings.ToLower(strings.TrimSpace(e))
		if name != "all" && !slices.Contains(Experiments, name) {
			return fmt.Errorf("unknown experiment %q (want all or any of: %s)", e, strings.Join(Experiments, " "))
		}
		want[name] = true
	}
	on := func(name string) bool { return want["all"] || want[name] }

	appList := MicroApps(s)

	var sweep *Sweep
	if on("fig7") || on("fig8") || on("fig9") || on("fig13") {
		var err error
		sweep, err = RunSweep(s, appList, Pcts)
		if err != nil {
			return fmt.Errorf("sweep: %w", err)
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
		_, text, err := Figure10(s)
		if err != nil {
			return fmt.Errorf("figure 10: %w", err)
		}
		fmt.Fprintln(w, text)
	}
	if on("fig11") {
		_, text, err := Figure11(s, appList)
		if err != nil {
			return fmt.Errorf("figure 11: %w", err)
		}
		fmt.Fprintln(w, text)
	}
	if on("fig12") {
		_, text, err := Figure12(s, appList)
		if err != nil {
			return fmt.Errorf("figure 12: %w", err)
		}
		fmt.Fprintln(w, text)
	}
	if on("fig13") {
		fmt.Fprintln(w, Figure13(sweep))
	}
	if on("table1") {
		_, text, err := Table1(s, appList)
		if err != nil {
			return fmt.Errorf("table 1: %w", err)
		}
		fmt.Fprintln(w, text)
	}
	if on("table2") {
		_, text, err := Table2(s, appList)
		if err != nil {
			return fmt.Errorf("table 2: %w", err)
		}
		fmt.Fprintln(w, text)
	}
	if on("table3") {
		_, text, err := Table3(s)
		if err != nil {
			return fmt.Errorf("table 3: %w", err)
		}
		fmt.Fprintln(w, text)
	}
	if on("table4") {
		_, text, err := Table4(s)
		if err != nil {
			return fmt.Errorf("table 4: %w", err)
		}
		fmt.Fprintln(w, text)
	}
	if on("table5") {
		_, text, err := Table5(s)
		if err != nil {
			return fmt.Errorf("table 5: %w", err)
		}
		fmt.Fprintln(w, text)
	}
	if on("ablation") {
		for _, app := range appList {
			if app.Name != "Matrix" {
				continue
			}
			_, text, err := AblationBucket(s, app)
			if err != nil {
				return fmt.Errorf("ablation bucket: %w", err)
			}
			fmt.Fprintln(w, text)
			_, text, err = AblationRebuild(s, app)
			if err != nil {
				return fmt.Errorf("ablation rebuild: %w", err)
			}
			fmt.Fprintln(w, text)
			_, text, err = AblationWindowScale(s, app)
			if err != nil {
				return fmt.Errorf("ablation window scale: %w", err)
			}
			fmt.Fprintln(w, text)
		}
	}
	return nil
}
