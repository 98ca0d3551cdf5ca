package bench

import (
	"fmt"

	"slider/internal/apps"
	"slider/internal/mapreduce"
	"slider/internal/sliderrt"
	"slider/internal/workload"
)

// Table4 reproduces the Twitter information-propagation case study
// (§8.1, Table 4): an initial historical interval followed by weekly
// appends of roughly 5%, in append-only mode.
func Table4(s Scale) ([]CaseStudyRow, string, error) {
	tw := workload.NewTwitter(workload.TwitterConfig{
		Seed: 42, Users: 1500, MeanFollows: 10, URLs: 300,
		TweetsPerSplit: 200,
	})
	job := apps.TwitterPropagation(s.Partitions, tw.Graph())
	newJob := func() *mapreduce.Job { return apps.TwitterPropagation(s.Partitions, tw.Graph()) }

	initialSplits := s.WindowSplits * 2 // the long Mar'06–Jun'09 interval
	weekly := initialSplits / 20        // ≈5% appends
	if weekly < 1 {
		weekly = 1
	}
	rt, err := sliderrt.New(job, modeConfig(sliderrt.Append, 0, 0, s.Cluster.Nodes))
	if err != nil {
		return nil, "", err
	}
	window := tw.Range(0, initialSplits)
	if _, err := rt.Initial(window); err != nil {
		return nil, "", err
	}
	var rows []CaseStudyRow
	next := initialSplits
	for week := 1; week <= 4; week++ {
		add := tw.Range(next, next+weekly)
		next += weekly
		row, err := caseStudyAdvance(s, rt, newJob(), &window, 0, add,
			fmt.Sprintf("Jul'09 wk%d", week))
		if err != nil {
			return nil, "", err
		}
		rows = append(rows, row)
	}
	return rows, formatCaseStudy("=== Table 4: Twitter information propagation (append-only) ===", rows), nil
}

// Table3 reproduces the Glasnost monitoring case study (§8.2, Table 3):
// a 3-month window of measurement data sliding monthly across 11 months,
// with month-to-month volume variation.
func Table3(s Scale) ([]CaseStudyRow, string, error) {
	gen := workload.NewGlasnost(workload.GlasnostConfig{
		Seed: 42, Servers: 8,
		RunsPerSplit:   s.Text.LinesPerSplit * 20,
		SplitsPerMonth: maxInt(4, s.WindowSplits/8),
	})
	newJob := func() *mapreduce.Job { return apps.GlasnostMonitor(s.Partitions) }

	// Window = months {0,1,2}; slide by one month, eight times
	// (Jan–Mar … Sep–Nov, as in the paper).
	rt, err := sliderrt.New(newJob(), modeConfig(sliderrt.Variable, 0, 0, s.Cluster.Nodes))
	if err != nil {
		return nil, "", err
	}
	var window []mapreduce.Split
	for m := 0; m < 3; m++ {
		window = append(window, gen.MonthSplitsVar(m)...)
	}
	if _, err := rt.Initial(window); err != nil {
		return nil, "", err
	}
	months := []string{"Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov"}
	var rows []CaseStudyRow
	for slide := 0; slide < 8; slide++ {
		drop := len(gen.MonthSplitsVar(slide))
		add := gen.MonthSplitsVar(slide + 3)
		label := fmt.Sprintf("%s-%s", months[slide+1], months[slide+3])
		row, err := caseStudyAdvance(s, rt, newJob(), &window, drop, add, label)
		if err != nil {
			return nil, "", err
		}
		rows = append(rows, row)
	}
	return rows, formatCaseStudy("=== Table 3: Glasnost monitoring (3-month window, monthly slides) ===", rows), nil
}

// Table5 reproduces the Akamai NetSession accountability case study
// (§8.3, Table 5): a 4-week window of client logs audited weekly, where
// the 5th week's upload availability varies from 100% down to 75% — a
// variable-width window.
func Table5(s Scale) ([]CaseStudyRow, string, error) {
	gen := workload.NewNetSession(workload.NetSessionConfig{
		Seed: 42, Clients: 4000,
		LogsPerSplit:  20,
		EntriesPerLog: 150,
		TamperRate:    0.02,
	})
	newJob := func() *mapreduce.Job { return apps.NetSessionAudit(s.Partitions, 64) }
	fullSplits := maxInt(2, s.WindowSplits/5)

	var rows []CaseStudyRow
	for _, pct := range []int{100, 95, 90, 85, 80, 75} {
		rt, err := sliderrt.New(newJob(), modeConfig(sliderrt.Variable, 0, 0, s.Cluster.Nodes))
		if err != nil {
			return nil, "", err
		}
		// Four full weeks in the window.
		var window []mapreduce.Split
		idx := 0
		for week := 1; week <= 4; week++ {
			ws := gen.WeekSplits(idx, week, fullSplits, 1.0)
			idx += len(ws)
			window = append(window, ws...)
		}
		if _, err := rt.Initial(window); err != nil {
			return nil, "", err
		}
		// Slide: drop week 1, add week 5 at the given upload rate.
		add := gen.WeekSplits(idx, 5, fullSplits, float64(pct)/100)
		row, err := caseStudyAdvance(s, rt, newJob(), &window, fullSplits, add,
			fmt.Sprintf("%d%% online", pct))
		if err != nil {
			return nil, "", err
		}
		rows = append(rows, row)
	}
	return rows, formatCaseStudy("=== Table 5: NetSession log audits (variable-width window) ===", rows), nil
}
