package bench

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"slider/internal/apps"
	"slider/internal/mapreduce"
	"slider/internal/pig"
	"slider/internal/workload"
)

// TestEveryJobMeetsCheckJob runs mapreduce.CheckJob over every job of
// internal/apps and every stage job of the Figure 10 queries, each on
// samples of the workload it runs on: the combiner laws, the slice rules
// and, where a job declares a Reduce (K-Means, Glasnost, Twitter), that the
// Reduce lowers the fold.
func TestEveryJobMeetsCheckJob(t *testing.T) {
	s := Quick()
	text := workload.NewText(s.Text)
	type sampled struct {
		job     *mapreduce.Job
		samples []mapreduce.Split
	}
	var jobs []sampled
	for _, app := range MicroApps(s) {
		jobs = append(jobs, sampled{app.NewJob(), app.Gen(0, 3)})
	}
	jobs = append(jobs,
		sampled{apps.WordCount(s.Partitions), text.Range(0, 3)},
		sampled{apps.StreamWordCount(s.Partitions), text.Range(0, 3)})

	tw := workload.NewTwitter(workload.TwitterConfig{Seed: 42, Users: 200, MeanFollows: 6, URLs: 20, TweetsPerSplit: 60})
	jobs = append(jobs, sampled{apps.TwitterPropagation(s.Partitions, tw.Graph()), tw.Range(0, 3)})
	glasnost := workload.NewGlasnost(workload.GlasnostConfig{Seed: 42, Servers: 4, RunsPerSplit: 60, SplitsPerMonth: 4})
	net := workload.NewNetSession(workload.NetSessionConfig{Seed: 42, Clients: 200, LogsPerSplit: 20, EntriesPerLog: 20, TamperRate: 0.1})
	var rtt, logs []mapreduce.Split
	for i := 0; i < 3; i++ {
		rtt = append(rtt, glasnost.Split(i))
		logs = append(logs, net.Split(i, 0))
	}
	jobs = append(jobs,
		sampled{apps.GlasnostMonitor(s.Partitions), rtt},
		sampled{apps.NetSessionAudit(s.Partitions, 8), logs})

	// K-Means and KNN over points with a coordinate of +Inf, -Inf or NaN.
	for _, app := range MicroApps(s) {
		if app.Name != "K-Means" && app.Name != "KNN" {
			continue
		}
		for _, special := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
			jobs = append(jobs, sampled{app.NewJob(), nonFinitePoints(app.Gen(0, 3), special)})
		}
	}

	for _, j := range jobs {
		if err := mapreduce.CheckJob(j.job, j.samples); err != nil {
			t.Errorf("%s: %v", j.job.Name, err)
		}
	}

	// Figure 10's stages, over three windows of its workload.
	gen := workload.NewPigMix(workload.PigMixConfig{Seed: 42, Users: 400, Pages: 150, RowsPerSplit: s.Text.LinesPerSplit * 6})
	tblSchema, tblRows := gen.UserTable()
	table := &pig.Table{Schema: tblSchema}
	for _, r := range tblRows {
		table.Rows = append(table.Rows, pig.Row(r))
	}
	for _, q := range pigmixQueries {
		windows := make([][]mapreduce.Split, 3)
		for w := range windows {
			windows[w] = gen.Range(w*s.WindowSplits/2, w*s.WindowSplits/2+s.WindowSplits)
		}
		checkPigStages(t, q.name, q.src, map[string]*pig.Table{"users": table}, s.Partitions, windows)
	}

	// Edge values, generated: a key column that mixes numbers and strings
	// (int64(3) beside "3", 9.5 beside "10"), keys that repeat with equal
	// and with different rows, groups the FILTER empties in a split or in
	// a whole window, splits with no row, and ORDER … LIMIT n for n = 1, 2
	// and 3, so that the triples CheckJob combines — one row, two, three —
	// hold n−1, n and n+1 rows.
	edgeQueries := []struct{ name, src string }{
		{"edge group", `
raw = LOAD 'edge' AS (k, v);
kept = FILTER raw BY v > 0;
g = GROUP kept BY k;
agg = FOREACH g GENERATE group AS k, COUNT(*) AS n, SUM(v) AS total, MIN(v) AS lo, MAX(v) AS hi;
ordered = ORDER agg BY total DESC;
STORE ordered INTO 'out';
`},
		{"edge distinct", `
raw = LOAD 'edge' AS (k, v);
uniq = DISTINCT raw;
ordered = ORDER uniq BY k;
STORE ordered INTO 'out';
`},
	}
	for _, n := range []int{1, 2, 3} {
		for _, dir := range []string{"", " DESC"} {
			edgeQueries = append(edgeQueries, struct{ name, src string }{fmt.Sprintf("edge order%s limit %d", dir, n), fmt.Sprintf(`
raw = LOAD 'edge' AS (k, v);
ordered = ORDER raw BY k%s;
top = LIMIT ordered %d;
STORE top INTO 'out';
`, dir, n)})
		}
	}
	for _, q := range edgeQueries {
		checkPigStages(t, q.name, q.src, nil, s.Partitions, pigEdgeWindows())
	}
}

// nonFinitePoints returns splits with three points in front of the first
// split's, copies of its first three with special at one coordinate each —
// a different one a point — so that the first values CheckJob picks for
// the keys they reach are theirs.
func nonFinitePoints(splits []mapreduce.Split, special float64) []mapreduce.Split {
	out := slices.Clone(splits)
	first := out[0].Records
	recs := make([]mapreduce.Record, 0, len(first)+3)
	for i := 0; i < 3; i++ {
		pt := slices.Clone(first[i].([]float64))
		pt[i] = special
		recs = append(recs, pt)
	}
	out[0] = mapreduce.Split{ID: out[0].ID, Records: append(recs, first...)}
	return out
}

// pigEdgeWindows generates three windows of (k, v) rows with pig's edge
// values: keys that mix int64, float64 and strings, some of which print
// alike (int64(3) and "3"), every key repeated, rows repeated exactly (an
// equal sort key and an equal row), values v ≤ 0 that a FILTER drops — all
// of one key's in some splits, all of the last window's — and splits with
// no row at all.
func pigEdgeWindows() [][]mapreduce.Split {
	keys := []any{int64(3), "3", 9.5, "10", int64(10), "", "a", int64(-1), 2.0}
	windows := make([][]mapreduce.Split, 3)
	for w := range windows {
		for sp := 0; sp < 4; sp++ {
			split := mapreduce.Split{ID: fmt.Sprintf("edge/%d/%d", w, sp)}
			if sp == 3 {
				windows[w] = append(windows[w], split) // a split with no row
				continue
			}
			for i, k := range keys {
				v := int64(1 + (i+sp+w)%4)
				switch {
				case w == 2:
					v = -v // the FILTER empties the whole window
				case i%3 == sp:
					v = 0 // and one key in three of this split
				}
				row := pig.Row{k, v}
				split.Records = append(split.Records, row)
				if i%2 == 0 {
					split.Records = append(split.Records, pig.Row{k, v}) // an equal row
				}
			}
			windows[w] = append(windows[w], split)
		}
	}
	return windows
}

// checkPigStages compiles a pig script and runs CheckJob over every stage
// job, each on what the stage before it outputs over the windows, as a
// pipeline hands it on: a later stage's keys repeat across windows, where
// one window's output holds each key once.
func checkPigStages(t *testing.T, name, src string, tables map[string]*pig.Table, partitions int, windows [][]mapreduce.Split) {
	t.Helper()
	script, err := pig.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := pig.Compile(script, tables, partitions)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range plan.Stages {
		var samples []mapreduce.Split
		for _, splits := range windows {
			samples = append(samples, splits...)
		}
		if err := mapreduce.CheckJob(st.Job, samples); err != nil {
			t.Errorf("%s, stage %d (%s): %v", name, i, st.Job.Name, err)
		}
		for w, splits := range windows {
			out, err := mapreduce.RunScratch(st.Job, splits, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			rows, err := st.Finalize(out)
			if err != nil {
				t.Fatal(err)
			}
			windows[w] = nil
			for lo := 0; lo < len(rows); lo += 4 {
				split := mapreduce.Split{ID: fmt.Sprintf("%s/%d/%d/%d", name, i, w, lo)}
				for _, r := range rows[lo:min(lo+4, len(rows))] {
					split.Records = append(split.Records, r)
				}
				windows[w] = append(windows[w], split)
			}
		}
	}
}
