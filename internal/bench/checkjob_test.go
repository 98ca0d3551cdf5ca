package bench

import (
	"fmt"
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

	for _, j := range jobs {
		if err := mapreduce.CheckJob(j.job, j.samples); err != nil {
			t.Errorf("%s: %v", j.job.Name, err)
		}
	}

	// Figure 10's stages, each on what the stage before it outputs over
	// three windows, as a pipeline hands it on: a later stage's keys repeat
	// across windows, where one window's output holds each key once.
	gen := workload.NewPigMix(workload.PigMixConfig{Seed: 42, Users: 400, Pages: 150, RowsPerSplit: s.Text.LinesPerSplit * 6})
	tblSchema, tblRows := gen.UserTable()
	table := &pig.Table{Schema: tblSchema}
	for _, r := range tblRows {
		table.Rows = append(table.Rows, pig.Row(r))
	}
	for _, q := range pigmixQueries {
		script, err := pig.Parse(q.src)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := pig.Compile(script, map[string]*pig.Table{"users": table}, s.Partitions)
		if err != nil {
			t.Fatal(err)
		}
		windows := make([][]mapreduce.Split, 3)
		for w := range windows {
			windows[w] = gen.Range(w*s.WindowSplits/2, w*s.WindowSplits/2+s.WindowSplits)
		}
		for i, st := range plan.Stages {
			var samples []mapreduce.Split
			for _, splits := range windows {
				samples = append(samples, splits...)
			}
			if err := mapreduce.CheckJob(st.Job, samples); err != nil {
				t.Errorf("%s, stage %d (%s): %v", q.name, i, st.Job.Name, err)
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
					split := mapreduce.Split{ID: fmt.Sprintf("%s/%d/%d/%d", q.name, i, w, lo)}
					for _, r := range rows[lo:min(lo+4, len(rows))] {
						split.Records = append(split.Records, r)
					}
					windows[w] = append(windows[w], split)
				}
			}
		}
	}
}
