package dist

import (
	"reflect"
	"testing"

	"slider/internal/apps"
	"slider/internal/mapreduce"
	"slider/internal/persist"
	"slider/internal/workload"
)

// linesJob is wordcount declaring MapLine, over a Map that also counts a
// record that is an int64 under "#": a split of text goes the lines route,
// one holding a number the records route.
func linesJob() *mapreduce.Job {
	job := apps.WordCount(3)
	job.Name = "dist-lines"
	mapText := job.Map
	job.Map = func(rec mapreduce.Record, emit mapreduce.Emit) error {
		if n, ok := rec.(int64); ok {
			emit("#", n)
			return nil
		}
		return mapText(rec, emit)
	}
	return job
}

// TestWorkerMapsTextAsLines: through the worker's handler, over TCP, a job
// that declares MapLine has each text split mapped as lines and a split
// holding another record mapped as records, in one batch, and every result
// is the one RunMapTask gives in process — the pool's own check that a
// result counts its split's records included. A job without MapLine is
// served as before.
func TestWorkerMapsTextAsLines(t *testing.T) {
	_, addrs, reg := newCluster(t, 1)
	if err := reg.Register("dist-lines", linesJob); err != nil {
		t.Fatal(err)
	}
	text := workload.NewText(workload.TextConfig{Seed: 49, LinesPerSplit: 40, WordsPerLine: 12, Vocabulary: 300})
	mixed := append(text.Range(0, 3),
		mapreduce.Split{ID: "numbers", Records: []mapreduce.Record{"one line", int64(5), "two lines"}},
		mapreduce.Split{ID: "empty"},
	)
	for _, c := range []struct {
		job    *mapreduce.Job
		splits []mapreduce.Split
	}{
		{linesJob(), mixed},
		{testJob(), text.Range(0, 3)},
	} {
		pool, err := NewPool(c.job.Name, addrs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pool.RunMap(c.job, c.splits)
		pool.Close()
		if err != nil {
			t.Fatalf("%s: %v", c.job.Name, err)
		}
		for i, res := range got {
			want, err := mapreduce.RunMapTask(c.job, c.splits[i])
			if err != nil {
				t.Fatal(err)
			}
			res.Cost, want.Cost = 0, 0
			if !reflect.DeepEqual(res, want) {
				t.Fatalf("%s, split %s: the worker's result differs from RunMapTask's:\n got %+v\nwant %+v", c.job.Name, c.splits[i].ID, res, want)
			}
		}
	}
}

// TestWorkerTaskAllocs pins what a warm worker task over a text split
// allocates: the split frame decoded as lines into the connection's slice,
// mapped by wordcount's MapLine, and its output framed into a warm buffer
// (AppendTaskOutput). That is the same constant at 10, 800 and 8 000 lines:
// no line is boxed to be mapped, where decoding the split to records boxes
// one a line. Outside -race, which drops pooled scratch.
func TestWorkerTaskAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is nondeterministic under the race detector")
	}
	job := apps.WordCount(4)
	var lines []string
	var buf []byte
	var first float64
	for i, n := range []int{10, 800, 8000} {
		text := workload.NewText(workload.TextConfig{Seed: 7, LinesPerSplit: n, WordsPerLine: 12, Vocabulary: 20000, ZipfS: 1.2})
		frame, err := persist.EncodeSplit(text.Split(0))
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			task, err := decodeTask(job, frame, lines)
			if err != nil {
				t.Fatal(err)
			}
			lines = task.lines
			err = writeMapTask(job, task, func(out *mapreduce.TaskOutput) (err error) {
				buf, err = persist.AppendTaskOutput(buf[:0], out)
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		run() // grows the scratch, the lines and the buffer to this size
		allocs := testing.AllocsPerRun(20, run)
		t.Logf("%d lines: %.1f allocs", n, allocs)
		if i == 0 {
			first = allocs
		}
		if allocs != first {
			t.Errorf("%d lines: a warm worker task makes %.1f allocations, at 10 lines %.1f; want the same", n, allocs, first)
		}
	}
	if first > 4 {
		t.Errorf("a warm worker task makes %.1f allocations, want at most 4", first)
	}
}
