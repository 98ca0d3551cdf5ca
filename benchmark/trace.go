package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call the benchmark made into a layer. Start and End
// are nanoseconds since the recorder was created; Parent is the index of
// the span that caused this one, -1 for a root; spans of one slide share
// its ID (0 for the probes, which replay outside any slide).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Slide  uint64 `json:"slide"`
}

// recorder keeps spans in memory until the run ends. The names are the
// repo's package names followed by the call, e.g. "mapreduce.RunMap".
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

func (r *recorder) begin(name string, parent int, slide uint64) int {
	r.spans = append(r.spans, span{Name: name, Start: int64(time.Since(r.t0)), Parent: parent, Slide: slide})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) { r.spans[id].End = int64(time.Since(r.t0)) }

// call times fn as one span and returns its duration.
func (r *recorder) call(name string, parent int, fn func()) time.Duration {
	id := r.begin(name, parent, 0)
	fn()
	r.end(id)
	return time.Duration(r.spans[id].End - r.spans[id].Start)
}

// byName returns the durations, in milliseconds, of the spans named name.
func (r *recorder) byName(name string) []float64 {
	var out []float64
	for i := range r.spans {
		if r.spans[i].Name == name {
			out = append(out, float64(r.spans[i].End-r.spans[i].Start)/1e6)
		}
	}
	return out
}

// selfMs sums, per span name, the time spent in the span but in none of
// its children: a layer's own cost.
func (r *recorder) selfMs() map[string]float64 {
	child := make([]int64, len(r.spans))
	for i := range r.spans {
		if p := r.spans[i].Parent; p >= 0 {
			child[p] += r.spans[i].End - r.spans[i].Start
		}
	}
	self := map[string]float64{}
	for i := range r.spans {
		self[r.spans[i].Name] += float64(r.spans[i].End-r.spans[i].Start-child[i]) / 1e6
	}
	return self
}

// traceFile is what a traced run leaves behind.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	SelfMs   map[string]float64 `json:"self_ms"`
	Counts   map[string]int     `json:"counts"`
	Spans    []span             `json:"spans"`
}

func (r *recorder) write(path, workload string, seed int64) error {
	counts := map[string]int{}
	for i := range r.spans {
		counts[r.spans[i].Name]++
	}
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, SelfMs: r.selfMs(), Counts: counts, Spans: r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
