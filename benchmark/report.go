package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// manifest is BENCHMARK.json, the one place that declares the workloads
// and every metric's unit, direction and bound. The code emits values by
// name; a name the manifest lacks, or one the code never emits, fails the
// run and the tier-1 test.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may get worse by
}

func loadManifest(root string) (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

func (m *manifest) why(workload string) string {
	for _, w := range m.Workloads {
		if w.Name == workload {
			return w.Why
		}
	}
	return ""
}

// sample is one measured value and the number of observations behind it.
type sample struct {
	name  string
	value float64
	n     int
}

type samples struct{ list []sample }

func (s *samples) add(name string, value float64, n int) {
	s.list = append(s.list, sample{name, value, n})
}

// document is the benchmark's one output schema.
type document struct {
	Env       environment      `json:"env"`
	Workloads []workloadReport `json:"workloads"`
}

type environment struct {
	Commit     string  `json:"commit"`
	Go         string  `json:"go"`
	NumCPU     int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"measured_seconds"`
}

// hostState says how the host treated a run's stream phase: what the
// reference cost there (referenceMs on the reference host) and how much CPU
// time the program got per second of wall time inside the slides (below 1:
// the host ran somebody else; above 1: threads ran side by side).
type hostState struct {
	ReferenceMs float64 `json:"reference_ms"`
	CPUPerWall  float64 `json:"cpu_per_wall"`
}

type workloadReport struct {
	Name      string         `json:"name"`
	Why       string         `json:"why"`
	Host      hostState      `json:"host"`
	Correct   bool           `json:"correct"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	Errors    []string       `json:"errors,omitempty"`
	Metrics   []metricReport `json:"metrics"`
}

type metricReport struct {
	metricDef
	Layer   string  `json:"layer"` // "end_to_end" or the package the metric belongs to
	Value   float64 `json:"value"`
	Samples int     `json:"samples"`
}

// report matches measured samples against their declarations, in the
// manifest's order.
func report(defs []metricDef, got []sample) ([]metricReport, error) {
	byName := map[string]sample{}
	for _, s := range got {
		if _, dup := byName[s.name]; dup {
			return nil, fmt.Errorf("metric %s measured twice", s.name)
		}
		byName[s.name] = s
	}
	out := make([]metricReport, 0, len(defs))
	for _, def := range defs {
		s, ok := byName[def.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is in BENCHMARK.json but was not measured", def.Name)
		}
		delete(byName, def.Name)
		layer := "end_to_end"
		if def.Bound == nil {
			layer, _, _ = strings.Cut(def.Name, ".")
		}
		out = append(out, metricReport{metricDef: def, Layer: layer, Value: s.value, Samples: s.n})
	}
	for name := range byName {
		return nil, fmt.Errorf("metric %s was measured but is not in BENCHMARK.json", name)
	}
	return out, nil
}

// contractLine is the last line of standard output in single-workload
// mode, in the shape the benchmark contract fixes.
func contractLine(w workloadReport) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{w.Correct, w.Attempted, w.Failed, map[string]value{}}
	for _, m := range w.Metrics {
		line.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	data, _ := json.Marshal(line) // plain numbers, strings and bools cannot fail to encode
	return string(data)
}

func writeTable(out io.Writer, doc *document) {
	e := doc.Env
	fmt.Fprintf(out, "commit %s  %s  nproc %d  GOMAXPROCS %d  seed %d  measured %gs\n", e.Commit, e.Go, e.NumCPU, e.GoMaxProcs, e.Seed, e.Seconds)
	for _, w := range doc.Workloads {
		fmt.Fprintf(out, "\n%s: correct=%v attempted=%d failed=%d  host: reference %.3g ms, %.2f CPU s per wall s\n",
			w.Name, w.Correct, w.Attempted, w.Failed, w.Host.ReferenceMs, w.Host.CPUPerWall)
		for _, msg := range w.Errors {
			fmt.Fprintf(out, "  FAILED: %s\n", msg)
		}
		tw := tabwriter.NewWriter(out, 0, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "  metric\tvalue\tunit\tbetter\tbound\tsamples")
		for _, m := range w.Metrics {
			bound := "-"
			if m.Bound != nil {
				bound = fmt.Sprintf("%g%%", *m.Bound*100)
			}
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\t%s\t%s\t%d\n", m.Name, m.Value, m.Unit, m.Better, bound, m.Samples)
		}
		tw.Flush()
	}
}

func encodeDocument(doc *document) ([]byte, error) {
	data, err := json.MarshalIndent(doc, "", "  ")
	return append(data, '\n'), err
}

// compare sets the end-to-end metrics of two sets of documents (each a
// glob) side by side: per workload and metric the median of each set, the
// spread of each (interquartile range over median) and how much worse the
// second median is. It reports whether any got worse by more than its
// bound.
func compare(out io.Writer, globA, globB string) (beyond bool, err error) {
	a, err := loadValues(globA)
	if err != nil {
		return false, err
	}
	b, err := loadValues(globB)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(out, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian a\tspread a\tmedian b\tspread b\tb/a\tworse by\tbound\t")
	for _, key := range a.order {
		va, vb := a.values[key], b.values[key]
		if len(vb) == 0 {
			continue
		}
		def := a.defs[key]
		ma, mb := median(va), median(vb)
		worse := mb/ma - 1
		if def.Better == "higher" {
			worse = 1 - mb/ma
		}
		flag := ""
		if worse > *def.Bound {
			flag = "BEYOND BOUND"
			beyond = true
		}
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.2f%%\t%.6g\t%.2f%%\t%.4f\t%+.2f%%\t%g%%\t%s\n",
			key.workload, key.metric, ma, spread(va)*100, mb, spread(vb)*100, mb/ma, worse*100, *def.Bound*100, flag)
	}
	return beyond, tw.Flush()
}

type metricKey struct{ workload, metric string }

type valueSet struct {
	order  []metricKey
	values map[metricKey][]float64
	defs   map[metricKey]metricDef
}

func loadValues(glob string) (*valueSet, error) {
	paths, err := filepath.Glob(glob)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no file matches %q", glob)
	}
	vs := &valueSet{values: map[metricKey][]float64{}, defs: map[metricKey]metricDef{}}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var doc document
		if err := json.Unmarshal(data, &doc); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, w := range doc.Workloads {
			for _, m := range w.Metrics {
				if m.Bound == nil {
					continue
				}
				key := metricKey{w.Name, m.Name}
				if _, seen := vs.values[key]; !seen {
					vs.order = append(vs.order, key)
					vs.defs[key] = m.metricDef
				}
				vs.values[key] = append(vs.values[key], m.Value)
			}
		}
	}
	return vs, nil
}

// spread is the distance between the first and third quartile as a share
// of the median, with the quartiles Python's statistics.quantiles(n=4)
// gives (exclusive method), which is what the benchmark's driver computes.
func spread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	quartile := func(k int) float64 {
		pos := float64(k) * float64(len(sorted)+1) / 4 // 1-based position
		lo := int(pos)
		if lo < 1 {
			lo = 1
		}
		if lo > len(sorted)-1 {
			lo = len(sorted) - 1
		}
		return sorted[lo-1] + (pos-float64(lo))*(sorted[lo]-sorted[lo-1])
	}
	return (quartile(3) - quartile(1)) / median(values)
}
