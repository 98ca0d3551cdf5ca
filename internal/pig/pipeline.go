package pig

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"slider/internal/core"
	"slider/internal/mapreduce"
	"slider/internal/metrics"
	"slider/internal/sliderrt"
)

// PipelineConfig configures incremental execution of a compiled plan.
type PipelineConfig struct {
	// Config configures the first stage's runtime: window mode, bucket
	// geometry, backend, memoization layer.
	Config sliderrt.Config
}

// pseudoSplitCount is the number of pseudo-splits each stage boundary fans
// its rows into for the next stage, incrementally and from scratch alike.
const pseudoSplitCount = 8

// PipelineResult is the outcome of one pipeline run.
type PipelineResult struct {
	// Rows is the final STORE relation.
	Rows []Row
	// Schema names the output columns.
	Schema Schema
	// Report aggregates foreground work across every stage.
	Report metrics.Report
	// Background is the first stage's upkeep that ran since the previous
	// result (sliderrt.RunResult.Background): the work the previous run left
	// for after its answer.
	Background metrics.Report
	// StageReports holds per-stage foreground reports.
	StageReports []metrics.Report
}

// Pipeline executes a compiled plan incrementally over a sliding window:
// the first stage uses the window-appropriate self-adjusting contraction
// tree, and every later stage uses strawman trees with content-fingerprint
// change detection (§5).
type Pipeline struct {
	plan *Plan
	rt   *sliderrt.Runtime
	late []*laterStage
}

// laterStage executes stage k ≥ 2 incrementally through core.MultiLevel:
// map outputs are memoized by input fingerprint, and per-partition
// strawman trees with fingerprint-derived leaf IDs reuse every
// sub-computation whose inputs did not change (§5).
type laterStage struct {
	stage *Stage
	ml    *core.MultiLevel[mapreduce.Payload]
	comb  int64 // combiner-call counter for the merge closure
}

// NewPipeline prepares incremental execution of a plan.
func NewPipeline(plan *Plan, cfg PipelineConfig) (*Pipeline, error) {
	if len(plan.Stages) == 0 {
		return nil, fmt.Errorf("pig: empty plan")
	}
	rt, err := sliderrt.New(plan.Stages[0].Job, cfg.Config)
	if err != nil {
		return nil, err
	}
	p := &Pipeline{plan: plan, rt: rt}
	for _, st := range plan.Stages[1:] {
		ls := &laterStage{stage: st}
		job := st.Job
		// Later-stage strawman nodes are binary (their fingerprints key
		// subtree reuse), so this merge sees exactly two payloads; it
		// still routes through the K-way path for its shared empty-side
		// and allocation fast paths.
		merge := func(a, b mapreduce.Payload) mapreduce.Payload {
			out, c := mapreduce.MergeOrderedK(job, a, b)
			ls.comb += c
			return out
		}
		ls.ml = core.NewMultiLevel(merge, st.Job.NumPartitions())
		p.late = append(p.late, ls)
	}
	return p, nil
}

// Initial runs the whole pipeline over the first window.
func (p *Pipeline) Initial(splits []mapreduce.Split) (*PipelineResult, error) {
	res, err := p.rt.Initial(splits)
	if err != nil {
		return nil, err
	}
	return p.runLater(res)
}

// Advance runs the whole pipeline after a window slide.
func (p *Pipeline) Advance(drop int, add []mapreduce.Split) (*PipelineResult, error) {
	res, err := p.rt.Advance(drop, add)
	if err != nil {
		return nil, err
	}
	return p.runLater(res)
}

// runLater threads the first stage's output through the later stages.
func (p *Pipeline) runLater(first *sliderrt.RunResult) (*PipelineResult, error) {
	out := &PipelineResult{
		Background:   first.Background,
		StageReports: []metrics.Report{first.Report},
	}
	// first.Output is the runtime's until its next run: it becomes rows here.
	rows, err := p.plan.Stages[0].Finalize(first.Output)
	if err != nil {
		return nil, err
	}
	for _, ls := range p.late {
		inputs := pseudoSplits(rows, pseudoSplitCount)
		rec := metrics.NewRecorder()
		stageOut, err := ls.run(inputs, rec)
		if err != nil {
			return nil, err
		}
		rows, err = ls.stage.Finalize(stageOut)
		if err != nil {
			return nil, err
		}
		out.StageReports = append(out.StageReports, rec.Snapshot())
	}
	out.Rows = rows
	last := p.plan.Stages[len(p.plan.Stages)-1]
	out.Schema = last.OutSchema
	out.Report = metrics.MergeReports(out.StageReports...)
	return out, nil
}

// pseudoSplit is one content-addressed input chunk of a later stage.
type pseudoSplit struct {
	fp   uint64
	rows []Row
}

// split presents the chunk as the map-task input of a later stage.
func (in pseudoSplit) split() mapreduce.Split {
	records := make([]mapreduce.Record, len(in.rows))
	for i, r := range in.rows {
		records[i] = mapreduce.Record(r)
	}
	return mapreduce.Split{ID: "pseudo-" + strconv.FormatUint(in.fp, 16), Records: records}
}

// pseudoSplits partitions rows into n content-addressed chunks: a row
// always lands in the chunk selected by its own fingerprint, so unchanged
// rows produce unchanged chunks regardless of what happened elsewhere.
func pseudoSplits(rows []Row, n int) []pseudoSplit {
	buckets := make([][]Row, n)
	for _, r := range rows {
		h := fingerprintRow(fnvOffset, r)
		buckets[h%uint64(n)] = append(buckets[h%uint64(n)], r)
	}
	out := make([]pseudoSplit, n)
	for i, b := range buckets {
		sort.SliceStable(b, func(x, y int) bool { return encodeRow(b[x]) < encodeRow(b[y]) })
		out[i] = pseudoSplit{fp: FingerprintRows(b) ^ uint64(i)*0x9e3779b97f4a7c15, rows: b}
	}
	return out
}

// run executes a later stage over its pseudo-splits.
func (ls *laterStage) run(inputs []pseudoSplit, rec *metrics.Recorder) (mapreduce.Output, error) {
	job := ls.stage.Job
	n := job.NumPartitions()

	fps := make([]uint64, len(inputs))
	for i, in := range inputs {
		fps[i] = in.fp
	}
	var mapCost time.Duration
	runStart := time.Now()
	statsBefore := ls.ml.Stats()
	roots, hasRoot, err := ls.ml.Run(fps, func(i int) ([]mapreduce.Payload, error) {
		result, err := mapreduce.RunMapTask(job, inputs[i].split())
		if err != nil {
			return nil, err
		}
		mapCost += result.Cost
		rec.RecordTask(metrics.Task{
			Phase:         metrics.PhaseMap,
			Cost:          result.Cost,
			InputBytes:    result.Bytes(),
			PreferredNode: -1,
		})
		rec.Add(metrics.Counters{MapTasks: 1, MapRecords: result.Records})
		return result.Parts, nil
	})
	if err != nil {
		return nil, err
	}
	reused := ls.ml.Stats().InputsReused - statsBefore.InputsReused
	for i := int64(0); i < reused; i++ {
		rec.RecordTask(metrics.Task{Phase: metrics.PhaseMap, Reused: true})
	}
	rec.Add(metrics.Counters{MapTasksReused: reused})

	// The contraction work is the Run time net of the map computes,
	// attributed evenly across the per-partition strawman builds.
	contraction := time.Since(runStart) - mapCost
	if contraction < 0 {
		contraction = 0
	}
	perPart := contraction / time.Duration(n)
	for p := 0; p < n; p++ {
		rec.RecordTask(metrics.Task{
			Phase:         metrics.PhaseContraction,
			Cost:          perPart,
			PreferredNode: -1,
		})
	}
	rec.Add(metrics.Counters{CombineCalls: ls.comb})
	ls.comb = 0

	out := make(mapreduce.Output)
	for p := 0; p < n; p++ {
		var rootSet []mapreduce.Payload
		if hasRoot[p] {
			rootSet = []mapreduce.Payload{roots[p]}
		}
		start := time.Now()
		partOut, calls := mapreduce.ReducePayload(job, rootSet)
		rec.RecordTask(metrics.Task{
			Phase:         metrics.PhaseReduce,
			Cost:          time.Since(start),
			PreferredNode: -1,
		})
		rec.Add(metrics.Counters{ReduceCalls: calls})
		for k, v := range partOut {
			out[k] = v
		}
	}
	return out, nil
}

// RunScratch executes the whole plan non-incrementally over the window —
// the recompute-from-scratch baseline for query pipelines (Figure 10).
func RunScratch(plan *Plan, window []mapreduce.Split, rec *metrics.Recorder) ([]Row, Schema, error) {
	if len(plan.Stages) == 0 {
		return nil, nil, fmt.Errorf("pig: empty plan")
	}
	out, err := mapreduce.RunScratch(plan.Stages[0].Job, window, 0, rec)
	if err != nil {
		return nil, nil, err
	}
	rows, err := plan.Stages[0].Finalize(out)
	if err != nil {
		return nil, nil, err
	}
	for _, st := range plan.Stages[1:] {
		inputs := pseudoSplits(rows, pseudoSplitCount)
		splits := make([]mapreduce.Split, 0, len(inputs))
		for _, in := range inputs {
			splits = append(splits, in.split())
		}
		out, err := mapreduce.RunScratch(st.Job, splits, 0, rec)
		if err != nil {
			return nil, nil, err
		}
		rows, err = st.Finalize(out)
		if err != nil {
			return nil, nil, err
		}
	}
	last := plan.Stages[len(plan.Stages)-1]
	return rows, last.OutSchema, nil
}
