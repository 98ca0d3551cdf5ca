// Package metrics provides the work/time accounting used throughout the
// Slider reproduction.
//
// The paper (§7.1) distinguishes two measures:
//
//   - Work: the total amount of computation performed by all tasks (Map,
//     contraction, and Reduce), measured as the sum of the active time of
//     all tasks.
//   - Time: the end-to-end running time of the job.
//
// A Recorder accumulates per-phase work from real in-process execution and
// carries the task list that the cluster simulator turns into an
// end-to-end makespan ("time").
package metrics

import (
	"fmt"
	"sync"
	"time"
)

// Phase identifies which stage of a data-parallel job a task belongs to.
type Phase int

// Phases of a MapReduce job with a contraction phase interposed between
// shuffle and reduce (paper §6).
const (
	PhaseMap Phase = iota + 1
	PhaseContraction
	PhaseReduce
)

// String returns the phase name used in reports.
func (p Phase) String() string {
	switch p {
	case PhaseMap:
		return "map"
	case PhaseContraction:
		return "contraction"
	case PhaseReduce:
		return "reduce"
	default:
		return fmt.Sprintf("phase(%d)", int(p))
	}
}

// Task records one executed (or reused) task: its phase, the real cost it
// incurred, and placement hints consumed by the scheduler.
type Task struct {
	// Phase is the job phase this task belongs to.
	Phase Phase
	// Cost is the active time of the task. For reused (memoized) tasks
	// the cost is zero and Reused is true.
	Cost time.Duration
	// InputBytes approximates the volume of data the task consumes; the
	// cluster simulator charges transfer time for non-local input.
	InputBytes int64
	// PreferredNode is the node holding this task's memoized inputs, or
	// -1 when the task has no locality preference.
	PreferredNode int
	// Reused marks tasks whose output was taken from the memoization
	// layer instead of being recomputed.
	Reused bool
}

// Counters holds the raw operation counts that complement wall-clock work.
type Counters struct {
	MapTasks       int64 // map tasks actually executed
	MapTasksReused int64 // map tasks whose output was memoized
	MapRecords     int64 // records processed by executed map tasks
	CombineCalls   int64 // pairwise combiner invocations
	ReduceCalls    int64 // reduce invocations (one per key at the root)
	RootLookups    int64 // touched keys a delta reduce looked up, one per non-empty root
	RootSeeks      int64 // of those, the lookups that sought the key (the rest read a recorded position)
	WriteTime      int64 // simulated ns spent writing memoized state
}

// Add accumulates delta into c, field by field. It is the single
// definition of counter addition, shared by Recorder.Add and
// MergeReports so the two cannot drift when fields are added.
func (c *Counters) Add(delta Counters) {
	c.MapTasks += delta.MapTasks
	c.MapTasksReused += delta.MapTasksReused
	c.MapRecords += delta.MapRecords
	c.CombineCalls += delta.CombineCalls
	c.ReduceCalls += delta.ReduceCalls
	c.RootLookups += delta.RootLookups
	c.RootSeeks += delta.RootSeeks
	c.WriteTime += delta.WriteTime
}

// Recorder accumulates tasks and counters for one job run. The zero value
// is ready to use. Recorder is safe for concurrent use.
type Recorder struct {
	mu       sync.Mutex
	tasks    []Task
	counters Counters
	work     map[Phase]time.Duration
}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder {
	return &Recorder{work: make(map[Phase]time.Duration)}
}

// RecordTask adds a task to the run.
func (r *Recorder) RecordTask(t Task) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.work == nil {
		r.work = make(map[Phase]time.Duration)
	}
	r.tasks = append(r.tasks, t)
	if !t.Reused {
		r.work[t.Phase] += t.Cost
	}
}

// Add merges counter deltas into the recorder.
func (r *Recorder) Add(delta Counters) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters.Add(delta)
}

// Reset empties the recorder and keeps its storage for what it records
// next.
func (r *Recorder) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tasks = r.tasks[:0]
	r.counters = Counters{}
	clear(r.work)
}

// Counters returns a snapshot of the accumulated counters.
func (r *Recorder) Counters() Counters {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters
}

// Tasks returns a copy of the recorded task list.
func (r *Recorder) Tasks() []Task {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Task, len(r.tasks))
	copy(out, r.tasks)
	return out
}

// Work returns the total work (sum of active task time) across all phases.
func (r *Recorder) Work() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	var total time.Duration
	for _, w := range r.work {
		total += w
	}
	return total
}

// PhaseWork returns the work attributed to one phase.
func (r *Recorder) PhaseWork(p Phase) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.work[p]
}

// Report is an immutable summary of one run, suitable for comparison.
type Report struct {
	Work      time.Duration
	PhaseWork map[Phase]time.Duration
	Counters  Counters
	Tasks     []Task
}

// Snapshot freezes the recorder into a Report.
func (r *Recorder) Snapshot() Report {
	r.mu.Lock()
	defer r.mu.Unlock()
	pw := make(map[Phase]time.Duration, len(r.work))
	var total time.Duration
	for p, w := range r.work {
		pw[p] = w
		total += w
	}
	tasks := make([]Task, len(r.tasks))
	copy(tasks, r.tasks)
	return Report{Work: total, PhaseWork: pw, Counters: r.counters, Tasks: tasks}
}

// MergeReports combines per-stage reports into one (work sums, task lists
// concatenate, counters add).
func MergeReports(reports ...Report) Report {
	out := Report{PhaseWork: make(map[Phase]time.Duration)}
	for _, r := range reports {
		out.Work += r.Work
		for p, w := range r.PhaseWork {
			out.PhaseWork[p] += w
		}
		out.Tasks = append(out.Tasks, r.Tasks...)
		out.Counters.Add(r.Counters)
	}
	return out
}

// Speedup returns how much faster "new" is than "base" in terms of work.
// It returns 0 when new work is zero (infinite speedup is reported as 0 by
// convention; callers guard against it).
func Speedup(base, new time.Duration) float64 {
	if new <= 0 {
		return 0
	}
	return float64(base) / float64(new)
}
