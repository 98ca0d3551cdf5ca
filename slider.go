// Package slider is a Go implementation of Slider, the incremental
// sliding-window analytics system of Bhatotia, Acar, Junqueira and
// Rodrigues (ACM Middleware 2014).
//
// Slider lets you write an ordinary, non-incremental MapReduce job — a
// Map function, an associative Combine function, and a Reduce function —
// and then run it over a sliding window of input splits. When the window
// slides, Slider updates the output incrementally using self-adjusting
// contraction trees: balanced trees of Combiner sub-computations through
// which only the changed paths are recomputed, so an update costs work
// proportional to the delta (with a logarithmic dependence on window
// size) instead of the whole window.
//
// # Quick start
//
//	job := &slider.Job{
//	    Name: "wordcount",
//	    Map: func(rec slider.Record, emit slider.Emit) error {
//	        for _, w := range strings.Fields(rec.(string)) {
//	            emit(w, int64(1))
//	        }
//	        return nil
//	    },
//	    Combine: sum, Reduce: sum, Commutative: true,
//	}
//	rt, _ := slider.New(job, slider.Config{Mode: slider.Fixed,
//	    BucketSplits: 2, WindowBuckets: 8})
//	res, _ := rt.Initial(first16Splits)
//	res, _ = rt.Advance(2, next2Splits) // incremental update
//
// Three window modes select the contraction tree (§3–§4 of the paper):
// Append (coalescing trees), Fixed (the DABA queue, or rotating trees with
// split processing), and Variable (folding trees). Config.Backend names a
// structure explicitly: BackendRandomizedFolding for the randomized folding
// tree, BackendStrawman for the memoization-only baseline the paper
// evaluates against.
//
// The query layer compiles Pig-Latin-like scripts into pipelines of
// MapReduce jobs executed incrementally with multi-level trees (§5); see
// ParseQuery, CompileQuery, and NewPipeline.
package slider

import (
	"io"

	"slider/internal/cluster"
	"slider/internal/core"
	"slider/internal/dist"
	"slider/internal/mapreduce"
	"slider/internal/memo"
	"slider/internal/metrics"
	"slider/internal/obs"
	"slider/internal/persist"
	"slider/internal/pig"
	"slider/internal/scheduler"
	"slider/internal/sliderrt"
	"slider/internal/stream"
)

// Core job model (see internal/mapreduce).
type (
	// Job is a non-incremental MapReduce program.
	Job = mapreduce.Job
	// Split is one unit of map-side input with a stable identity.
	Split = mapreduce.Split
	// Record is one input record.
	Record = mapreduce.Record
	// Value is an intermediate or final value.
	Value = mapreduce.Value
	// Emit is the map-side emission callback.
	Emit = mapreduce.Emit
	// Output is the job's final key→value result. The map a run returns
	// (RunResult.Output) is owned by the runtime and valid until its next
	// run; keep a window's output longer by cloning it (maps.Clone).
	Output = mapreduce.Output
	// Payload is what a map task or a contraction-tree node contributes
	// to one reduce partition: a slice of {Key, Value} entries strictly
	// sorted by key (byte order, no key twice), nil when empty. Merges
	// are merge-joins over that order and the codec writes entries as
	// they lie, so a Payload must never be modified once built; look a
	// key up with Get. Runtime.ForEachPayload hands these out.
	Payload = mapreduce.Payload
)

// Runtime configuration and execution (see internal/sliderrt).
type (
	// Config configures a Runtime.
	Config = sliderrt.Config
	// Mode selects the sliding-window variant.
	Mode = sliderrt.Mode
	// Backend names the aggregation structure behind the reduce phase;
	// the default BackendAuto resolves the cheapest legal structure from
	// the window mode and the combiner's declared properties. Config.Backend
	// is the one selector of the structure; Backend.String is its one name.
	Backend = sliderrt.Backend
	// Runtime drives initial and incremental runs.
	Runtime = sliderrt.Runtime
	// RunResult is the outcome of one run. Its Output map is the runtime's,
	// patched in place by the next run: valid until then, clone it to keep
	// it. Changed lists the keys this run rewrote or deleted (a superset of
	// the keys whose value moved), unless Rebuilt says it refilled the map.
	RunResult = sliderrt.RunResult
)

// Window modes.
const (
	// Append grows the window monotonically (coalescing trees, §4.2).
	Append = sliderrt.Append
	// Fixed slides a constant-width window (rotating trees, §4.1).
	Fixed = sliderrt.Fixed
	// Variable allows arbitrary shrink/grow (folding trees, §3).
	Variable = sliderrt.Variable
)

// Aggregation backends (Config.Backend).
const (
	// BackendAuto resolves the cheapest legal backend for the query.
	BackendAuto = sliderrt.BackendAuto
	// BackendDaba is the worst-case O(1) in-order aggregator for plain
	// fixed-width windows (no commutativity required).
	BackendDaba = sliderrt.BackendDaba
	// BackendRotating is the rotating contraction tree of §4.1.
	BackendRotating = sliderrt.BackendRotating
	// BackendCoalescing is the append-only coalescing tree of §4.2.
	BackendCoalescing = sliderrt.BackendCoalescing
	// BackendFolding is the folding tree of §3.1.
	BackendFolding = sliderrt.BackendFolding
	// BackendRandomizedFolding is the randomized folding tree of §3.2.
	BackendRandomizedFolding = sliderrt.BackendRandomizedFolding
	// BackendStrawman is the memoization-only baseline of §2, legal in
	// every mode.
	BackendStrawman = sliderrt.BackendStrawman
	// BackendFingerTree is the out-of-order aggregator (FiBA-style):
	// fixed-mode windows with late arrivals under Config.AllowedLateness
	// and bulk evict/insert at O(K + log w) combines.
	BackendFingerTree = sliderrt.BackendFingerTree
)

// ParseKind parses a backend name as printed by Backend.String ("auto",
// "daba", "rotating", ...) — the daemons' -backend flag; the error lists
// the names.
func ParseKind(s string) (Backend, error) { return core.ParseKind(s) }

// Kinds lists every backend a Config can name, BackendAuto apart.
func Kinds() []Backend { return core.Kinds() }

// Sentinel errors callers are expected to test with errors.Is.
var (
	// ErrBadMode reports an invalid Config (mode/knob combination).
	ErrBadMode = sliderrt.ErrBadMode
	// ErrBadBackend reports a Config.Backend — named or auto-selected —
	// that the window mode, the job's combiner, SplitProcessing or
	// AllowedLateness rules out (e.g. any non-finger-tree backend combined
	// with AllowedLateness > 0).
	ErrBadBackend = sliderrt.ErrBadBackend
	// ErrTooLate reports a Runtime.AdvanceLate arrival behind the
	// effective watermark: lateness beyond Config.AllowedLateness, or a
	// target bucket sequence below Config.Watermark.
	ErrTooLate = sliderrt.ErrTooLate
	// ErrOutOfOrder reports a TimedRecord older than a TimeWindow's open
	// period; the window is untouched and the stream stays usable.
	ErrOutOfOrder = stream.ErrOutOfOrder
)

// New returns a Runtime executing job under cfg.
func New(job *Job, cfg Config) (*Runtime, error) { return sliderrt.New(job, cfg) }

// Restore reconstructs a Runtime from a checkpoint written by
// Runtime.Checkpoint. The job and configuration must match the
// checkpointed runtime's. Custom Combine value types must have been
// registered with RegisterValueType before checkpointing and restoring.
func Restore(job *Job, cfg Config, r io.Reader) (*Runtime, error) {
	return sliderrt.Restore(job, cfg, r)
}

// RegisterValueType makes a custom application value type serializable
// for checkpointing (Runtime.Checkpoint / Restore), e.g.
// slider.RegisterValueType(&MyAccumulator{}).
func RegisterValueType(v any) { persist.RegisterType(v) }

// CheckpointStore is a replicated, checksummed, atomic file store for
// checkpoints and other durable state; reads fall back across replicas on
// corruption.
type CheckpointStore = persist.FileStore

// NewCheckpointStore opens (creating if needed) a checkpoint store rooted
// at dir with the given replication factor.
func NewCheckpointStore(dir string, replicas int) (*CheckpointStore, error) {
	return persist.NewFileStore(dir, replicas)
}

// RunScratch executes the job non-incrementally over a full window — the
// recompute-from-scratch baseline.
func RunScratch(job *Job, window []Split, parallelism int, rec *Recorder) (Output, error) {
	return mapreduce.RunScratch(job, window, parallelism, rec)
}

// CheckJob property-tests a job's combiner contract (associativity,
// declared commutativity, non-mutation, alias-free results) against real
// sample splits. Run it in a test before trusting a new job to the
// incremental runtime: its structures share payloads between aggregates
// and recycle dead storage, and its partitions call Combine concurrently,
// all of which rely on the purity/alias-freedom contract.
func CheckJob(job *Job, samples []Split) error {
	return mapreduce.CheckJob(job, samples)
}

// Measurement and simulation (see internal/metrics, internal/cluster,
// internal/scheduler).
type (
	// Recorder accumulates per-task costs during a run.
	Recorder = metrics.Recorder
	// Report is an immutable work summary.
	Report = metrics.Report
	// ClusterConfig describes the simulated cluster.
	ClusterConfig = cluster.Config
	// ClusterResult is a simulated end-to-end execution.
	ClusterResult = cluster.Result
	// SchedulerPolicy decides task placement.
	SchedulerPolicy = cluster.Policy
	// MemoConfig configures the memoization layer.
	MemoConfig = memo.Config
	// MemoStore is the fault-tolerant memoization layer.
	MemoStore = memo.Store
)

// Scheduling policies (§6, Table 1).
var (
	// BaselinePolicy mimics stock Hadoop scheduling.
	BaselinePolicy SchedulerPolicy = scheduler.Baseline{}
	// MemoAwarePolicy places tasks with their memoized state.
	MemoAwarePolicy SchedulerPolicy = scheduler.MemoAware{}
	// HybridPolicy is memoization-aware with straggler mitigation.
	HybridPolicy SchedulerPolicy = scheduler.Hybrid{}
)

// NewRecorder returns an empty work recorder.
func NewRecorder() *Recorder { return metrics.NewRecorder() }

// DefaultClusterConfig mirrors the paper's 24-worker testbed.
func DefaultClusterConfig() ClusterConfig { return cluster.DefaultConfig() }

// DefaultMemoConfig returns the default memoization configuration.
func DefaultMemoConfig() MemoConfig { return memo.DefaultConfig() }

// Simulate computes the end-to-end running time of a run's recorded tasks
// on the simulated cluster under the given policy.
func Simulate(cfg ClusterConfig, report Report, policy SchedulerPolicy) ClusterResult {
	return cluster.NewSimulator(cfg).Run(report.Tasks, policy)
}

// Query processing (§5; see internal/pig).
type (
	// QueryScript is a parsed Pig-lite script.
	QueryScript = pig.Script
	// QueryPlan is a compiled pipeline of MapReduce stages.
	QueryPlan = pig.Plan
	// QueryTable is a static side relation for replicated joins.
	QueryTable = pig.Table
	// Row is one query tuple.
	Row = pig.Row
	// RowSchema names a relation's columns.
	RowSchema = pig.Schema
	// Pipeline executes a plan incrementally over a sliding window.
	Pipeline = pig.Pipeline
	// PipelineConfig configures incremental query execution.
	PipelineConfig = pig.PipelineConfig
	// PipelineResult is the outcome of one pipeline run.
	PipelineResult = pig.PipelineResult
)

// Distributed map execution (see internal/dist): worker processes serve
// map tasks over TCP; a client pool plugs into Config.MapRunner with
// automatic re-execution of tasks from failed workers.
type (
	// Worker serves map tasks for registered jobs over TCP.
	Worker = dist.Worker
	// WorkerPool dispatches map tasks across workers and implements
	// the Config.MapRunner hook.
	WorkerPool = dist.Pool
	// WorkerPoolConfig tunes a pool's fault tolerance, tracing, and
	// stats federation (see NewWorkerPoolConfig).
	WorkerPoolConfig = dist.PoolConfig
	// WorkerObs bundles a worker's batch tracer, fault counters, and
	// per-phase latency histograms; install one with Worker.SetObs to
	// make the worker answer stats calls and stitch spans into the
	// pool's slide traces.
	WorkerObs = dist.WorkerObs
	// JobRegistry maps job names to factories on both sides of the
	// wire.
	JobRegistry = dist.Registry
	// NodeStats is one worker's self-reported counters and histograms,
	// as federated by the pool's Stats polling.
	NodeStats = metrics.NodeStats
	// ClusterStats is the pool's latest federated view of every live
	// worker; Merged folds it into cluster-level totals.
	ClusterStats = metrics.ClusterStats
	// WindowStats is a concurrent-read-safe snapshot of the runtime's
	// out-of-order window gauges (see Runtime.WindowStats).
	WindowStats = sliderrt.WindowStats
)

// RegisterJob binds a job factory to a name in the process-wide registry
// (jobs travel by name: both driver and workers must register the same
// factory under the same name).
func RegisterJob(name string, factory func() *Job) error {
	return dist.RegisterJob(name, factory)
}

// NewWorker starts a map-task worker listening on addr ("host:0" picks
// an ephemeral port). A nil registry uses the process-wide one.
func NewWorker(name, addr string, registry *JobRegistry) (*Worker, error) {
	return dist.NewWorker(name, addr, registry)
}

// NewWorkerPool connects to worker addresses for the named job; assign
// the result to Config.MapRunner to run the map phase remotely.
func NewWorkerPool(jobName string, addrs []string) (*WorkerPool, error) {
	return dist.NewPool(jobName, addrs)
}

// NewWorkerPoolConfig is NewWorkerPool with explicit fault-tolerance,
// tracing, and stats-federation configuration.
func NewWorkerPoolConfig(jobName string, addrs []string, cfg WorkerPoolConfig) (*WorkerPool, error) {
	return dist.NewPoolConfig(jobName, addrs, cfg)
}

// NewWorkerObs returns a worker instrumentation bundle (batch span
// tracer, fault counters, per-phase histograms) for Worker.SetObs.
func NewWorkerObs() *WorkerObs { return dist.NewWorkerObs() }

// Observability (see internal/metrics, internal/obs): per-slide latency
// histograms, span traces, fault-event counters, and the introspection
// HTTP server that exposes them.
type (
	// SlideObs bundles a runtime's latency histograms and span tracer;
	// assign one to Config.Obs to instrument every slide.
	SlideObs = metrics.SlideObs
	// Tracer records slides as ring-buffered span trees.
	Tracer = metrics.Tracer
	// TraceMode selects how many slides the tracer records.
	TraceMode = metrics.TraceMode
	// Histogram is a fixed-bucket, mergeable latency histogram.
	Histogram = metrics.Histogram
	// HistogramSnapshot is an immutable copy of a Histogram's counts.
	HistogramSnapshot = metrics.HistogramSnapshot
	// FaultStats is a snapshot of fault-tolerance event counters and
	// RPC latency quantiles.
	FaultStats = metrics.FaultStats
	// FaultRecorder accumulates fault-tolerance events; share one
	// between Config.Faults and the worker pool.
	FaultRecorder = metrics.FaultRecorder
	// TreeSnapshot is an immutable structural snapshot of the runtime's
	// contraction trees (see Runtime.TreeSnapshot, /debug/tree).
	TreeSnapshot = sliderrt.TreeSnapshot
	// ObsServer is the introspection HTTP server (/metrics,
	// /debug/pprof, /debug/slides, /debug/tree).
	ObsServer = obs.Server
	// ObsConfig wires an ObsServer's data sources.
	ObsConfig = obs.Config
)

// Trace modes.
const (
	// TraceFull records every slide.
	TraceFull = metrics.TraceFull
	// TraceSampled records one slide in every N.
	TraceSampled = metrics.TraceSampled
	// TraceOff records nothing (histograms still populate).
	TraceOff = metrics.TraceOff
)

// NewSlideObs returns an instrumentation bundle with a full-recording
// tracer; assign it to Config.Obs.
func NewSlideObs() *SlideObs { return metrics.NewSlideObs() }

// StartObsServer serves the introspection endpoints on addr for the
// sources in cfg (":0" picks a port; any source may be nil).
func StartObsServer(addr string, cfg ObsConfig) (*ObsServer, error) {
	return obs.Start(addr, cfg)
}

// StartObsServerForRuntime serves the introspection endpoints wired to
// everything rt exposes (histograms, traces, faults, tree snapshots,
// memo stats).
func StartObsServerForRuntime(addr string, rt *Runtime) (*ObsServer, error) {
	return obs.StartForRuntime(addr, rt)
}

// Streaming drivers (see internal/stream): push records, get windowed
// outputs.
type (
	// CountWindowConfig configures a count-based sliding window driver.
	CountWindowConfig = stream.CountConfig
	// CountWindow forms splits from pushed records and slides a
	// fixed-length window automatically.
	CountWindow = stream.CountWindow
	// TimeWindowConfig configures a time-based sliding window driver.
	TimeWindowConfig = stream.TimeConfig
	// TimeWindow slides a fixed-duration window over timestamped
	// records (data volume per period may vary).
	TimeWindow = stream.TimeWindow
	// TimedRecord is one timestamped record for a TimeWindow.
	TimedRecord = stream.TimedRecord
	// WindowOutput delivers one run's results to a window sink. Result.Output
	// and Result.Changed are valid until the sink returns and the next window
	// runs; a sink that keeps them clones them.
	WindowOutput = stream.Output
	// WindowSink consumes window outputs.
	WindowSink = stream.Sink
)

// NewCountWindow returns a count-based streaming driver.
func NewCountWindow(cfg CountWindowConfig, sink WindowSink) (*CountWindow, error) {
	return stream.NewCountWindow(cfg, sink)
}

// NewTimeWindow returns a time-based streaming driver.
func NewTimeWindow(cfg TimeWindowConfig, sink WindowSink) (*TimeWindow, error) {
	return stream.NewTimeWindow(cfg, sink)
}

// ParseQuery parses a Pig-lite script.
func ParseQuery(src string) (*QueryScript, error) { return pig.Parse(src) }

// CompileQuery compiles a script into a pipeline of MapReduce stages.
func CompileQuery(script *QueryScript, tables map[string]*QueryTable, partitions int) (*QueryPlan, error) {
	return pig.Compile(script, tables, partitions)
}

// NewPipeline prepares incremental execution of a compiled plan.
func NewPipeline(plan *QueryPlan, cfg PipelineConfig) (*Pipeline, error) {
	return pig.NewPipeline(plan, cfg)
}

// RunQueryScratch executes a plan non-incrementally over a window.
func RunQueryScratch(plan *QueryPlan, window []Split, rec *Recorder) ([]Row, RowSchema, error) {
	return pig.RunScratch(plan, window, rec)
}
