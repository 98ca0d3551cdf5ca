package dist

import (
	"fmt"
	"net"
	"net/rpc"
	"sync"
	"sync/atomic"
	"time"

	"slider/internal/mapreduce"
	"slider/internal/metrics"
	"slider/internal/persist"
)

// MapRequest is one remote map-task batch: the named job applied to a
// set of splits. Splits travel as checksummed frames (persist.Encode) so
// the worker detects corruption instead of computing on garbage.
type MapRequest struct {
	// JobName selects the job from the worker's registry.
	JobName string
	// SplitFrames holds one encoded mapreduce.Split per task.
	SplitFrames [][]byte
	// Trace asks the worker to record and return spans for this batch
	// (set when the pool itself is tracing the owning slide). A worker
	// with no observability bundle installed ignores it.
	Trace bool
	// TraceID and SlideID propagate the owning slide's trace context so
	// worker-retained spans are correlatable with the pool's trace even
	// when the response is lost.
	TraceID uint64
	SlideID uint64
	// ParentSpan names the pool-side span this batch hangs under
	// (diagnostics; e.g. "rpc 127.0.0.1:7001 (hedge)").
	ParentSpan string
}

// MapResult mirrors mapreduce.MapResult in wire-friendly form.
type MapResult struct {
	SplitID    string
	PartFrames [][]byte // one encoded Payload per reduce partition
	CostNs     int64
	Bytes      int64
	// PartBytes is the map task's per-partition payload sizes (they sum
	// to Bytes); absent from workers older than the field, in which case
	// the pool's runtime measures the decoded payloads itself.
	PartBytes []int64
	Records   int64
}

// MapResponse carries the batch's results.
type MapResponse struct {
	Results []MapResult
	// Worker identifies the responding worker (diagnostics).
	Worker string
	// Spans carries the worker's span tree for this batch in wire form
	// (offsets/durations only — no absolute timestamps, so clock skew
	// cannot leak; see metrics.StitchWireSpans). Empty unless the request
	// set Trace and the worker has an observability bundle.
	Spans []metrics.WireSpan
}

// PingArgs/PingReply implement the health probe.
type PingArgs struct{}

// PingReply reports the worker's identity and registered jobs.
type PingReply struct {
	Worker string
	Jobs   []string
}

// WorkerFaults holds one-shot fault injections armed by tests and the
// simulation harness. Each armed fault fires on the worker's next RunMap
// batch and then disarms itself, so a single injection perturbs exactly
// one batch — which keeps deterministic chaos traces replayable.
type WorkerFaults struct {
	mu      sync.Mutex
	delay   time.Duration // delay the next response
	drop    bool          // hang up without delivering the next response
	corrupt bool          // corrupt a payload frame in the next response
	crash   bool          // crash the worker mid-batch
}

// InjectDelay arms a one-shot response delay.
func (f *WorkerFaults) InjectDelay(d time.Duration) {
	f.mu.Lock()
	f.delay = d
	f.mu.Unlock()
}

// InjectDrop arms a one-shot dropped response: the batch is computed but
// every connection is closed before the reply is delivered.
func (f *WorkerFaults) InjectDrop() {
	f.mu.Lock()
	f.drop = true
	f.mu.Unlock()
}

// InjectCorrupt arms a one-shot frame corruption: a byte is flipped in
// the first result's payload frame, which the client's checksummed codec
// must catch.
func (f *WorkerFaults) InjectCorrupt() {
	f.mu.Lock()
	f.corrupt = true
	f.mu.Unlock()
}

// InjectCrash arms a one-shot mid-batch crash: the worker dies (Kill)
// after computing the first split of the batch, before replying.
func (f *WorkerFaults) InjectCrash() {
	f.mu.Lock()
	f.crash = true
	f.mu.Unlock()
}

// take consumes every armed fault.
func (f *WorkerFaults) take() (delay time.Duration, drop, corrupt, crash bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delay, drop, corrupt, crash = f.delay, f.drop, f.corrupt, f.crash
	f.delay, f.drop, f.corrupt, f.crash = 0, false, false, false
	return
}

// Worker serves map tasks over TCP. Create with NewWorker, stop with
// Close.
type Worker struct {
	name     string
	registry *Registry
	listener net.Listener
	faults   WorkerFaults
	obs      atomic.Pointer[WorkerObs]

	mu     sync.Mutex
	served int64
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// NewWorker starts a worker listening on addr (use "127.0.0.1:0" for an
// ephemeral port). A nil registry uses the process-wide one.
func NewWorker(name, addr string, registry *Registry) (*Worker, error) {
	if registry == nil {
		registry = &defaultRegistry
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dist: worker listen: %w", err)
	}
	w := &Worker{name: name, registry: registry, listener: ln, conns: make(map[net.Conn]struct{})}
	srv := rpc.NewServer()
	if err := srv.RegisterName("Slider", &workerService{w: w}); err != nil {
		ln.Close()
		return nil, fmt.Errorf("dist: worker register: %w", err)
	}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			w.mu.Lock()
			if w.closed {
				w.mu.Unlock()
				conn.Close()
				return
			}
			w.conns[conn] = struct{}{}
			w.mu.Unlock()
			w.wg.Add(1)
			go func() {
				defer w.wg.Done()
				srv.ServeConn(conn)
				w.mu.Lock()
				delete(w.conns, conn)
				w.mu.Unlock()
			}()
		}
	}()
	return w, nil
}

// Addr returns the worker's listen address.
func (w *Worker) Addr() string { return w.listener.Addr().String() }

// Faults exposes the worker's fault-injection switchboard.
func (w *Worker) Faults() *WorkerFaults { return &w.faults }

// Served returns the number of map tasks this worker has executed.
func (w *Worker) Served() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.served
}

// Close stops the worker: the listener and every open connection are
// shut down (in-flight calls fail on the client, which re-executes them
// elsewhere), and all serving goroutines are waited for.
func (w *Worker) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	conns := make([]net.Conn, 0, len(w.conns))
	for c := range w.conns {
		conns = append(conns, c)
	}
	w.mu.Unlock()
	err := w.listener.Close()
	for _, c := range conns {
		c.Close()
	}
	w.wg.Wait()
	return err
}

// Kill abruptly stops the worker without waiting for in-flight handlers
// — the crash path. Unlike Close it is safe to call from inside a
// handler (Close would deadlock on its own WaitGroup). Connections are
// closed before returning, so a handler that Kills its worker can never
// deliver its reply: the client always observes a transport failure.
func (w *Worker) Kill() {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.closed = true
	conns := make([]net.Conn, 0, len(w.conns))
	for c := range w.conns {
		conns = append(conns, c)
	}
	w.mu.Unlock()
	w.listener.Close()
	for _, c := range conns {
		c.Close()
	}
}

// dropConns closes every open connection but leaves the worker running
// (the dropped-response fault: clients see a transport error and must
// reconnect, which the healthy worker accepts).
func (w *Worker) dropConns() {
	w.mu.Lock()
	conns := make([]net.Conn, 0, len(w.conns))
	for c := range w.conns {
		conns = append(conns, c)
	}
	w.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// workerService is the RPC surface (kept separate so Worker's exported
// methods don't have to satisfy net/rpc's signature rules).
type workerService struct {
	w *Worker
}

// runMapTask is mapreduce.RunMapTask with a panic in the job's Map or
// Combine — user code run on records off the wire — turned into the task's
// error. net/rpc does not recover a handler's panic, so without this one
// bad record ends the worker process; with it the batch fails with a
// ServerError, which the pool does not retry, and the worker keeps serving.
func runMapTask(job *mapreduce.Job, split mapreduce.Split) (res mapreduce.MapResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("job %q panicked on split %s: %v", job.Name, split.ID, r)
		}
	}()
	return mapreduce.RunMapTask(job, split)
}

// RunMap executes a batch of map tasks for a registered job. Armed
// one-shot faults (WorkerFaults) fire here: crash kills the worker after
// the first split, drop computes everything but hangs up before
// replying, corrupt flips a byte in a payload frame, delay stalls the
// response.
//
// With an observability bundle installed the handler records a span tree
// (decode, map+combine, encode per split) into the worker's own ring and
// — when the request asks for tracing — ships it back in resp.Spans for
// the pool to stitch. With no bundle every instrumentation line below is
// a nil check: the batch span is nil, Span methods are nil-receiver
// no-ops, and the histogram branches are skipped, adding zero
// allocations to the hot path (TestWorkerNoObsZeroAllocDelta).
func (s *workerService) RunMap(req MapRequest, resp *MapResponse) error {
	delay, drop, corrupt, crash := s.w.faults.take()
	job, err := s.w.registry.Lookup(req.JobName)
	if err != nil {
		return err
	}
	obs := s.w.obs.Load()
	batchStart := time.Now()
	var batch *metrics.Span
	if obs != nil && req.Trace {
		batch = obs.Tracer.StartSlide(req.SlideID, fmt.Sprintf("%s %s ×%d", s.w.name, req.JobName, len(req.SplitFrames)))
		batch.Event("trace %d parent %q", req.TraceID, req.ParentSpan)
	}
	resp.Worker = s.w.name
	resp.Results = make([]MapResult, 0, len(req.SplitFrames))
	for idx, frame := range req.SplitFrames {
		if crash && idx == 1 {
			// Mid-batch crash: one split computed, nothing delivered.
			// Kill closes the connection first, so the error below never
			// reaches the client — it sees a transport failure.
			s.w.Kill()
			return fmt.Errorf("dist: worker %s: injected crash", s.w.name)
		}
		var sp *metrics.Span
		if batch != nil {
			sp = batch.Child(fmt.Sprintf("split %d", idx))
		}
		// Zero-copy decode: record strings alias the request frame, which
		// stays alive (and unmodified) for the duration of the map task.
		decStart := time.Now()
		dec := sp.Child("decode")
		split, err := persist.DecodeSplitZeroCopy(frame)
		dec.End()
		if err != nil {
			if obs != nil {
				obs.Faults.CorruptFrames.Add(1)
			}
			sp.Event("decode failed: %v", err)
			batch.End()
			return fmt.Errorf("dist: worker %s: %w", s.w.name, err)
		}
		if obs != nil {
			obs.Decode.Observe(time.Since(decStart))
		}
		// The map-side combiner is fused into the map task's emit path, so
		// this one span covers both (there is no separate combine pass).
		mc := sp.Child("map+combine")
		start := time.Now()
		result, err := runMapTask(job, split)
		mc.End()
		if err != nil {
			batch.End()
			return fmt.Errorf("dist: worker %s: %w", s.w.name, err)
		}
		if obs != nil {
			obs.Map.Observe(time.Since(start))
		}
		encStart := time.Now()
		enc := sp.Child("encode")
		parts := make([][]byte, len(result.Parts))
		for i, p := range result.Parts {
			if parts[i], err = persist.EncodePayload(p); err != nil {
				enc.End()
				batch.End()
				return fmt.Errorf("dist: worker %s: %w", s.w.name, err)
			}
		}
		enc.End()
		sp.End()
		if obs != nil {
			obs.Encode.Observe(time.Since(encStart))
		}
		resp.Results = append(resp.Results, MapResult{
			SplitID:    result.SplitID,
			PartFrames: parts,
			CostNs:     int64(time.Since(start)),
			Bytes:      result.Bytes,
			PartBytes:  result.PartBytes,
			Records:    result.Records,
		})
		s.w.mu.Lock()
		s.w.served++
		s.w.mu.Unlock()
	}
	if obs != nil {
		obs.Batch.Observe(time.Since(batchStart))
	}
	if batch != nil {
		batch.End()
		resp.Spans = metrics.ExportWireSpans(batch)
	}
	if crash && len(req.SplitFrames) <= 1 {
		// Single-split batch: crash after compute, before the reply.
		s.w.Kill()
		return fmt.Errorf("dist: worker %s: injected crash", s.w.name)
	}
	if corrupt && len(resp.Results) > 0 && len(resp.Results[0].PartFrames) > 0 {
		if frame := resp.Results[0].PartFrames[0]; len(frame) > 0 {
			frame[len(frame)/2] ^= 0xFF
		}
	}
	if delay > 0 {
		time.Sleep(delay)
	}
	if drop {
		// Hang up before the reply is written; the healthy worker keeps
		// accepting reconnects.
		s.w.dropConns()
		return fmt.Errorf("dist: worker %s: injected drop", s.w.name)
	}
	return nil
}

// Ping answers the health probe.
func (s *workerService) Ping(_ PingArgs, reply *PingReply) error {
	reply.Worker = s.w.name
	reply.Jobs = s.w.registry.Names()
	return nil
}
