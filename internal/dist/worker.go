package dist

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"slider/internal/mapreduce"
	"slider/internal/metrics"
	"slider/internal/persist"
)

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

// InjectCorrupt arms a one-shot frame corruption: a byte is flipped inside
// the first result frame of the reply, in the write buffer, which the
// pool's checksummed codec must catch.
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
	served   atomic.Int64
	stop     chan struct{} // closed by Close and Kill

	mu     sync.Mutex
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
	w := &Worker{name: name, registry: registry, listener: ln,
		stop: make(chan struct{}), conns: make(map[net.Conn]struct{})}
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
			w.wg.Add(1)
			w.mu.Unlock()
			go func() {
				defer w.wg.Done()
				w.serve(conn)
				conn.Close()
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
func (w *Worker) Served() int64 { return w.served.Load() }

// Close stops the worker: the listener and every open connection are
// shut down (in-flight calls fail on the client, which re-executes them
// elsewhere), and all serving goroutines are waited for.
func (w *Worker) Close() error {
	if !w.shut() {
		return nil
	}
	err := w.listener.Close()
	w.dropConns()
	w.wg.Wait()
	return err
}

// Kill abruptly stops the worker without waiting for in-flight handlers
// — the crash path. Unlike Close it is safe to call from inside a
// handler (Close would deadlock on its own WaitGroup). Connections are
// closed before returning, so a handler that Kills its worker can never
// deliver its reply: the client always observes a transport failure.
func (w *Worker) Kill() {
	if !w.shut() {
		return
	}
	w.listener.Close()
	w.dropConns()
}

// shut marks the worker closed — no connection is accepted after it — and
// reports whether this call was the one that did.
func (w *Worker) shut() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return false
	}
	w.closed = true
	close(w.stop)
	return true
}

// dropConns closes every open connection. On a worker that keeps running
// it is the dropped-response fault: clients see a transport error and
// must reconnect, which the healthy worker accepts.
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

// runMapTask is mapreduce.RunMapTask with a panic in the job's Map or
// Combine — user code run on records off the wire — turned into the task's
// error. Without this one bad record ends the worker process; with it the
// batch is answered with statusJobError, which the pool does not retry,
// and the worker keeps serving.
func runMapTask(job *mapreduce.Job, split mapreduce.Split) (res mapreduce.MapResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("job %q panicked on split %s: %v", job.Name, split.ID, r)
		}
	}()
	return mapreduce.RunMapTask(job, split)
}

// refuseLinger bounds how long a connection that is being refused stays
// open for the peer to read why.
const refuseLinger = time.Second

// serve is a connection's loop: one call read, answered, the next. It
// returns when the peer hangs up, the worker closes the socket, or the
// stream can no longer be trusted; the caller closes the connection.
func (w *Worker) serve(conn net.Conn) {
	c := newWireConn(conn)
	for w.serveCall(c) == nil {
	}
}

// serveCall reads one call off the connection and answers it. An error
// ends the connection.
func (w *Worker) serveCall(c *wireConn) error {
	frame, err := c.next()
	if err != nil {
		if errors.Is(err, persist.ErrCorrupt) {
			// Bytes arrived and they are no frame.
			if !c.seen {
				w.refuse(c, 0, statusRefused, errProtocol.Error())
			} else {
				w.refuse(c, 0, statusCorruptRequest, err.Error())
			}
		}
		return err
	}
	env, err := decodeCall(frame)
	if err != nil {
		w.refuse(c, 0, statusCorruptRequest, err.Error())
		return err
	}
	switch env.op {
	case opMap:
		return w.runMap(c, env)
	case opPing:
		return w.answer(c, env, PingReply{Worker: w.name, Jobs: w.registry.Names()})
	case opStats:
		return w.answer(c, env, w.StatsSnapshot())
	}
	err = fmt.Errorf("%w: unknown operation %d", persist.ErrCorrupt, env.op)
	w.refuse(c, env.id, statusCorruptRequest, err.Error())
	return err
}

// answer replies to a call that has no items with one value frame.
func (w *Worker) answer(c *wireConn, env call, v any) error {
	if err := c.skip(env.items); err != nil {
		return err
	}
	c.wbuf = appendReply(c.wbuf[:0], env.id, statusOK, 1, w.name, "")
	var err error
	if c.wbuf, err = persist.AppendValue(c.wbuf, v); err != nil {
		return w.fail(c, env.id, 0, err)
	}
	return c.flush()
}

// fail answers a call with statusJobError once the rest of its items
// (unread of them) have been read past, so the connection stays in step
// and serves the next call.
func (w *Worker) fail(c *wireConn, id uint64, unread uint32, cause error) error {
	if err := c.skip(unread); err != nil {
		return err
	}
	c.wbuf = appendReply(c.wbuf[:0], id, statusJobError, 0, w.name, fmt.Sprintf("dist: worker %s: %v", w.name, cause))
	return c.flush()
}

// refuse answers on a connection whose input cannot be followed any
// further (a damaged frame, bytes that are no frame) and lingers, its
// write side closed, until the peer has read the answer and hung up:
// closing with input unread would reset the connection and could take the
// answer with it.
func (w *Worker) refuse(c *wireConn, id uint64, status byte, text string) {
	c.wbuf = appendReply(c.wbuf[:0], id, status, 0, w.name, text)
	_ = c.c.SetDeadline(time.Now().Add(refuseLinger)) // a closed socket fails the write below
	if c.flush() != nil {
		return
	}
	if half, ok := c.c.(interface{ CloseWrite() error }); ok && half.CloseWrite() == nil {
		_, _ = io.Copy(io.Discard, c.c) // ends at the peer's hang-up or the deadline; either is the goal
	}
}

// runMap executes a batch of map tasks for a registered job: each split is
// decoded where it lies in the read buffer (its records alias it), mapped,
// and its result framed straight into the write buffer, so split k+1 may
// still be arriving while split k runs; the reply is written once, at the
// end. Armed one-shot faults (WorkerFaults) fire here: crash kills the
// worker after the first split, drop computes everything but hangs up
// before replying, corrupt flips a byte inside the first result frame,
// delay stalls the reply.
//
// With an observability bundle installed the handler records a span tree
// (decode, map+combine, encode per split) into the worker's own ring and
// — when the call asks for tracing — ships it back in a value frame
// for the pool to stitch. With no bundle every instrumentation line below
// is a nil check: the batch span is nil, Span methods are nil-receiver
// no-ops, and the histogram branches are skipped, adding zero allocations
// to the hot path (TestWorkerNoObsZeroAllocDelta).
//
// A returned error ends the connection.
func (w *Worker) runMap(c *wireConn, env call) error {
	delay, drop, corrupt, crash := w.faults.take()
	jobName := string(env.job)
	job, err := w.registry.Lookup(jobName)
	if err != nil {
		return w.fail(c, env.id, env.items, err)
	}
	obs := w.obs.Load()
	batchStart := time.Now()
	var batch *metrics.Span
	items := env.items
	if obs != nil && env.traced {
		batch = obs.Tracer.StartSlide(env.slideID, fmt.Sprintf("%s %s ×%d", w.name, jobName, env.items))
		batch.Event("trace %d parent %q", env.traceID, env.parent)
		items++ // the spans frame
	}
	// env's byte fields die with the first split read; nothing below uses them.
	c.wbuf = appendReply(c.wbuf[:0], env.id, statusOK, items, w.name, "")
	firstResult, firstEnd := len(c.wbuf), 0
	for idx := uint32(0); idx < env.items; idx++ {
		if crash && idx == 1 {
			// Mid-batch crash: one split computed, nothing delivered.
			w.Kill()
			return fmt.Errorf("dist: worker %s: injected crash", w.name)
		}
		var sp *metrics.Span
		if batch != nil {
			sp = batch.Child(fmt.Sprintf("split %d", idx))
		}
		frame, err := c.next()
		if err != nil {
			batch.End()
			if errors.Is(err, persist.ErrCorrupt) {
				w.corruptRequest(c, env.id, obs, sp, err)
			}
			return err
		}
		// Zero-copy decode: record strings alias the read buffer, which
		// keeps this frame until the next one is asked for.
		decStart := time.Now()
		dec := sp.Child("decode")
		split, err := persist.DecodeSplitZeroCopy(frame)
		dec.End()
		if err != nil {
			batch.End()
			w.corruptRequest(c, env.id, obs, sp, err)
			return err
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
			return w.fail(c, env.id, env.items-idx-1, err)
		}
		if obs != nil {
			obs.Map.Observe(time.Since(start))
		}
		// result.Cost, which travels, is the map task's own time; the
		// encoding below is in the encode histogram only.
		encStart := time.Now()
		enc := sp.Child("encode")
		c.wbuf, err = persist.AppendMapResult(c.wbuf, result)
		enc.End()
		if err != nil {
			batch.End()
			return w.fail(c, env.id, env.items-idx-1, err)
		}
		sp.End()
		if obs != nil {
			obs.Encode.Observe(time.Since(encStart))
		}
		if idx == 0 {
			firstEnd = len(c.wbuf)
		}
		w.served.Add(1)
	}
	if obs != nil {
		obs.Batch.Observe(time.Since(batchStart))
	}
	if batch != nil {
		batch.End()
		if c.wbuf, err = persist.AppendValue(c.wbuf, metrics.ExportWireSpans(batch)); err != nil {
			return w.fail(c, env.id, 0, err)
		}
	}
	if crash {
		// Single-split batch: crash after compute, before the reply.
		w.Kill()
		return fmt.Errorf("dist: worker %s: injected crash", w.name)
	}
	if corrupt && firstEnd > 0 {
		// The middle of the first result frame: inside its checksummed body.
		c.wbuf[(firstResult+firstEnd)/2] ^= 0xFF
	}
	if delay > 0 {
		timer := time.NewTimer(delay)
		select {
		case <-timer.C:
		case <-w.stop:
			timer.Stop()
		}
	}
	if drop {
		// Hang up before the reply is written; the healthy worker keeps
		// accepting reconnects.
		w.dropConns()
		return fmt.Errorf("dist: worker %s: injected drop", w.name)
	}
	return c.flush()
}

// corruptRequest counts and answers a call one of whose frames arrived
// damaged.
func (w *Worker) corruptRequest(c *wireConn, id uint64, obs *WorkerObs, sp *metrics.Span, cause error) {
	if obs != nil {
		obs.Faults.CorruptFrames.Add(1)
	}
	sp.Event("decode failed: %v", cause)
	w.refuse(c, id, statusCorruptRequest, cause.Error())
}
