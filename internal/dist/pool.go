package dist

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"slices"
	"sort"
	"sync"
	"time"

	"slider/internal/mapreduce"
	"slider/internal/metrics"
	"slider/internal/persist"
)

// ErrNoWorkers is returned when every worker is unreachable.
var ErrNoWorkers = errors.New("dist: no live workers")

// ErrRetryBudget is returned when a batch exhausted its per-batch retry
// budget before every split completed (some workers were still live, so
// the cause is flapping or slowness rather than total loss).
var ErrRetryBudget = errors.New("dist: retry budget exhausted")

// ErrDeadline marks a call abandoned at its per-task deadline.
var ErrDeadline = errors.New("dist: task deadline exceeded")

// IncompleteError reports a RunMap batch that could not finish remotely.
// It carries the splits that did complete, so callers can salvage them:
// sliderrt's local fallback re-executes only the missing splits
// in-process. Err is the underlying cause (ErrNoWorkers or
// ErrRetryBudget); errors.Is sees through it.
type IncompleteError struct {
	// Results holds one slot per requested split, in split order; only
	// slots with Done[i] true are valid.
	Results []mapreduce.MapResult
	// Done marks which splits completed before the pool gave up. A split
	// is marked at most once (first result wins), so salvaged results are
	// never double-counted.
	Done []bool
	// Err is the underlying cause.
	Err error
}

func (e *IncompleteError) Error() string {
	done := 0
	for _, d := range e.Done {
		if d {
			done++
		}
	}
	return fmt.Sprintf("dist: batch incomplete (%d/%d splits done): %v", done, len(e.Done), e.Err)
}

func (e *IncompleteError) Unwrap() error { return e.Err }

// Completed returns the salvageable results. It implements the
// partial-result carrier interface sliderrt's local fallback looks for.
func (e *IncompleteError) Completed() ([]mapreduce.MapResult, []bool) { return e.Results, e.Done }

// PoolConfig tunes the pool's fault-tolerance machinery. The zero value
// selects the documented defaults; negative durations/counts disable the
// corresponding mechanism where noted.
type PoolConfig struct {
	// DialTimeout bounds every TCP connect (initial and redial).
	// Default 2s.
	DialTimeout time.Duration
	// TaskTimeout is the per-task deadline for one batched map call, set
	// on the socket for the whole exchange; an expired call is abandoned,
	// its connection closed, and its splits re-executed elsewhere.
	// Default 30s; negative disables deadlines.
	TaskTimeout time.Duration
	// RetryBudget caps, per RunMap batch, how many split re-executions
	// (failure retries plus hedges) and failed redials may be spent
	// before the pool reports a partial result. Default 4×splits+8;
	// negative removes the cap.
	RetryBudget int
	// BackoffBase and BackoffMax shape the jittered exponential backoff
	// applied to failed workers (redial gating) and between failed
	// rounds. Defaults 25ms and 2s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// BreakerThreshold is the number of consecutive failures that opens
	// a worker's circuit breaker. Default 3.
	BreakerThreshold int
	// BreakerCooldown is the initial open→half-open delay; it doubles on
	// every failed probe, capped at BackoffMax. Default 250ms.
	BreakerCooldown time.Duration
	// HealthInterval is the background health-checker period: open
	// workers whose cooldown elapsed are probed with Ping and revived on
	// success. Default 500ms; negative disables the checker (workers
	// still revive on demand, gated by the same breaker state).
	HealthInterval time.Duration
	// StatsInterval is the metrics-federation poll period: the pool pulls
	// every live worker's Stats snapshot (fault counters plus per-phase
	// latency histograms) and caches it for ClusterStats, which /metrics
	// renders with per-worker labels and cluster aggregates. Default 1s;
	// negative disables polling (PollStats still works on demand).
	StatsInterval time.Duration
	// Hedge enables speculative execution: when a round's in-flight work
	// has been outstanding longer than the HedgeQuantile of recent batch
	// latencies (and at least HedgeMin), the still-pending splits are
	// duplicated on an idle live worker. First result wins — safe
	// because map tasks are deterministic and side-effect-free.
	Hedge bool
	// HedgeQuantile is the latency quantile that arms a hedge.
	// Default 0.95.
	HedgeQuantile float64
	// HedgeMin is the floor below which no hedge fires (also the
	// threshold used before any latency samples exist). Default 20ms.
	HedgeMin time.Duration
	// Faults receives the pool's fault-tolerance event counters; nil
	// allocates a private recorder (see Pool.FaultStats). Share one
	// recorder with sliderrt.Config.Faults to see the whole degradation
	// ladder in a single snapshot.
	Faults *metrics.FaultRecorder
	// Tracer, when non-nil, lets the pool attach events (retries, hedges,
	// budget exhaustion) to the currently active slide span
	// (metrics.Tracer.Active), correlating fault handling with the slide
	// that suffered it. Share the runtime's tracer
	// (sliderrt.Config.Obs.Tracer).
	Tracer *metrics.Tracer
	// Seed fixes the backoff-jitter RNG (tests); 0 seeds from the clock.
	Seed int64
}

func (c *PoolConfig) normalize() {
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.TaskTimeout == 0 {
		c.TaskTimeout = 30 * time.Second
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 25 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 2 * time.Second
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 250 * time.Millisecond
	}
	if c.HealthInterval == 0 {
		c.HealthInterval = 500 * time.Millisecond
	}
	if c.StatsInterval == 0 {
		c.StatsInterval = time.Second
	}
	if c.HedgeQuantile <= 0 || c.HedgeQuantile >= 1 {
		c.HedgeQuantile = 0.95
	}
	if c.HedgeMin <= 0 {
		c.HedgeMin = 20 * time.Millisecond
	}
	if c.Faults == nil {
		c.Faults = &metrics.FaultRecorder{}
	}
	if c.Seed == 0 {
		c.Seed = time.Now().UnixNano()
	}
}

// Pool dispatches map tasks across a set of workers and implements the
// runtime's MapRunner hook (sliderrt.Config.MapRunner). Splits are spread
// round-robin; every call runs under a per-task deadline; a failed worker's
// splits are re-executed on the survivors (map tasks are deterministic
// and side-effect-free, so re-execution is always safe — the MapReduce
// fault model). Down workers revive through a per-worker circuit breaker
// (closed → open → half-open) with jittered exponential backoff, probed
// on demand and by a background health checker, so a dead host never
// sees a reconnect stampede. Optionally the pool hedges slow rounds by
// duplicating still-pending splits on an idle worker; the first result
// wins. When a batch cannot finish remotely the pool returns an
// *IncompleteError carrying the splits that did complete.
type Pool struct {
	jobName string
	cfg     PoolConfig
	faults  *metrics.FaultRecorder
	tracer  *metrics.Tracer

	mu      sync.Mutex
	workers []*poolWorker
	next    int
	// retries counts splits that were re-queued after a worker error.
	retries int64
	rng     *rand.Rand
	closed  bool

	healthStop chan struct{}
	healthWG   sync.WaitGroup

	// statsMu guards the federation cache (latest Stats snapshot per
	// worker address), written by the stats poller and read by
	// ClusterStats — deliberately separate from mu so a scrape never
	// contends with batch dispatch.
	statsMu sync.Mutex
	stats   map[string]metrics.NodeStats
}

type poolWorker struct {
	addr     string
	conn     *wireConn
	down     bool
	probing  bool // a revival attempt is in flight
	inflight int  // outstanding batches (hedges target idle workers)
	brk      breaker
}

// NewPool connects to the given worker addresses for the named job with
// the default configuration. At least one worker must be reachable;
// unreachable ones are marked down and revived through the breaker.
func NewPool(jobName string, addrs []string) (*Pool, error) {
	return NewPoolConfig(jobName, addrs, PoolConfig{})
}

// NewPoolConfig is NewPool with explicit fault-tolerance tuning.
func NewPoolConfig(jobName string, addrs []string, cfg PoolConfig) (*Pool, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("dist: pool needs at least one worker address")
	}
	cfg.normalize()
	p := &Pool{
		jobName: jobName,
		cfg:     cfg,
		faults:  cfg.Faults,
		tracer:  cfg.Tracer,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		stats:   make(map[string]metrics.NodeStats),
	}
	live := 0
	now := time.Now()
	for _, addr := range addrs {
		w := &poolWorker{addr: addr}
		if conn, err := p.connect(addr); err == nil {
			w.conn = conn
			live++
		} else {
			w.down = true
			w.brk.onFailure(now, p.brkCfg(), p.rng)
		}
		p.workers = append(p.workers, w)
	}
	if live == 0 {
		p.Close()
		return nil, ErrNoWorkers
	}
	if cfg.HealthInterval > 0 || cfg.StatsInterval > 0 {
		p.healthStop = make(chan struct{})
	}
	if cfg.HealthInterval > 0 {
		p.healthWG.Add(1)
		go p.healthLoop()
	}
	if cfg.StatsInterval > 0 {
		p.healthWG.Add(1)
		go p.statsLoop()
	}
	return p, nil
}

// connect dials one worker and pings it on the connection it then keeps,
// so a peer that accepts and is no worker of this protocol never counts as
// live. The timeout bounds the dial and the ping each.
func (p *Pool) connect(addr string) (*wireConn, error) {
	conn, _, err := dialPing(addr, p.cfg.DialTimeout)
	return conn, err
}

func dialPing(addr string, timeout time.Duration) (*wireConn, PingReply, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, PingReply{}, err
	}
	conn := newWireConn(nc)
	var reply PingReply
	if err := conn.value(opPing, timeout, &reply); err != nil {
		nc.Close()
		if errors.Is(err, os.ErrDeadlineExceeded) {
			err = ErrDeadline
		}
		return nil, PingReply{}, fmt.Errorf("dist: ping %s: %w", addr, err)
	}
	return conn, reply, nil
}

func (p *Pool) brkCfg() breakerConfig {
	return breakerConfig{
		threshold:   p.cfg.BreakerThreshold,
		baseBackoff: p.cfg.BackoffBase,
		maxBackoff:  p.cfg.BackoffMax,
		cooldown:    p.cfg.BreakerCooldown,
	}
}

// Close releases all connections and stops the health checker. A RunMap
// in flight on another goroutine is unblocked — closing a socket fails the
// read it waits in — and returns ErrNoWorkers with what it had.
func (p *Pool) Close() {
	p.mu.Lock()
	alreadyClosed := p.closed
	p.closed = true
	for _, w := range p.workers {
		if w.conn != nil {
			w.conn.c.Close()
			w.conn = nil
		}
		w.down = true
	}
	p.mu.Unlock()
	if !alreadyClosed && p.healthStop != nil {
		close(p.healthStop)
		p.healthWG.Wait()
	}
}

// Retries reports how many splits were re-queued after worker failures.
func (p *Pool) Retries() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.retries
}

// LiveWorkers reports how many workers are currently considered up.
func (p *Pool) LiveWorkers() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, w := range p.workers {
		if !w.down {
			n++
		}
	}
	return n
}

func (p *Pool) isClosed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

// FaultStats snapshots the pool's fault-tolerance event counters.
func (p *Pool) FaultStats() metrics.FaultStats { return p.faults.Snapshot() }

// healthLoop is the background health checker: it periodically probes
// down workers whose breaker cooldown has elapsed with a ping and
// revives them on success, driving the open → half-open → closed cycle
// even while no batches run.
func (p *Pool) healthLoop() {
	defer p.healthWG.Done()
	ticker := time.NewTicker(p.cfg.HealthInterval)
	defer ticker.Stop()
	for {
		select {
		case <-p.healthStop:
			return
		case <-ticker.C:
			p.probeDown()
		}
	}
}

// statsLoop is the metrics-federation poller: it periodically pulls
// every live worker's Stats snapshot into the ClusterStats cache.
func (p *Pool) statsLoop() {
	defer p.healthWG.Done()
	ticker := time.NewTicker(p.cfg.StatsInterval)
	defer ticker.Stop()
	for {
		select {
		case <-p.healthStop:
			return
		case <-ticker.C:
			p.PollStats()
		}
	}
}

// PollStats pulls a Stats snapshot from every live worker right now and
// caches it for ClusterStats. A poll never queues behind a batch: a
// connection that is busy is skipped and, like a worker that fails to
// answer, keeps its previous snapshot. Stats failures never trip the
// breaker — liveness is the health checker's and the RunMap path's job,
// and poisoning a worker over a monitoring call would let observability
// degrade the work; a connection a poll failed on is out of step, so it
// is dropped and the next contact redials at once.
func (p *Pool) PollStats() {
	type target struct {
		w    *poolWorker
		conn *wireConn
	}
	var targets []target
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	for _, w := range p.workers {
		if !w.down && w.conn != nil {
			targets = append(targets, target{w: w, conn: w.conn})
		}
	}
	p.mu.Unlock()
	for _, t := range targets {
		if !t.conn.mu.TryLock() {
			continue
		}
		var stats metrics.NodeStats
		err := t.conn.value(opStats, p.cfg.DialTimeout, &stats)
		t.conn.mu.Unlock()
		if err != nil {
			p.failContact(t.w, t.conn, false)
			continue
		}
		stats.Addr = t.w.addr
		p.statsMu.Lock()
		p.stats[t.w.addr] = stats
		p.statsMu.Unlock()
	}
}

// ClusterStats returns the pool's federated view of its workers: the
// latest Stats snapshot per worker address, ordered by address. Fold it
// with Merged() for cluster aggregates.
func (p *Pool) ClusterStats() metrics.ClusterStats {
	p.statsMu.Lock()
	addrs := make([]string, 0, len(p.stats))
	for addr := range p.stats {
		addrs = append(addrs, addr)
	}
	sort.Strings(addrs)
	out := metrics.ClusterStats{Workers: make([]metrics.NodeStats, 0, len(addrs))}
	for _, addr := range addrs {
		out.Workers = append(out.Workers, p.stats[addr])
	}
	p.statsMu.Unlock()
	return out
}

// probeDown pings every down worker the breaker allows and revives the
// responsive ones.
func (p *Pool) probeDown() {
	now := time.Now()
	var cands []*poolWorker
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	for _, w := range p.workers {
		if w.down && !w.probing && w.brk.allow(now) {
			if w.brk.probe() {
				p.faults.BreakerHalfOpen.Add(1)
			}
			w.probing = true
			cands = append(cands, w)
		}
	}
	p.mu.Unlock()
	for _, w := range cands {
		conn, err := p.connect(w.addr)
		p.settleProbe(w, conn, err)
	}
}

// settleProbe installs the result of one revival attempt: the connection
// the ping went over, or the failure.
func (p *Pool) settleProbe(w *poolWorker, conn *wireConn, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	w.probing = false
	if p.closed {
		if conn != nil {
			conn.c.Close()
		}
		return
	}
	if err != nil {
		if w.brk.onFailure(time.Now(), p.brkCfg(), p.rng) {
			p.faults.BreakerOpened.Add(1)
		}
		return
	}
	w.conn = conn
	w.down = false
	if w.brk.onSuccess() {
		p.faults.BreakerClosed.Add(1)
	}
}

// ensureLive redials down workers whose breaker/backoff state permits a
// contact attempt right now — revival on demand, stampede-proof because
// each failure pushes the worker's next eligible contact further out.
// Failed redials charge the batch's retry budget when one is supplied.
// It returns how many redials were attempted and how many workers are
// live afterwards.
func (p *Pool) ensureLive(budget *int) (attempted, live int) {
	now := time.Now()
	var cands []*poolWorker
	p.mu.Lock()
	for _, w := range p.workers {
		if !w.down {
			live++
			continue
		}
		if w.probing || !w.brk.allow(now) {
			continue
		}
		if w.brk.probe() {
			p.faults.BreakerHalfOpen.Add(1)
		}
		w.probing = true
		cands = append(cands, w)
	}
	p.mu.Unlock()
	for _, w := range cands {
		attempted++
		p.faults.Redials.Add(1)
		conn, err := p.connect(w.addr)
		if err != nil && budget != nil {
			*budget--
		}
		p.settleProbe(w, conn, err)
		if err == nil {
			live++
		}
	}
	return attempted, live
}

// batchAssign is one worker's share of a round.
type batchAssign struct {
	w       *poolWorker
	conn    *wireConn
	indices []int
}

// assign spreads the unfinished splits round-robin across live workers. A
// worker that still has a batch in flight — a straggler whose splits a
// hedge delivered, so that its RunMap returned without it — is passed over
// while anyone idle is live, as hedgeAssign passes it over: its connection
// is held until it answers or its deadline expires, and a batch queued
// behind it would wait that out before its own deadline even starts.
func (p *Pool) assign(done []bool) []*batchAssign {
	p.mu.Lock()
	defer p.mu.Unlock()
	var live []*poolWorker
	idle := 0
	for _, w := range p.workers {
		if !w.down && w.conn != nil {
			live = append(live, w)
			if w.inflight == 0 {
				idle++
			}
		}
	}
	if len(live) == 0 {
		return nil
	}
	if idle > 0 && idle < len(live) {
		live = slices.DeleteFunc(live, func(w *poolWorker) bool { return w.inflight > 0 })
	}
	byWorker := make(map[*poolWorker]*batchAssign, len(live))
	var out []*batchAssign
	for i := range done {
		if done[i] {
			continue
		}
		w := live[p.next%len(live)]
		p.next++
		a := byWorker[w]
		if a == nil {
			a = &batchAssign{w: w, conn: w.conn}
			byWorker[w] = a
			out = append(out, a)
		}
		a.indices = append(a.indices, i)
	}
	for _, a := range out {
		a.w.inflight++
	}
	return out
}

// hedgeAssign duplicates the round's still-pending splits onto an idle
// live worker (one that has no batch in flight), or returns nil when no
// such worker exists or nothing is pending.
func (p *Pool) hedgeAssign(done []bool) *batchAssign {
	var pending []int
	for i, d := range done {
		if !d {
			pending = append(pending, i)
		}
	}
	if len(pending) == 0 {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, w := range p.workers {
		if !w.down && w.conn != nil && w.inflight == 0 {
			w.inflight++
			return &batchAssign{w: w, conn: w.conn, indices: pending}
		}
	}
	return nil
}

// batchOutcome is one completed (or failed) batch call.
type batchOutcome struct {
	a *batchAssign
	// results holds the decoded results of the batch's first len(results)
	// splits: all of them, or those that arrived whole before err.
	results []mapreduce.MapResult
	err     error
	fatal   bool // deterministic failure: do not retry
	elapsed time.Duration
	hedge   bool
}

// mapRun is what the batches of one RunMap share: the job, and the
// caller's splits for as long as they are the pool's to read. A sender
// frames its splits holding mu for reading and RunMap takes it for writing
// once, to set over, before it returns — so a sender that comes to its
// connection late (it queued behind a straggler, and a hedge finished the
// round meanwhile) finds over set and sends nothing, and none reads a
// split the caller has back and may be refilling.
type mapRun struct {
	job    *mapreduce.Job
	splits []mapreduce.Split
	mu     sync.RWMutex
	over   bool
}

// frame appends the splits at indices to the call c is building and returns
// their ids, which is all of them a sender needs from then on.
func (r *mapRun) frame(c *wireConn, indices []int) ([]string, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.over {
		return nil, errAbandoned
	}
	ids := make([]string, len(indices))
	for k, i := range indices {
		ids[k] = r.splits[i].ID
		var err error
		if c.wbuf, err = persist.AppendSplit(c.wbuf, r.splits[i]); err != nil {
			return nil, err
		}
	}
	return ids, nil
}

// end is RunMap returning: the splits are the caller's again.
func (r *mapRun) end() {
	r.mu.Lock()
	r.over = true
	r.mu.Unlock()
}

// errAbandoned is the outcome of a batch whose RunMap returned before it
// was sent. Nobody reads it off the outcomes channel.
var errAbandoned = errors.New("dist: batch abandoned, its RunMap has returned")

// launch issues one batch call asynchronously. The sender records the
// transport outcome against the worker (breaker, latency) itself — a
// failure where it happens, in runBatch — so a late result still heals or
// trips state even if the collector has moved on; outcomes is buffered, so
// abandoned senders never block. A sender ends when its exchange does — at
// the reply, the deadline, or the connection's Close — and leaves nothing
// behind.
//
// When a slide span is active, each launch — original, retry, or hedge —
// gets its own attempt span under it carrying the trace context to the
// worker, and a successful response's worker spans are stitched in
// anchored at the pool-observed send time and clamped to the observed
// call window (clock skew cannot move them outside the attempt).
func (p *Pool) launch(a *batchAssign, run *mapRun, outcomes chan<- batchOutcome, hedge bool) {
	env := call{op: opMap, items: uint32(len(a.indices))}
	var attempt *metrics.Span
	var label string
	if parent := p.span(); parent != nil {
		label = "rpc " + a.w.addr
		if hedge {
			label += " (hedge)"
		}
		attempt = parent.Child(label)
		attempt.Event("%d splits", len(a.indices))
		env.traced, env.traceID, env.slideID = true, attempt.TraceID(), attempt.SlideID()
	}
	go func() {
		start := time.Now()
		o := batchOutcome{a: a, hedge: hedge}
		spans := p.runBatch(&o, env, label, run)
		o.elapsed = time.Since(start)
		p.mu.Lock()
		a.w.inflight--
		p.mu.Unlock()
		switch {
		case o.err == nil:
			p.noteSuccess(a.w, o.elapsed)
			metrics.StitchWireSpans(attempt, spans, start, o.elapsed)
		case o.fatal:
			attempt.Event("rejected: %v", o.err)
		default:
			attempt.Event("failed after %v: %v", o.elapsed.Round(time.Millisecond), o.err)
		}
		attempt.End()
		outcomes <- o
	}()
}

// runBatch is one exchange on the assignment's connection, which it holds
// from the first split framed into the write buffer to the last result
// decoded out of the read buffer: the call envelope and the batch's
// splits are built where they are sent from and written once; each result
// frame is decoded where it arrives — the payloads' key arenas and entry
// slices are the only copy made, and they are the leaves the window keeps
// — and checked against the id of the split it answers. The splits
// themselves are read only while they are framed (mapRun): the reply may
// come long after RunMap has returned. It fills o.results with what
// arrived whole, and o.err/o.fatal; after any failure that leaves the
// stream out of step the contact is failed here, before the lock is
// released, so nobody reads a stranger's bytes.
func (p *Pool) runBatch(o *batchOutcome, env call, parent string, run *mapRun) []metrics.WireSpan {
	c, indices := o.a.conn, o.a.indices
	c.mu.Lock()
	defer c.mu.Unlock()
	c.begin(env, p.jobName, parent)
	ids, err := run.frame(c, indices)
	if err != nil {
		// Nothing was sent: the connection is in step. A split that cannot
		// be framed here cannot be framed anywhere.
		o.err, o.fatal = err, err != errAbandoned
		return nil
	}
	rep, err := c.exchange(p.cfg.TaskTimeout)
	if err != nil {
		var remote *RemoteError
		if errors.As(err, &remote) {
			// The worker answered: transport is healthy, the job itself
			// failed (unknown job, map error). Deterministic — re-running
			// elsewhere cannot help.
			o.err, o.fatal = fmt.Errorf("dist: worker rejected batch: %w", err), true
			return nil
		}
		return p.broken(o, err)
	}
	if n := int(rep.items); n != len(indices) && !(env.traced && n == len(indices)+1) {
		o.fatal = true
		return p.broken(o, fmt.Errorf("dist: worker %s returned %d results for %d splits", rep.worker, n, len(indices)))
	}
	traced := int(rep.items) > len(indices)
	o.results = make([]mapreduce.MapResult, 0, len(indices))
	for _, id := range ids {
		frame, err := c.next()
		if err != nil {
			return p.broken(o, err)
		}
		res, err := persist.DecodeMapResult(frame)
		if err != nil {
			return p.broken(o, err)
		}
		if res.SplitID != id || len(res.Parts) != run.job.NumPartitions() {
			return p.broken(o, fmt.Errorf("%w: result for split %q with %d partitions where split %q with %d belongs",
				persist.ErrCorrupt, res.SplitID, len(res.Parts), id, run.job.NumPartitions()))
		}
		o.results = append(o.results, res)
	}
	if !traced {
		return nil
	}
	var spans []metrics.WireSpan
	frame, err := c.next()
	if err == nil {
		err = persist.Decode(frame, &spans)
	}
	if err != nil {
		return p.broken(o, err)
	}
	return spans
}

// broken records the failure of an exchange that leaves the connection
// out of step — an expired deadline (a late reply must not be taken for
// the next call's), a transport error, a frame that does not check out —
// and fails the contact, which closes the socket.
func (p *Pool) broken(o *batchOutcome, err error) []metrics.WireSpan {
	p.failContact(o.a.w, o.a.conn, true)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		p.faults.DeadlinesExpired.Add(1)
		err = fmt.Errorf("%w (%v)", ErrDeadline, p.cfg.TaskTimeout)
	}
	o.err = err
	return nil
}

// noteSuccess heals the worker's breaker and records the batch latency
// into the shared fault recorder's RPC histogram (the hedging quantile's
// sample source, exported via FaultStats).
func (p *Pool) noteSuccess(w *poolWorker, elapsed time.Duration) {
	p.faults.RPCLatency.Observe(elapsed)
	p.mu.Lock()
	defer p.mu.Unlock()
	if w.brk.onSuccess() {
		p.faults.BreakerClosed.Add(1)
	}
}

// span returns the slide span the pool should attach events to, or nil
// when no tracer is configured or no slide is active (Span methods are
// nil-safe, so callers annotate unconditionally).
func (p *Pool) span() *metrics.Span { return p.tracer.Active() }

// failContact takes a worker out of service after a failure on conn: the
// connection is closed and the worker marked down. With trip its breaker
// backs off as well — a transport-level failure or a corrupt frame; without
// (a failed stats poll) the next contact redials at once. A stale
// connection (already replaced by a redial) is ignored.
func (p *Pool) failContact(w *poolWorker, conn *wireConn, trip bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if w.conn != conn {
		return
	}
	if w.conn != nil {
		w.conn.c.Close()
		w.conn = nil
	}
	w.down = true
	if trip && w.brk.onFailure(time.Now(), p.brkCfg(), p.rng) {
		p.faults.BreakerOpened.Add(1)
	}
}

// hedgeThreshold returns how long a round may be outstanding before a
// hedge fires: the configured quantile of observed batch latencies,
// floored at HedgeMin.
func (p *Pool) hedgeThreshold() time.Duration {
	th := p.faults.RPCLatency.Quantile(p.cfg.HedgeQuantile)
	if th < p.cfg.HedgeMin {
		th = p.cfg.HedgeMin
	}
	return th
}

// RunMap implements mapreduce.MapRunner: it executes the splits on the
// worker pool and returns results in split order. Each round assigns
// every unfinished split round-robin to a live worker and issues one
// batched, deadline-bounded call per worker in parallel; failed batches
// are re-executed on survivors, slow rounds are hedged on idle workers,
// and when the pool cannot finish (all workers dead, or the retry budget
// exhausted) it returns an *IncompleteError carrying the completed
// splits so the caller can degrade gracefully.
func (p *Pool) RunMap(job *mapreduce.Job, splits []mapreduce.Split) ([]mapreduce.MapResult, error) {
	if job.Name != p.jobName {
		return nil, fmt.Errorf("dist: pool serves job %q, got %q", p.jobName, job.Name)
	}
	run := &mapRun{job: job, splits: splits}
	defer run.end()
	results := make([]mapreduce.MapResult, len(splits))
	done := make([]bool, len(splits))
	remaining := len(splits)
	budget := p.cfg.RetryBudget
	switch {
	case budget < 0:
		budget = math.MaxInt
	case budget == 0:
		budget = 4*len(splits) + 8
	}
	partial := func(cause error) error {
		doneCount := 0
		for _, d := range done {
			if d {
				doneCount++
			}
		}
		p.span().Event("pool: batch incomplete (%d/%d splits done): %v", doneCount, len(done), cause)
		return &IncompleteError{Results: results, Done: done, Err: cause}
	}
	var idleSlept time.Duration
	for round := 0; remaining > 0; round++ {
		if p.isClosed() {
			return nil, partial(ErrNoWorkers)
		}
		attempted, live := p.ensureLive(&budget)
		assigns := p.assign(done)
		if len(assigns) == 0 {
			// Nobody is assignable. If a revival was just attempted and
			// everyone is still dead, fail fast — the caller's local
			// fallback beats waiting, and the background health checker
			// keeps probing for the next batch. Otherwise wait out the
			// shortest backoff once, bounded so a batch never stalls.
			if live == 0 && (attempted > 0 || !p.anyRevivalPending()) {
				return nil, partial(ErrNoWorkers)
			}
			if budget <= 0 {
				p.faults.BudgetExhausted.Add(1)
				return nil, partial(p.deadCause())
			}
			wait := p.nextRevival(time.Now())
			if wait < time.Millisecond {
				wait = time.Millisecond
			}
			if idleSlept += wait; idleSlept > p.cfg.BackoffMax {
				return nil, partial(ErrNoWorkers)
			}
			time.Sleep(wait)
			continue
		}
		outcomes := make(chan batchOutcome, len(assigns)+1)
		inflight := 0
		for _, a := range assigns {
			p.launch(a, run, outcomes, false)
			inflight++
		}
		var hedgeC <-chan time.Time
		var hedgeTimer *time.Timer
		if p.cfg.Hedge {
			hedgeTimer = time.NewTimer(p.hedgeThreshold())
			hedgeC = hedgeTimer.C
		}
		roundFailures := 0
		for inflight > 0 && remaining > 0 {
			select {
			case o := <-outcomes:
				inflight--
				newDone, err := p.absorb(o, results, done, &remaining, &budget, &roundFailures)
				if err != nil {
					if hedgeTimer != nil {
						hedgeTimer.Stop()
					}
					return nil, err
				}
				if o.hedge && newDone > 0 {
					p.faults.HedgesWon.Add(1)
					p.span().Event("pool: hedge won %d splits", newDone)
				}
			case <-hedgeC:
				hedgeC = nil // at most one hedge per round
				if a := p.hedgeAssign(done); a != nil {
					p.faults.HedgesLaunched.Add(1)
					p.span().Event("pool: hedge launched on %s (%d splits)", a.w.addr, len(a.indices))
					budget -= len(a.indices)
					p.launch(a, run, outcomes, true)
					inflight++
				}
			}
		}
		if hedgeTimer != nil {
			hedgeTimer.Stop()
		}
		if remaining == 0 {
			break
		}
		if budget <= 0 {
			p.faults.BudgetExhausted.Add(1)
			return nil, partial(p.deadCause())
		}
		if roundFailures > 0 {
			time.Sleep(p.roundBackoff(round + 1))
		}
	}
	return results, nil
}

// roundBackoff draws the between-rounds backoff delay with the pool's
// RNG held under the lock (rand.Rand is not safe for concurrent use —
// the health checker shares it).
func (p *Pool) roundBackoff(attempt int) time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	return backoffDelay(p.cfg.BackoffBase, p.cfg.BackoffMax, attempt, p.rng)
}

// absorb folds one batch outcome into the result set and returns how
// many splits it newly completed. First result wins: a split already
// completed (by a hedge twin or an earlier round) is never re-counted,
// so results cannot be double-counted when workers die mid-batch. Of a
// batch that failed part-way, the results that arrived whole — each under
// its own checksum, each checked against the split it answers — are kept,
// and the batch is re-executed from the first missing or corrupt one on.
func (p *Pool) absorb(o batchOutcome, results []mapreduce.MapResult, done []bool, remaining, budget, roundFailures *int) (int, error) {
	if o.fatal {
		return 0, o.err
	}
	newDone := 0
	for k, res := range o.results {
		i := o.a.indices[k]
		if done[i] {
			continue // hedge twin or earlier round already delivered it
		}
		results[i] = res
		done[i] = true
		*remaining--
		newDone++
	}
	if o.err != nil {
		if errors.Is(o.err, persist.ErrCorrupt) || errors.Is(o.err, errCorruptRequest) {
			// A frame damaged on its way out or back: the checksummed
			// codec caught it; never compute on corrupt data.
			p.faults.CorruptFrames.Add(1)
		}
		p.span().Event("pool: batch on %s failed after %v: %v", o.a.w.addr, o.elapsed.Round(time.Millisecond), o.err)
		p.requeue(o.a.indices[len(o.results):], done, budget)
		*roundFailures++
	}
	return newDone, nil
}

// requeue charges the retry accounting for a failed batch's still-undone
// splits (they will be re-executed in a later round).
func (p *Pool) requeue(indices []int, done []bool, budget *int) {
	n := 0
	for _, i := range indices {
		if !done[i] {
			n++
		}
	}
	if n == 0 {
		return
	}
	p.mu.Lock()
	p.retries += int64(n)
	p.mu.Unlock()
	p.faults.Retries.Add(int64(n))
	*budget -= n
}

// deadCause distinguishes total worker loss from budget exhaustion.
func (p *Pool) deadCause() error {
	if p.LiveWorkers() == 0 {
		return ErrNoWorkers
	}
	return ErrRetryBudget
}

// anyRevivalPending reports whether some down worker could become
// eligible for a revival attempt later (i.e. waiting can help).
func (p *Pool) anyRevivalPending() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, w := range p.workers {
		if w.down {
			return true
		}
	}
	return false
}

// nextRevival returns how long until the earliest down worker becomes
// eligible for a revival attempt.
func (p *Pool) nextRevival(now time.Time) time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	best := p.cfg.BackoffMax
	for _, w := range p.workers {
		if !w.down || w.probing {
			continue
		}
		if d := w.brk.until.Sub(now); d < best {
			best = d
		}
	}
	if best < 0 {
		best = 0
	}
	return best
}

// Ping probes a worker address directly (diagnostics and tests).
func Ping(addr string) (PingReply, error) {
	conn, reply, err := dialPing(addr, 2*time.Second)
	if err != nil {
		return PingReply{}, err
	}
	conn.c.Close()
	return reply, nil
}
