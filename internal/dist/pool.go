package dist

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/rpc"
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

// ErrDeadline marks an RPC abandoned at its per-task deadline.
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
	// TaskTimeout is the per-task deadline for one batched map RPC; an
	// expired call is abandoned, its connection closed, and its splits
	// re-executed elsewhere. Default 30s; negative disables deadlines.
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
// round-robin; every RPC carries a per-task deadline; a failed worker's
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
	client   *rpc.Client
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
		if client, err := p.dial(addr); err == nil {
			w.client = client
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

// dial connects to one worker with the configured timeout.
func (p *Pool) dial(addr string) (*rpc.Client, error) {
	conn, err := net.DialTimeout("tcp", addr, p.cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	return rpc.NewClient(conn), nil
}

func (p *Pool) brkCfg() breakerConfig {
	return breakerConfig{
		threshold:   p.cfg.BreakerThreshold,
		baseBackoff: p.cfg.BackoffBase,
		maxBackoff:  p.cfg.BackoffMax,
		cooldown:    p.cfg.BreakerCooldown,
	}
}

// Close releases all connections and stops the health checker.
func (p *Pool) Close() {
	p.mu.Lock()
	alreadyClosed := p.closed
	p.closed = true
	for _, w := range p.workers {
		if w.client != nil {
			w.client.Close()
			w.client = nil
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

// FaultStats snapshots the pool's fault-tolerance event counters.
func (p *Pool) FaultStats() metrics.FaultStats { return p.faults.Snapshot() }

// healthLoop is the background health checker: it periodically probes
// down workers whose breaker cooldown has elapsed with the Ping RPC and
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
// caches it for ClusterStats. A worker that fails to answer keeps its
// previous snapshot; stats failures never trip the breaker — liveness is
// the health checker's and the RunMap path's job, and poisoning a worker
// over a monitoring RPC would let observability degrade the work.
func (p *Pool) PollStats() {
	type target struct {
		addr   string
		client *rpc.Client
	}
	var targets []target
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	for _, w := range p.workers {
		if !w.down && w.client != nil {
			targets = append(targets, target{addr: w.addr, client: w.client})
		}
	}
	p.mu.Unlock()
	for _, t := range targets {
		var reply StatsReply
		call := t.client.Go("Slider.Stats", StatsArgs{}, &reply, make(chan *rpc.Call, 1))
		timer := time.NewTimer(p.cfg.DialTimeout)
		select {
		case c := <-call.Done:
			timer.Stop()
			if c.Error != nil {
				continue
			}
		case <-timer.C:
			continue
		}
		p.statsMu.Lock()
		p.stats[t.addr] = metrics.NodeStats{
			Node:   reply.Worker,
			Addr:   t.addr,
			Served: reply.Served,
			Faults: reply.Faults,
			Hists:  reply.Hists,
		}
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
		_, err := pingAddr(w.addr, p.cfg.DialTimeout)
		var client *rpc.Client
		if err == nil {
			client, err = p.dial(w.addr)
		}
		p.settleProbe(w, client, err)
	}
}

// settleProbe installs the result of one revival attempt.
func (p *Pool) settleProbe(w *poolWorker, client *rpc.Client, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	w.probing = false
	if p.closed {
		if client != nil {
			client.Close()
		}
		return
	}
	if err != nil {
		if client != nil {
			client.Close()
		}
		if w.brk.onFailure(time.Now(), p.brkCfg(), p.rng) {
			p.faults.BreakerOpened.Add(1)
		}
		return
	}
	if w.client != nil {
		w.client.Close()
	}
	w.client = client
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
		client, err := p.dial(w.addr)
		if err != nil && budget != nil {
			*budget--
		}
		p.settleProbe(w, client, err)
		if err == nil {
			live++
		}
	}
	return attempted, live
}

// batchAssign is one worker's share of a round.
type batchAssign struct {
	w       *poolWorker
	client  *rpc.Client
	indices []int
}

// assign spreads the unfinished splits round-robin across live workers.
func (p *Pool) assign(done []bool) []*batchAssign {
	p.mu.Lock()
	defer p.mu.Unlock()
	var live []*poolWorker
	for _, w := range p.workers {
		if !w.down && w.client != nil {
			live = append(live, w)
		}
	}
	if len(live) == 0 {
		return nil
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
			a = &batchAssign{w: w, client: w.client}
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
		if !w.down && w.client != nil && w.inflight == 0 {
			w.inflight++
			return &batchAssign{w: w, client: w.client, indices: pending}
		}
	}
	return nil
}

// batchOutcome is one completed (or failed) batch RPC.
type batchOutcome struct {
	a       *batchAssign
	resp    MapResponse
	err     error
	fatal   bool // application-level error: do not retry
	elapsed time.Duration
	hedge   bool
}

// launch issues one batch RPC asynchronously. The sender records the
// transport outcome against the worker (breaker, latency) itself, so a
// late result still heals or trips state even if the collector has moved
// on; outcomes is buffered, so abandoned senders never block.
//
// When a slide span is active, each launch — original, retry, or hedge —
// gets its own attempt span under it carrying the trace context to the
// worker, and a successful response's worker spans are stitched in
// anchored at the pool-observed send time and clamped to the observed
// RPC window (clock skew cannot move them outside the attempt).
func (p *Pool) launch(a *batchAssign, frames [][]byte, outcomes chan<- batchOutcome, hedge bool) {
	req := MapRequest{JobName: p.jobName, SplitFrames: make([][]byte, 0, len(a.indices))}
	for _, i := range a.indices {
		req.SplitFrames = append(req.SplitFrames, frames[i])
	}
	var attempt *metrics.Span
	if parent := p.span(); parent != nil {
		label := "rpc " + a.w.addr
		if hedge {
			label += " (hedge)"
		}
		attempt = parent.Child(label)
		attempt.Event("%d splits", len(a.indices))
		req.Trace = true
		req.TraceID = attempt.TraceID()
		req.SlideID = attempt.SlideID()
		req.ParentSpan = label
	}
	go func() {
		start := time.Now()
		var resp MapResponse
		err := p.call(a.client, req, &resp)
		elapsed := time.Since(start)
		p.mu.Lock()
		a.w.inflight--
		p.mu.Unlock()
		fatal := false
		if err == nil {
			p.noteSuccess(a.w, elapsed)
			metrics.StitchWireSpans(attempt, resp.Spans, start, elapsed)
		} else if _, ok := err.(rpc.ServerError); ok {
			// The worker answered: transport is healthy, the job itself
			// failed (unknown job, map error). Deterministic — re-running
			// elsewhere cannot help.
			fatal = true
			attempt.Event("rejected: %v", err)
		} else {
			p.failContact(a.w, a.client)
			attempt.Event("failed after %v: %v", elapsed.Round(time.Millisecond), err)
		}
		attempt.End()
		outcomes <- batchOutcome{a: a, resp: resp, err: err, fatal: fatal, elapsed: elapsed, hedge: hedge}
	}()
}

// call performs one RPC under the per-task deadline.
func (p *Pool) call(client *rpc.Client, req MapRequest, resp *MapResponse) error {
	if p.cfg.TaskTimeout <= 0 {
		return client.Call("Slider.RunMap", req, resp)
	}
	call := client.Go("Slider.RunMap", req, resp, make(chan *rpc.Call, 1))
	timer := time.NewTimer(p.cfg.TaskTimeout)
	defer timer.Stop()
	select {
	case c := <-call.Done:
		return c.Error
	case <-timer.C:
		p.faults.DeadlinesExpired.Add(1)
		// The reply may still arrive on this connection; failContact
		// closes it so a late result cannot be misattributed.
		return fmt.Errorf("%w (%v)", ErrDeadline, p.cfg.TaskTimeout)
	}
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

// failContact poisons the worker after a transport-level failure: the
// connection is closed, the worker marked down, and its breaker backs
// off. A stale client (already replaced by a redial) is ignored.
func (p *Pool) failContact(w *poolWorker, client *rpc.Client) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if w.client != client {
		return
	}
	if w.client != nil {
		w.client.Close()
		w.client = nil
	}
	w.down = true
	if w.brk.onFailure(time.Now(), p.brkCfg(), p.rng) {
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
// batched, deadline-bounded RPC per worker in parallel; failed batches
// are re-executed on survivors, slow rounds are hedged on idle workers,
// and when the pool cannot finish (all workers dead, or the retry budget
// exhausted) it returns an *IncompleteError carrying the completed
// splits so the caller can degrade gracefully.
func (p *Pool) RunMap(job *mapreduce.Job, splits []mapreduce.Split) ([]mapreduce.MapResult, error) {
	if job.Name != p.jobName {
		return nil, fmt.Errorf("dist: pool serves job %q, got %q", p.jobName, job.Name)
	}
	frames := make([][]byte, len(splits))
	for i := range splits {
		frame, err := persist.EncodeSplit(splits[i])
		if err != nil {
			return nil, err
		}
		frames[i] = frame
	}
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
			p.launch(a, frames, outcomes, false)
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
				newDone, err := p.absorb(o, job, results, done, &remaining, &budget, &roundFailures)
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
					p.launch(a, frames, outcomes, true)
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
// so results cannot be double-counted when workers die mid-batch.
func (p *Pool) absorb(o batchOutcome, job *mapreduce.Job, results []mapreduce.MapResult, done []bool, remaining, budget, roundFailures *int) (int, error) {
	if o.fatal {
		return 0, fmt.Errorf("dist: worker rejected batch: %w", o.err)
	}
	if o.err != nil {
		p.span().Event("pool: batch on %s failed after %v: %v", o.a.w.addr, o.elapsed.Round(time.Millisecond), o.err)
		p.requeue(o.a.indices, done, budget)
		*roundFailures++
		return 0, nil
	}
	if len(o.resp.Results) != len(o.a.indices) {
		return 0, fmt.Errorf("dist: worker %s returned %d results for %d splits",
			o.resp.Worker, len(o.resp.Results), len(o.a.indices))
	}
	newDone := 0
	for k, i := range o.a.indices {
		if done[i] {
			continue // hedge twin or earlier round already delivered it
		}
		decoded, err := decodeResult(o.resp.Results[k], job.NumPartitions())
		if err != nil {
			// Corrupted frame: the node produced garbage — treat it as a
			// worker failure and re-execute the rest of the batch
			// elsewhere (the checksummed codec caught it; never compute
			// on corrupt data).
			p.faults.CorruptFrames.Add(1)
			p.failContact(o.a.w, o.a.client)
			p.requeue(o.a.indices[k:], done, budget)
			*roundFailures++
			return newDone, nil
		}
		results[i] = decoded
		done[i] = true
		*remaining--
		newDone++
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

// decodeResult converts a wire result back to a mapreduce.MapResult.
func decodeResult(r MapResult, partitions int) (mapreduce.MapResult, error) {
	if len(r.PartFrames) != partitions {
		return mapreduce.MapResult{}, fmt.Errorf(
			"dist: result for split %s has %d partitions, want %d",
			r.SplitID, len(r.PartFrames), partitions)
	}
	out := mapreduce.MapResult{
		SplitID: r.SplitID,
		Parts:   make([]mapreduce.Payload, partitions),
		Cost:    time.Duration(r.CostNs),
		Bytes:   r.Bytes,
		Records: r.Records,
	}
	if len(r.PartBytes) == partitions {
		out.PartBytes = r.PartBytes
	}
	for i, frame := range r.PartFrames {
		p, err := persist.DecodePayload(frame)
		if err != nil {
			return mapreduce.MapResult{}, err
		}
		out.Parts[i] = p
	}
	return out, nil
}

// Ping probes a worker address directly (diagnostics and tests).
func Ping(addr string) (PingReply, error) {
	return pingAddr(addr, 2*time.Second)
}

// pingAddr is Ping with an explicit connect + call deadline.
func pingAddr(addr string, timeout time.Duration) (PingReply, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return PingReply{}, err
	}
	client := rpc.NewClient(conn)
	defer client.Close()
	var reply PingReply
	call := client.Go("Slider.Ping", PingArgs{}, &reply, make(chan *rpc.Call, 1))
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case c := <-call.Done:
		return reply, c.Error
	case <-timer.C:
		return PingReply{}, fmt.Errorf("dist: ping %s: %w", addr, ErrDeadline)
	}
}
