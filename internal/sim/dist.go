package sim

import (
	"fmt"
	"strconv"
	"time"

	"slider/internal/dist"
	"slider/internal/mapreduce"
	"slider/internal/metrics"
)

// chaosTaskTimeout and chaosDelay are tuned together: an injected delay
// overshoots the pool's per-task deadline, so one OpWorkerDelay exercises
// the whole slow-worker path — hedge fires first (threshold is far below
// the delay), then the original RPC is abandoned at its deadline and the
// worker breaker trips.
const (
	chaosTaskTimeout = 250 * time.Millisecond
	chaosDelay       = 400 * time.Millisecond
)

// chaosCluster is the distributed execution fabric chaos traces run
// against: real TCP workers plus one pool with aggressive
// fault-tolerance tuning, shared by every replica of the lockstep
// ensemble (RunMap calls are sequential across replicas). A one-shot
// fault armed by a worker op fires on whichever replica's batch reaches
// that worker next — the differential oracle then proves the outcome is
// identical either way, which is the whole point: timing is real, but
// every check is timing-independent.
type chaosCluster struct {
	reg     *dist.Registry
	workers []*dist.Worker
	addrs   []string
	pool    *dist.Pool
	rec     *metrics.FaultRecorder
}

// newChaosCluster starts the workers and the pool; the workers serve the
// sim job of the given trace seed.
func newChaosCluster(n int, seed uint64) (*chaosCluster, error) {
	c := &chaosCluster{reg: &dist.Registry{}, rec: &metrics.FaultRecorder{}}
	if err := c.reg.Register("sim-wordcount", func() *mapreduce.Job { return simJob(seed) }); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		w, err := dist.NewWorker("chaos-w"+strconv.Itoa(i), "127.0.0.1:0", c.reg)
		if err != nil {
			c.Close()
			return nil, err
		}
		w.SetObs(dist.NewWorkerObs())
		c.workers = append(c.workers, w)
		c.addrs = append(c.addrs, w.Addr())
	}
	pool, err := dist.NewPoolConfig("sim-wordcount", c.addrs, dist.PoolConfig{
		TaskTimeout:     chaosTaskTimeout,
		BackoffBase:     2 * time.Millisecond,
		BackoffMax:      50 * time.Millisecond,
		BreakerCooldown: 5 * time.Millisecond,
		HealthInterval:  5 * time.Millisecond,
		StatsInterval:   5 * time.Millisecond,
		Hedge:           true,
		HedgeMin:        20 * time.Millisecond,
		Faults:          c.rec,
		Seed:            1, // deterministic backoff jitter
	})
	if err != nil {
		c.Close()
		return nil, err
	}
	c.pool = pool
	return c, nil
}

// worker maps a trace op's Node onto a worker index.
func (c *chaosCluster) worker(node int) *dist.Worker {
	return c.workers[node%len(c.workers)]
}

// apply arms (or performs) one worker fault op.
func (c *chaosCluster) apply(op Op) error {
	switch op.Kind {
	case OpWorkerCrash:
		c.worker(op.Node).Faults().InjectCrash()
	case OpWorkerRestart:
		return c.restart(op.Node)
	case OpWorkerDelay:
		c.worker(op.Node).Faults().InjectDelay(chaosDelay)
	case OpWorkerDrop:
		c.worker(op.Node).Faults().InjectDrop()
	case OpWorkerCorrupt:
		c.worker(op.Node).Faults().InjectCorrupt()
	}
	return nil
}

// restart replaces worker node with a fresh one on the same address, so
// the pool's breaker-gated redial and health probes can revive it. A
// still-running worker is killed first, which also clears any armed
// faults.
func (c *chaosCluster) restart(node int) error {
	i := node % len(c.workers)
	c.workers[i].Kill()
	w, err := dist.NewWorker("chaos-w"+strconv.Itoa(i), c.addrs[i], c.reg)
	if err != nil {
		// The OS may not hand the port back immediately; a failed
		// restart just leaves the worker down, which the trace and the
		// degradation ladder already tolerate.
		return nil
	}
	w.SetObs(dist.NewWorkerObs())
	c.workers[i] = w
	return nil
}

// Close tears the cluster down.
func (c *chaosCluster) Close() {
	if c.pool != nil {
		c.pool.Close()
	}
	for _, w := range c.workers {
		w.Close()
	}
}

// faultLine renders the cluster's fault counters (test logs).
func (c *chaosCluster) faultLine() string {
	return fmt.Sprintf("dist faults: %s", c.rec.Snapshot())
}
