package dist

import (
	"math/rand"
	"time"
)

// breaker is the per-worker circuit-breaker and backoff state. It is not
// self-locking: the owning Pool's mutex guards every access, which keeps
// the state machine trivial. A breaker is closed (the pool may send the
// worker work) or open (it leaves the worker alone while a cooldown
// elapses). Only a revival contacts a down worker, so the classic
// half-open state is an open breaker whose revival is in flight.
// Failures below the threshold still push the next contact attempt out by
// a jittered exponential backoff, so even a closed breaker never produces
// a reconnect stampede.
type breaker struct {
	open     bool
	failures int           // consecutive failures
	until    time.Time     // earliest next contact (dial or probe)
	cooldown time.Duration // current open-state cooldown (doubles per re-open)
}

// allow reports whether the worker may be contacted now: closed breakers
// outside their backoff window always may; open breakers only once the
// cooldown has elapsed (the contact then counts as the half-open probe).
func (b *breaker) allow(now time.Time) bool {
	return now.After(b.until) || now.Equal(b.until)
}

// onSuccess resets the breaker after a successful contact. Returns true
// when this closed an open breaker.
func (b *breaker) onSuccess() bool {
	reopened := b.open
	*b = breaker{}
	return reopened
}

// onFailure records a failed contact: the next attempt is pushed out by a
// jittered exponential backoff, and once the consecutive-failure count
// reaches the threshold (or a half-open probe fails) the breaker opens
// with a cooldown that doubles per re-open. Returns true when it (re)opened
// the breaker.
func (b *breaker) onFailure(now time.Time, cfg *PoolConfig, rng *rand.Rand) bool {
	b.failures++
	if !b.open && b.failures < cfg.BreakerThreshold {
		b.until = now.Add(backoffDelay(cfg.BackoffBase, cfg.BackoffMax, b.failures, rng))
		return false
	}
	if b.cooldown == 0 {
		b.cooldown = cfg.BreakerCooldown
	} else {
		b.cooldown = min(2*b.cooldown, cfg.BackoffMax)
	}
	b.open = true
	b.until = now.Add(jitter(b.cooldown, rng))
	return true
}

// backoffDelay returns the attempt-th exponential backoff delay with
// ±25% jitter: base·2^(attempt−1), capped at max.
func backoffDelay(base, max time.Duration, attempt int, rng *rand.Rand) time.Duration {
	if base <= 0 {
		base = time.Millisecond
	}
	d := base
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	return jitter(d, rng)
}

// jitter spreads a delay uniformly over [0.75d, 1.25d] so synchronized
// clients (or a fleet of pools) do not reconnect in lockstep.
func jitter(d time.Duration, rng *rand.Rand) time.Duration {
	if d <= 0 || rng == nil {
		return d
	}
	spread := int64(d) / 2
	if spread <= 0 {
		return d
	}
	return time.Duration(int64(d)*3/4 + rng.Int63n(spread))
}
