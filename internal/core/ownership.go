package core

import (
	"fmt"
	"sync"
)

// OwnershipOracle is the release hook the ownership tests install in place
// of a recycler (see Releaser): instead of reusing a released payload's
// storage it overwrites every entry with a sentinel and keeps the storage,
// so that a wrong release — of a payload something still reads — shows at
// once and at a known place, not as a corrupted aggregate some slides on.
// After every step a test hands Scan what is reachable (Roots,
// ForEachPayload, Snapshot, a slide's evicted list, the output it keeps):
// nothing of it may sit in released storage or carry the sentinel. Payloads
// are slices of E here; the two payload types of the tests are []uint64 and
// mapreduce.Payload. An oracle is safe for concurrent use.
type OwnershipOracle[E any] struct {
	sentinel   E
	isSentinel func(E) bool

	mu   sync.Mutex
	dead map[*E][]E // released storage by its first entry; held so no address comes back
	err  error      // the first violation
}

// NewOwnershipOracle returns an oracle that scribbles sentinel, which
// isSentinel recognizes and no live payload holds.
func NewOwnershipOracle[E any](sentinel E, isSentinel func(E) bool) *OwnershipOracle[E] {
	return &OwnershipOracle[E]{sentinel: sentinel, isSentinel: isSentinel, dead: make(map[*E][]E)}
}

func (o *OwnershipOracle[E]) fail(format string, args ...any) {
	if o.err == nil {
		o.err = fmt.Errorf(format, args...)
	}
}

// Release is the hook: p dies. Releasing the same storage twice is a
// violation. A payload without storage has nothing to recycle and is let
// through.
func (o *OwnershipOracle[E]) Release(p []E) {
	if cap(p) == 0 {
		return
	}
	p = p[:cap(p)]
	o.mu.Lock()
	defer o.mu.Unlock()
	if _, twice := o.dead[&p[0]]; twice {
		o.fail("ownership: a payload of %d entries was released twice", len(p))
		return
	}
	o.dead[&p[0]] = p
	for i := range p {
		p[i] = o.sentinel
	}
}

// Scan checks a payload reachable through what: it must not be released
// storage and must not carry the sentinel.
func (o *OwnershipOracle[E]) Scan(what string, p []E) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if cap(p) > 0 {
		if _, dead := o.dead[&p[:1][0]]; dead {
			o.fail("ownership: %s holds a released payload", what)
			return
		}
	}
	for i, e := range p {
		if o.isSentinel(e) {
			o.fail("ownership: entry %d of %d of %s carries the released-storage sentinel", i, len(p), what)
			return
		}
	}
}

// Released returns the number of payloads released so far.
func (o *OwnershipOracle[E]) Released() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.dead)
}

// Err returns the first violation seen, or nil.
func (o *OwnershipOracle[E]) Err() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.err
}
