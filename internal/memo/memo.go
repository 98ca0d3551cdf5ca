// Package memo implements Slider's memoization layer (§6): an in-memory
// distributed cache coordinated by a master index, a fault-tolerant
// replicated persistent store, a shim I/O layer that serves reads from
// memory when possible and falls back to persistent replicas, and a
// garbage collector that frees state falling out of the sliding window.
//
// The cluster is simulated: a key's placement follows from the key, and
// the shim layer charges a read-cost model (memory vs. disk vs. network),
// which is what Table 2 of the paper measures. Correctness never depends
// on the cache: a failed node only makes reads slower (replica fallback),
// exactly as in the paper's design.
package memo

import (
	"errors"
	"fmt"
	"sync"

	"slider/internal/mapreduce"
	"slider/internal/metrics"
)

// Config describes the simulated memoization substrate.
type Config struct {
	// Nodes is the number of worker machines the cache and replicas
	// are spread over.
	Nodes int
	// Replicas is the number of persistent copies per entry (the paper
	// uses two).
	Replicas int
	// InMemory enables the in-memory cache layer; when false every
	// read is served from persistent storage (the ablation of Table 2).
	InMemory bool
}

// The shim I/O layer's cost model, calibrated so that in-memory caching
// saves roughly the 50–68% of read time the paper reports in Table 2 —
// real deployments never see the raw RAM/disk gap because part of every
// read is protocol and network overhead.
const (
	// memReadNsPerKB, diskReadNsPerKB and netReadNsPerKB are the per-KiB
	// part of a read: from a node's RAM, from a persistent replica, and
	// the network hop a read from another node adds to either.
	memReadNsPerKB  = 4000
	diskReadNsPerKB = 9000
	netReadNsPerKB  = 4500
	// memReadOverheadNs and diskReadOverheadNs are the fixed per-read
	// latencies (RPC round trip vs. disk seek + RPC). They make the
	// caching benefit depend on an application's state sizes: small
	// payloads are latency-bound, large payloads bandwidth-bound.
	memReadOverheadNs  = 300_000
	diskReadOverheadNs = 900_000
	// memWriteNsPerKB and diskWriteNsPerKB are the write costs: every Put
	// pays one in-memory write plus one persistent write per replica.
	// These writes are the initial-run overhead the paper measures in
	// Figure 13 ("I/O costs for memoizing the intermediate results").
	memWriteNsPerKB  = 300
	diskWriteNsPerKB = 1200
)

// DefaultConfig returns the memoization configuration used by the
// experiments: 24 nodes, 2 replicas, in-memory caching on.
func DefaultConfig() Config {
	return Config{Nodes: 24, Replicas: 2, InMemory: true}
}

func (c *Config) normalize() {
	if c.Nodes <= 0 {
		c.Nodes = 1
	}
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
}

// entry is one memoized object tracked by the master index. Its placement
// is not stored: the home node is HomeNode(key), and replica i (1 ≤ i ≤
// Replicas) lives on (home+i) % Nodes.
type entry struct {
	value  any
	size   int64
	lo, hi uint64
	cached bool // the home node's RAM holds a copy
}

// Stats summarizes the layer's activity.
type Stats struct {
	Hits        int64 // reads served from the in-memory cache
	Misses      int64 // reads served from persistent replicas
	ReadTimeNs  int64 // simulated time spent reading memoized state
	WriteTimeNs int64 // simulated time spent writing memoized state
	Bytes       int64 // bytes currently resident (cache + replicas counted once)
	Entries     int64 // live entries
	Evicted     int64 // entries garbage-collected so far
	Unavailable int64 // reads refused because every replica was down
}

// ErrNotFound is returned when a key is absent from the layer entirely.
var ErrNotFound = errors.New("memo: not found")

// ErrUnavailable is returned when a key is memoized but unreadable right
// now: its in-memory copy is gone (evicted, or the caching node failed)
// and every persistent replica is on a failed node. Unlike ErrNotFound
// the entry still exists and becomes readable again after RecoverNode;
// callers treat both as a miss and recompute the value, which is always
// safe because memoized nodes are deterministic functions of their
// inputs (the MapReduce fault model).
var ErrUnavailable = errors.New("memo: all replicas unavailable")

// Store is the fault-tolerant memoization layer. It is safe for concurrent
// use: one mutex guards the index, the failed-node set, the counters and
// the latency observers. A slide makes a few operations per split and per
// partition, each a map access and some arithmetic, so they do not queue
// behind the lock for long.
type Store struct {
	cfg Config

	mu    sync.Mutex
	index map[string]entry
	down  map[int]bool // failed nodes
	stats Stats        // Bytes and Entries are kept current by every change

	// readObs and writeObs, when set, receive one observation per charged
	// read/write — the simulated per-operation latency distribution the
	// flat ReadTimeNs/WriteTimeNs totals cannot show (SetLatencyObservers).
	readObs, writeObs *metrics.Histogram
}

// NewStore returns an empty memoization layer.
func NewStore(cfg Config) *Store {
	cfg.normalize()
	return &Store{cfg: cfg, index: make(map[string]entry), down: make(map[int]bool)}
}

// SetLatencyObservers installs histograms receiving one observation per
// charged read and write (their simulated cost from the shim layer's
// model). Either may be nil to leave that side unobserved. Safe to call
// while the store is in use.
func (s *Store) SetLatencyObservers(read, write *metrics.Histogram) {
	s.mu.Lock()
	s.readObs, s.writeObs = read, write
	s.mu.Unlock()
}

// observe reports one charged cost (ns) to h, if set. Callers have
// released the lock: the histogram synchronizes itself.
func observe(h *metrics.Histogram, cost int64) {
	if h != nil {
		h.ObserveNs(cost)
	}
}

// HomeNode returns the node whose RAM would cache the given key. The
// scheduler uses it to co-locate contraction/reduce tasks with their
// memoized inputs.
func (s *Store) HomeNode(key string) int {
	nodes := s.cfg.Nodes
	if nodes <= 0 {
		// A Store built by NewStore always has Nodes ≥ 1 (normalize), but
		// a zero-value Store must not panic on uint32(0) modulo.
		nodes = 1
	}
	return int(mapreduce.HashKey32(key) % uint32(nodes))
}

// writeCost is the simulated time to memoize size bytes: one in-memory
// write plus one persistent write per replica.
func (s *Store) writeCost(size int64) int64 {
	kb := (size + 1023) / 1024
	return kb*memWriteNsPerKB + int64(s.cfg.Replicas)*kb*diskWriteNsPerKB
}

// Put memoizes value under key and returns the simulated write time (the
// in-memory insert plus one persistent write per replica). lo/hi describe
// the window interval (e.g. split sequence numbers) the value depends on,
// consumed by GC.
func (s *Store) Put(key string, value any, size int64, lo, hi uint64) int64 {
	home := s.HomeNode(key)
	cost := s.writeCost(size)
	s.mu.Lock()
	old, existed := s.index[key]
	s.index[key] = entry{value: value, size: size, lo: lo, hi: hi, cached: s.cfg.InMemory && !s.down[home]}
	if !existed {
		s.stats.Entries++
	}
	s.stats.Bytes += size - old.size
	s.stats.WriteTimeNs += cost
	obs := s.writeObs
	s.mu.Unlock()
	observe(obs, cost)
	return cost
}

// ChargeWrite charges the write-cost model for memoizing size bytes of
// state without creating an index entry (bulk accounting of
// contraction-tree node writes).
func (s *Store) ChargeWrite(size int64) int64 {
	cost := s.writeCost(size)
	s.mu.Lock()
	s.stats.WriteTimeNs += cost
	obs := s.writeObs
	s.mu.Unlock()
	observe(obs, cost)
	return cost
}

// Get reads a memoized value through the shim I/O layer from the
// perspective of a task running on fromNode: an in-memory copy costs
// memory (+network if remote) time; otherwise the nearest live persistent
// replica costs disk (+network) time. It returns ErrNotFound when the key
// is unknown.
func (s *Store) Get(key string, fromNode int) (any, error) {
	home := s.HomeNode(key)
	s.mu.Lock()
	e, ok := s.index[key]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("memo: key %q: %w", key, ErrNotFound)
	}
	kb := (e.size + 1023) / 1024
	var cost int64
	if e.cached && !s.down[home] {
		cost = memReadOverheadNs + kb*memReadNsPerKB
		if fromNode >= 0 && fromNode != home {
			cost += kb * netReadNsPerKB
		}
		s.stats.Hits++
	} else {
		// Fall back to a persistent replica; prefer a local one. If every
		// replica is on a failed node the value is temporarily unreadable —
		// report the typed miss so the caller recomputes instead of erroring.
		live, local := false, false
		for i := 1; i <= s.cfg.Replicas; i++ {
			if r := (home + i) % s.cfg.Nodes; !s.down[r] {
				live = true
				local = local || r == fromNode
			}
		}
		if !live {
			s.stats.Unavailable++
			s.mu.Unlock()
			return nil, fmt.Errorf("memo: key %q: %w", key, ErrUnavailable)
		}
		cost = diskReadOverheadNs + kb*diskReadNsPerKB
		if !local {
			cost += kb * netReadNsPerKB
		}
		// Re-populate the in-memory cache on the home node (read-repair).
		if s.cfg.InMemory && !s.down[home] {
			e.cached = true
			s.index[key] = e
		}
		s.stats.Misses++
	}
	s.stats.ReadTimeNs += cost
	obs := s.readObs
	s.mu.Unlock()
	observe(obs, cost)
	return e.value, nil
}

// Contains reports whether key is memoized, without charging a read.
func (s *Store) Contains(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.index[key]
	return ok
}

// Delete removes a key outright.
func (s *Store) Delete(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.index[key]; ok {
		delete(s.index, key)
		s.evict(e)
	}
}

// evict counts e out of the resident totals; the caller holds the lock and
// has removed it from the index.
func (s *Store) evict(e entry) {
	s.stats.Entries--
	s.stats.Bytes -= e.size
	s.stats.Evicted++
}

// GC frees every entry whose interval ended before windowLo — the
// automatic policy of §6 ("free the storage occupied by data items that
// fall out of the current window"). It returns the number of entries
// collected.
func (s *Store) GC(windowLo uint64) int {
	return s.sweep(func(_ string, e entry) bool { return e.hi < windowLo })
}

// GCFunc frees entries selected by a user-defined policy (the paper's
// "more aggressive user-defined policy"). drop runs with the store locked
// and must not call it.
func (s *Store) GCFunc(drop func(key string, lo, hi uint64, size int64) bool) int {
	return s.sweep(func(k string, e entry) bool { return drop(k, e.lo, e.hi, e.size) })
}

// sweep removes every entry selected by drop.
func (s *Store) sweep(drop func(key string, e entry) bool) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	collected := 0
	for k, e := range s.index {
		if drop(k, e) {
			delete(s.index, k)
			s.evict(e)
			collected++
		}
	}
	return collected
}

// FailNode simulates the crash of a machine: its in-memory cache contents
// are lost and its persistent replicas become unreachable until
// RecoverNode. Reads transparently fall back to surviving replicas.
func (s *Store) FailNode(node int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.down[node] = true
	for k, e := range s.index {
		if e.cached && s.HomeNode(k) == node {
			e.cached = false
			s.index[k] = e
		}
	}
}

// RecoverNode brings a failed machine back (with empty RAM).
func (s *Store) RecoverNode(node int) {
	s.mu.Lock()
	delete(s.down, node)
	s.mu.Unlock()
}

// Stats returns a snapshot of the layer's counters. Resident bytes and
// entry counts are maintained incrementally (Put/Delete/GC), so the
// snapshot is O(1) instead of a walk over the whole index.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// ResetReadStats clears the read counters (between measured runs).
func (s *Store) ResetReadStats() {
	s.mu.Lock()
	s.stats.Hits, s.stats.Misses, s.stats.ReadTimeNs = 0, 0, 0
	s.mu.Unlock()
}
