// Package memo implements Slider's memoization layer (§6): an in-memory
// distributed cache coordinated by a master index, a fault-tolerant
// replicated persistent store, a shim I/O layer that serves reads from
// memory when possible and falls back to persistent replicas, and a
// garbage collector that frees state falling out of the sliding window.
//
// The cluster is simulated: entries carry node placements and the shim
// layer charges a read-cost model (memory vs. disk vs. network), which is
// what Table 2 of the paper measures. Correctness never depends on the
// cache: a failed node only makes reads slower (replica fallback), exactly
// as in the paper's design.
package memo

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"slider/internal/metrics"
)

// Config describes the simulated memoization substrate.
type Config struct {
	// Nodes is the number of worker machines holding cache shards.
	Nodes int
	// Replicas is the number of persistent copies per entry (the paper
	// uses two).
	Replicas int
	// InMemory enables the in-memory cache layer; when false every
	// read is served from persistent storage (the ablation of Table 2).
	InMemory bool
	// MemReadNsPerKB, DiskReadNsPerKB and NetReadNsPerKB parameterize
	// the per-byte part of the simulated read-cost model.
	MemReadNsPerKB  int64
	DiskReadNsPerKB int64
	NetReadNsPerKB  int64
	// MemReadOverheadNs and DiskReadOverheadNs are the fixed per-read
	// latencies (RPC round trip vs. disk seek + RPC). They make the
	// caching benefit depend on an application's state sizes: small
	// payloads are latency-bound, large payloads bandwidth-bound.
	MemReadOverheadNs  int64
	DiskReadOverheadNs int64
	// MemWriteNsPerKB and DiskWriteNsPerKB parameterize memoization
	// write costs: every Put pays one in-memory write plus one
	// persistent write per replica. These writes are the initial-run
	// overhead the paper measures in Figure 13 ("I/O costs for
	// memoizing the intermediate results").
	MemWriteNsPerKB  int64
	DiskWriteNsPerKB int64
}

// DefaultConfig returns the memoization configuration used by the
// experiments: 24 nodes, 2 replicas, in-memory caching on, and a read
// cost model (RAM vs. disk vs. network hop) calibrated so that in-memory
// caching saves roughly the 50–68% of read time the paper reports in
// Table 2 — real deployments never see the raw RAM/disk gap because part
// of every read is protocol and network overhead.
func DefaultConfig() Config {
	return Config{
		Nodes:              24,
		Replicas:           2,
		InMemory:           true,
		MemReadNsPerKB:     4000,
		DiskReadNsPerKB:    9000,
		NetReadNsPerKB:     4500,
		MemReadOverheadNs:  300_000,
		DiskReadOverheadNs: 900_000,
		MemWriteNsPerKB:    300,
		DiskWriteNsPerKB:   1200,
	}
}

func (c *Config) normalize() {
	if c.Nodes <= 0 {
		c.Nodes = 1
	}
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.MemReadNsPerKB <= 0 {
		c.MemReadNsPerKB = 250
	}
	if c.DiskReadNsPerKB <= 0 {
		c.DiskReadNsPerKB = 10000
	}
	if c.NetReadNsPerKB <= 0 {
		c.NetReadNsPerKB = 8000
	}
	if c.MemReadOverheadNs < 0 {
		c.MemReadOverheadNs = 0
	}
	if c.DiskReadOverheadNs < 0 {
		c.DiskReadOverheadNs = 0
	}
	if c.MemWriteNsPerKB < 0 {
		c.MemWriteNsPerKB = 0
	}
	if c.DiskWriteNsPerKB < 0 {
		c.DiskWriteNsPerKB = 0
	}
}

// entry is one memoized object tracked by the master index. Its fields
// are guarded by the owning shard's mutex.
type entry struct {
	value    any
	size     int64
	memNode  int   // node whose RAM caches the object (-1 when evicted)
	replicas []int // nodes holding persistent copies
	lo, hi   uint64
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

// numShards is the power-of-two number of index shards. 64 comfortably
// exceeds the partition workers a run has in flight, so two concurrent
// accesses rarely collide on a
// shard lock; the per-shard footprint (a map header and a mutex) keeps the
// empty store cheap.
const numShards = 64

// indexShard is one hash shard of the master index: a slice of the key
// space behind its own mutex, padded so neighbouring shards' locks do
// not share a cache line.
type indexShard struct {
	mu    sync.Mutex
	index map[string]*entry
	_     [48]byte
}

// Store is the fault-tolerant memoization layer. It is safe for concurrent
// use: the master index is split into power-of-two hash shards with
// per-shard mutexes, the activity counters are atomics, and the
// failed-node set is a copy-on-write snapshot — so concurrent tree
// workers reading, writing, and charging the cost model never serialize
// behind a single lock. The read- and write-cost models and GC semantics
// are identical to the single-mutex implementation.
type Store struct {
	cfg    Config
	shards [numShards]indexShard

	// down is a copy-on-write snapshot of the failed-node set, read on
	// every Get/Put without locking. failMu serializes the
	// rare writers (FailNode/RecoverNode).
	down   atomic.Pointer[map[int]bool]
	failMu sync.Mutex

	hits     atomic.Int64
	misses   atomic.Int64
	readNs   atomic.Int64
	writeNs  atomic.Int64
	evicted  atomic.Int64
	entries  atomic.Int64
	resident atomic.Int64 // sum of live entry sizes
	// unavailable counts reads refused because the home node and every
	// replica were down (ErrUnavailable).
	unavailable atomic.Int64

	// readObs and writeObs, when set, receive one observation per charged
	// read/write — the simulated per-operation latency distribution the
	// flat readNs/writeNs totals cannot show (SetLatencyObservers).
	readObs  atomic.Pointer[metrics.Histogram]
	writeObs atomic.Pointer[metrics.Histogram]
}

// NewStore returns an empty memoization layer.
func NewStore(cfg Config) *Store {
	cfg.normalize()
	s := &Store{cfg: cfg}
	for i := range s.shards {
		s.shards[i].index = make(map[string]*entry)
	}
	return s
}

// SetLatencyObservers installs histograms receiving one observation per
// charged read and write (their simulated cost from the shim layer's
// model). Either may be nil to leave that side unobserved. Safe to call
// while the store is in use; the fast path is one atomic pointer load
// when unset.
func (s *Store) SetLatencyObservers(read, write *metrics.Histogram) {
	s.readObs.Store(read)
	s.writeObs.Store(write)
}

// observeRead/observeWrite report one charged cost (ns) to the installed
// observer, if any.
func (s *Store) observeRead(cost int64) {
	if h := s.readObs.Load(); h != nil {
		h.ObserveNs(cost)
	}
}

func (s *Store) observeWrite(cost int64) {
	if h := s.writeObs.Load(); h != nil {
		h.ObserveNs(cost)
	}
}

// shardFor returns the index shard owning key.
func (s *Store) shardFor(key string) *indexShard {
	return &s.shards[hashKey32(key)&(numShards-1)]
}

// hashKey32 is the allocation-free FNV-1a used for both node placement
// and shard selection (bit-identical to hash/fnv over the same bytes).
func hashKey32(key string) uint32 {
	const (
		offset32 uint32 = 2166136261
		prime32  uint32 = 16777619
	)
	h := offset32
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return h
}

// isDown reports whether node's RAM and replicas are currently
// unreachable, against the latest copy-on-write snapshot.
func (s *Store) isDown(node int) bool {
	m := s.down.Load()
	return m != nil && (*m)[node]
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
	return int(hashKey32(key) % uint32(nodes))
}

// replicaNodes returns the persistent-replica placement for a key's home
// node — the single source of truth shared by Put (placement) and Get
// (lookup).
func (s *Store) replicaNodes(home int) []int {
	nodes := s.cfg.Nodes
	if nodes <= 0 {
		nodes = 1
	}
	reps := make([]int, 0, s.cfg.Replicas)
	for i := 1; i <= s.cfg.Replicas; i++ {
		reps = append(reps, (home+i)%nodes)
	}
	return reps
}

// Put memoizes value under key and returns the simulated write time (the
// in-memory insert plus one persistent write per replica). lo/hi describe
// the window interval (e.g. split sequence numbers) the value depends on,
// consumed by GC.
func (s *Store) Put(key string, value any, size int64, lo, hi uint64) int64 {
	home := s.HomeNode(key)
	replicas := s.replicaNodes(home)
	mem := home
	if !s.cfg.InMemory || s.isDown(home) {
		mem = -1
	}
	sh := s.shardFor(key)
	sh.mu.Lock()
	old, existed := sh.index[key]
	sh.index[key] = &entry{value: value, size: size, memNode: mem, replicas: replicas, lo: lo, hi: hi}
	sh.mu.Unlock()
	if existed {
		s.resident.Add(size - old.size)
	} else {
		s.entries.Add(1)
		s.resident.Add(size)
	}
	kb := (size + 1023) / 1024
	cost := kb * s.cfg.MemWriteNsPerKB
	cost += int64(len(replicas)) * kb * s.cfg.DiskWriteNsPerKB
	s.writeNs.Add(cost)
	s.observeWrite(cost)
	return cost
}

// ChargeWrite charges the write-cost model for memoizing size bytes of
// state without creating an index entry (bulk accounting of
// contraction-tree node writes). It touches only atomic counters, so
// concurrent partition workers never serialize here.
func (s *Store) ChargeWrite(size int64) int64 {
	kb := (size + 1023) / 1024
	cost := kb * s.cfg.MemWriteNsPerKB
	cost += int64(s.cfg.Replicas) * kb * s.cfg.DiskWriteNsPerKB
	s.writeNs.Add(cost)
	s.observeWrite(cost)
	return cost
}

// Get reads a memoized value through the shim I/O layer from the
// perspective of a task running on fromNode: an in-memory copy costs
// memory (+network if remote) time; otherwise the nearest live persistent
// replica costs disk (+network) time. It returns ErrNotFound when the key
// is unknown.
func (s *Store) Get(key string, fromNode int) (any, error) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	e, ok := sh.index[key]
	if !ok {
		sh.mu.Unlock()
		return nil, fmt.Errorf("memo: key %q: %w", key, ErrNotFound)
	}
	kb := (e.size + 1023) / 1024
	if e.memNode >= 0 && !s.isDown(e.memNode) {
		memNode := e.memNode
		value := e.value
		sh.mu.Unlock()
		cost := s.cfg.MemReadOverheadNs + kb*s.cfg.MemReadNsPerKB
		if fromNode >= 0 && fromNode != memNode {
			cost += kb * s.cfg.NetReadNsPerKB
		}
		s.hits.Add(1)
		s.readNs.Add(cost)
		s.observeRead(cost)
		return value, nil
	}
	// Fall back to a persistent replica; prefer a local one. If every
	// replica is on a failed node the value is temporarily unreadable —
	// report the typed miss so the caller recomputes instead of erroring.
	anyLive := false
	for _, r := range e.replicas {
		if !s.isDown(r) {
			anyLive = true
			break
		}
	}
	if !anyLive {
		sh.mu.Unlock()
		s.unavailable.Add(1)
		return nil, fmt.Errorf("memo: key %q: %w", key, ErrUnavailable)
	}
	cost := s.cfg.DiskReadOverheadNs + kb*s.cfg.DiskReadNsPerKB
	local := false
	for _, r := range e.replicas {
		if r == fromNode && !s.isDown(r) {
			local = true
			break
		}
	}
	if !local {
		cost += kb * s.cfg.NetReadNsPerKB
	}
	// Re-populate the in-memory cache on the home node (read-repair).
	home := s.HomeNode(key)
	if s.cfg.InMemory && !s.isDown(home) {
		e.memNode = home
	}
	value := e.value
	sh.mu.Unlock()
	s.misses.Add(1)
	s.readNs.Add(cost)
	s.observeRead(cost)
	return value, nil
}

// Contains reports whether key is memoized, without charging a read.
func (s *Store) Contains(key string) bool {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, ok := sh.index[key]
	return ok
}

// Delete removes a key outright.
func (s *Store) Delete(key string) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	e, ok := sh.index[key]
	if ok {
		delete(sh.index, key)
	}
	sh.mu.Unlock()
	if ok {
		s.entries.Add(-1)
		s.resident.Add(-e.size)
		s.evicted.Add(1)
	}
}

// GC frees every entry whose interval ended before windowLo — the
// automatic policy of §6 ("free the storage occupied by data items that
// fall out of the current window"). It returns the number of entries
// collected. Shards are swept one at a time, so concurrent readers of
// other shards proceed undisturbed.
func (s *Store) GC(windowLo uint64) int {
	return s.sweep(func(_ string, e *entry) bool { return e.hi < windowLo })
}

// GCFunc frees entries selected by a user-defined policy (the paper's
// "more aggressive user-defined policy").
func (s *Store) GCFunc(drop func(key string, lo, hi uint64, size int64) bool) int {
	return s.sweep(func(k string, e *entry) bool { return drop(k, e.lo, e.hi, e.size) })
}

// sweep removes every entry selected by drop, shard by shard.
func (s *Store) sweep(drop func(key string, e *entry) bool) int {
	collected := 0
	var bytes int64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for k, e := range sh.index {
			if drop(k, e) {
				delete(sh.index, k)
				collected++
				bytes += e.size
			}
		}
		sh.mu.Unlock()
	}
	if collected > 0 {
		s.entries.Add(int64(-collected))
		s.resident.Add(-bytes)
		s.evicted.Add(int64(collected))
	}
	return collected
}

// FailNode simulates the crash of a machine: its in-memory cache contents
// are lost and its persistent replicas become unreachable until
// RecoverNode. Reads transparently fall back to surviving replicas.
func (s *Store) FailNode(node int) {
	s.failMu.Lock()
	next := s.copyDown()
	next[node] = true
	s.down.Store(&next)
	s.failMu.Unlock()
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, e := range sh.index {
			if e.memNode == node {
				e.memNode = -1
			}
		}
		sh.mu.Unlock()
	}
}

// RecoverNode brings a failed machine back (with empty RAM).
func (s *Store) RecoverNode(node int) {
	s.failMu.Lock()
	next := s.copyDown()
	delete(next, node)
	s.down.Store(&next)
	s.failMu.Unlock()
}

// copyDown clones the current failed-node set; callers hold failMu.
func (s *Store) copyDown() map[int]bool {
	next := make(map[int]bool)
	if m := s.down.Load(); m != nil {
		for n, d := range *m {
			next[n] = d
		}
	}
	return next
}

// Stats returns a snapshot of the layer's counters. Resident bytes and
// entry counts are maintained incrementally (Put/Delete/GC), so the
// snapshot is O(1) instead of a walk over the whole index.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		ReadTimeNs:  s.readNs.Load(),
		WriteTimeNs: s.writeNs.Load(),
		Bytes:       s.resident.Load(),
		Entries:     s.entries.Load(),
		Evicted:     s.evicted.Load(),
		Unavailable: s.unavailable.Load(),
	}
}

// ResetReadStats clears the read counters (between measured runs).
func (s *Store) ResetReadStats() {
	s.hits.Store(0)
	s.misses.Store(0)
	s.readNs.Store(0)
}
