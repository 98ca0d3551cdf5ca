package memo

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"testing"
)

// mutexStore replicates the pre-shard design for benchmarking: one mutex
// guarding the whole index AND every counter, so concurrent readers and
// writers all serialize. The cost arithmetic is
// identical to Store's; only the locking differs.
type mutexStore struct {
	cfg     Config
	mu      sync.Mutex
	index   map[string]*entry
	failed  map[int]bool
	hits    int64
	misses  int64
	readNs  int64
	writeNs int64
}

func newMutexStore(cfg Config) *mutexStore {
	cfg.normalize()
	return &mutexStore{cfg: cfg, index: make(map[string]*entry), failed: make(map[int]bool)}
}

func (s *mutexStore) homeNode(key string) int {
	return int(hashKey32(key) % uint32(s.cfg.Nodes))
}

func (s *mutexStore) put(key string, value any, size int64, lo, hi uint64) int64 {
	home := s.homeNode(key)
	reps := make([]int, 0, s.cfg.Replicas)
	for i := 1; i <= s.cfg.Replicas; i++ {
		reps = append(reps, (home+i)%s.cfg.Nodes)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	mem := home
	if !s.cfg.InMemory || s.failed[home] {
		mem = -1
	}
	s.index[key] = &entry{value: value, size: size, memNode: mem, replicas: reps, lo: lo, hi: hi}
	kb := (size + 1023) / 1024
	cost := kb*s.cfg.MemWriteNsPerKB + int64(len(reps))*kb*s.cfg.DiskWriteNsPerKB
	s.writeNs += cost
	return cost
}

func (s *mutexStore) get(key string, fromNode int) (any, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.index[key]
	if !ok {
		return nil, ErrNotFound
	}
	kb := (e.size + 1023) / 1024
	if e.memNode >= 0 && !s.failed[e.memNode] {
		cost := s.cfg.MemReadOverheadNs + kb*s.cfg.MemReadNsPerKB
		if fromNode >= 0 && fromNode != e.memNode {
			cost += kb * s.cfg.NetReadNsPerKB
		}
		s.hits++
		s.readNs += cost
		return e.value, nil
	}
	cost := s.cfg.DiskReadOverheadNs + kb*s.cfg.DiskReadNsPerKB
	local := false
	for _, r := range e.replicas {
		if r == fromNode && !s.failed[r] {
			local = true
			break
		}
	}
	if !local {
		cost += kb * s.cfg.NetReadNsPerKB
	}
	s.misses++
	s.readNs += cost
	return e.value, nil
}

func (s *mutexStore) gc(windowLo uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, e := range s.index {
		if e.hi < windowLo {
			delete(s.index, k)
		}
	}
}

// stats replicates the pre-shard Stats: resident bytes and entry counts
// were not maintained incrementally, so the snapshot walked the whole
// index — under the same mutex every reader and writer serializes on.
func (s *mutexStore) stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{Hits: s.hits, Misses: s.misses, ReadTimeNs: s.readNs, WriteTimeNs: s.writeNs}
	for _, e := range s.index {
		st.Entries++
		st.Bytes += e.size
	}
	return st
}

// memoOps abstracts what a slide asks of its store, so one driver runs
// Store and mutexStore.
type memoOps interface {
	put(key string, value any, size int64, lo, hi uint64) int64
	get(key string, fromNode int) (any, error)
	gc(windowLo uint64)
	stats() Stats
}

// shardedOps adapts *Store to memoOps.
type shardedOps struct{ s *Store }

func (a shardedOps) put(key string, value any, size int64, lo, hi uint64) int64 {
	return a.s.Put(key, value, size, lo, hi)
}
func (a shardedOps) get(key string, fromNode int) (any, error) { return a.s.Get(key, fromNode) }
func (a shardedOps) gc(windowLo uint64)                        { a.s.GC(windowLo) }
func (a shardedOps) stats() Stats                              { return a.s.Stats() }

// The driven runtime: slideAdds splits enter a window of slideWindow each
// slide, over slideParts partitions.
const (
	slideAdds   = 2
	slideParts  = 8
	slideWindow = 64
)

// driveSlide does to a store what slide i of a runtime does (sliderrt's
// mapAdds, contract and finish): a Put per added split; then, partitions
// spread over the given number of goroutines as contract spreads them, a Get
// of the partition's root-path entry and a Put of its successor; then one GC
// and two Stats. Every cost depends on the key and the reading node only, so
// the store's totals do not depend on the goroutine count.
func driveSlide(ops memoOps, i, goroutines int) {
	seq := uint64(i * slideAdds)
	for id := seq; id < seq+slideAdds; id++ {
		ops.put("map:s"+strconv.FormatUint(id, 10), nil, 4096, id, id)
	}
	hi := seq + slideAdds
	lo := hi - min(hi, slideWindow)
	partition := func(p int) {
		key := "part:" + strconv.Itoa(p)
		if i > 0 {
			if _, err := ops.get(key, p%4); err != nil {
				panic(err)
			}
		}
		ops.put(key, nil, int64(2048+64*p), lo, hi)
	}
	if goroutines <= 1 {
		for p := 0; p < slideParts; p++ {
			partition(p)
		}
	} else {
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for p := g; p < slideParts; p += goroutines {
					partition(p)
				}
			}(g)
		}
		wg.Wait()
	}
	ops.gc(lo)
	ops.stats()
	if st := ops.stats(); st.Entries < slideParts {
		panic("partition entries lost")
	}
}

// runMemoBench drives b.N slides, the partition phase on the given number
// of goroutines. GOMAXPROCS is raised to the goroutine count for the
// duration so contention is real even on a single-core runner
// (oversubscribed goroutines park on the contended mutex futex instead of
// merely time-slicing).
func runMemoBench(b *testing.B, ops memoOps, goroutines int) {
	prev := runtime.GOMAXPROCS(goroutines)
	defer runtime.GOMAXPROCS(prev)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		driveSlide(ops, i, goroutines)
	}
}

// BenchmarkMemoSharded measures a slide's store traffic on the sharded
// store at 1 and 8 goroutines.
func BenchmarkMemoSharded(b *testing.B) {
	for _, goroutines := range []int{1, 8} {
		b.Run(fmt.Sprintf("goroutines=%d", goroutines), func(b *testing.B) {
			runMemoBench(b, shardedOps{NewStore(testConfig())}, goroutines)
		})
	}
}

// BenchmarkMemoSingleMutex is the pre-shard baseline under the identical
// slides: every op and every O(entries) stats walk serializes on one mutex.
func BenchmarkMemoSingleMutex(b *testing.B) {
	for _, goroutines := range []int{1, 8} {
		b.Run(fmt.Sprintf("goroutines=%d", goroutines), func(b *testing.B) {
			runMemoBench(b, newMutexStore(testConfig()), goroutines)
		})
	}
}
