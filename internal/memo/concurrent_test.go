package memo

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// TestStoreConcurrentStatsMatchSequential is the contention satellite
// test: the slides of driveSlide with their partition phase on several
// goroutines (under -race in CI) must leave every Stats total equal to what
// the same slides leave on one goroutine. Every counter, entries and
// resident bytes included, changes under the store's lock with the index it
// describes — any lost update or double count diverges the totals.
func TestStoreConcurrentStatsMatchSequential(t *testing.T) {
	goroutines := max(runtime.GOMAXPROCS(0), 4)
	const slides = 200

	seq, conc := NewStore(testConfig()), NewStore(testConfig())
	for i := 0; i < slides; i++ {
		driveSlide(seq, i, 1)
		driveSlide(conc, i, goroutines)
	}
	if got, want := conc.Stats(), seq.Stats(); got != want {
		t.Fatalf("concurrent stats diverge from sequential sum:\n got %+v\nwant %+v", got, want)
	}

	// The window's splits and every partition's entry are what is left.
	if got, want := conc.Stats().Entries, int64(slideWindow+slideParts); got != want {
		t.Fatalf("%d entries after %d slides, want %d", got, slides, want)
	}
	for p := 0; p < slideParts; p++ {
		if key := fmt.Sprintf("part:%d", p); !conc.Contains(key) {
			t.Fatalf("key %s lost under concurrency", key)
		}
	}
}

// TestStoreConcurrentGCAndReads interleaves GC sweeps, node failures, and
// reads; the test asserts only invariants that hold under any
// interleaving (no panics, non-negative stats, entries+evicted
// conservation) and runs under -race to flush locking bugs on the
// maintenance paths.
func TestStoreConcurrentGCAndReads(t *testing.T) {
	cfg := testConfig()
	cfg.Nodes = 8
	s := NewStore(cfg)
	const keys = 256
	for i := 0; i < keys; i++ {
		s.Put(fmt.Sprintf("k%d", i), i, 1024, uint64(i), uint64(i))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				_, _ = s.Get(fmt.Sprintf("k%d", i), g)
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for lo := uint64(0); lo < keys; lo += 16 {
			s.GC(lo)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 0; n < cfg.Nodes; n++ {
			s.FailNode(n)
			s.RecoverNode(n)
		}
	}()
	wg.Wait()
	st := s.Stats()
	if st.Entries < 0 || st.Bytes < 0 || st.ReadTimeNs < 0 {
		t.Fatalf("negative stats after concurrent maintenance: %+v", st)
	}
	if st.Entries+st.Evicted < keys {
		t.Fatalf("entries %d + evicted %d < %d puts", st.Entries, st.Evicted, keys)
	}
}
