package memo

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// TestFailNodeDuringInFlightOps crashes and recovers nodes while puts,
// gets, and GC sweeps are in flight on other goroutines. Run under -race
// (CI does): the store's lock must keep every interleaving of the
// failed-node set, the cached flags and the index safe, and once the
// cluster heals every key must be readable again.
func TestFailNodeDuringInFlightOps(t *testing.T) {
	s := NewStore(testConfig())
	const (
		workers = 8
		keysPer = 64
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < keysPer; i++ {
				key := fmt.Sprintf("w%d-k%d", w, i)
				s.Put(key, i, 1024, uint64(i), uint64(i+1))
				// Reads during failures may miss to a replica or fail
				// outright when every holder is down — both are legal;
				// corruption and races are not.
				if v, err := s.Get(key, w%4); err == nil && v.(int) != i {
					t.Errorf("key %s: got %v, want %d", key, v, i)
				}
				s.Contains(key)
			}
		}()
	}
	// Fault injector: rolling crash/recover across all nodes, plus a GC
	// sweep in the middle of the storm.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; round < 20; round++ {
			node := round % 4
			s.FailNode(node)
			if round == 10 {
				s.GC(8) // evict intervals ending before 8 mid-failure
			}
			s.RecoverNode(node)
		}
	}()
	wg.Wait()

	// Cluster healed: every key written with hi >= 8 must be readable.
	for w := 0; w < workers; w++ {
		for i := 8; i < keysPer; i++ {
			key := fmt.Sprintf("w%d-k%d", w, i)
			if _, err := s.Get(key, 0); err != nil {
				t.Fatalf("after recovery, key %s: %v", key, err)
			}
		}
	}
}

// TestRecoverNodeThenImmediateGC recovers a node and immediately sweeps:
// the recovered (empty-RAM) node must not resurrect collected entries,
// and the store's entry/eviction accounting must stay consistent.
func TestRecoverNodeThenImmediateGC(t *testing.T) {
	s := NewStore(testConfig())
	for i := uint64(0); i < 10; i++ {
		s.Put(fmt.Sprintf("k%d", i), int(i), 2048, i, i+1)
	}
	home := s.HomeNode("k3")
	s.FailNode(home)
	s.RecoverNode(home)
	// Immediately GC everything whose interval ended before 5.
	collected := s.GC(5)
	if collected != 4 {
		t.Fatalf("collected %d entries, want 4 (hi in 1..4 < 5)", collected)
	}
	st := s.Stats()
	if st.Entries != 6 || st.Evicted != int64(collected) {
		t.Fatalf("stats = %+v, want 6 live / %d evicted", st, collected)
	}
	for i := uint64(0); i < 10; i++ {
		key := fmt.Sprintf("k%d", i)
		_, err := s.Get(key, 0)
		if i+1 < 5 {
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("collected key %s still readable (err=%v)", key, err)
			}
		} else if err != nil {
			t.Fatalf("surviving key %s: %v", key, err)
		}
	}
}

// TestDoubleFailSameNode fails the same node twice before recovering it:
// the failure set is a set, not a counter, so one RecoverNode heals it.
func TestDoubleFailSameNode(t *testing.T) {
	s := NewStore(testConfig())
	s.Put("k", "v", 2048, 0, 1)
	home := s.HomeNode("k")
	s.FailNode(home)
	s.FailNode(home) // double fail must be idempotent
	if _, err := s.Get("k", (home+1)%4); err != nil {
		t.Fatalf("replica fallback after double fail: %v", err)
	}
	s.RecoverNode(home)
	if _, err := s.Get("k", home); err != nil {
		t.Fatalf("read after single recover of a double-failed node: %v", err)
	}
	// Recovering an already-up node is a no-op, not a panic.
	s.RecoverNode(home)
	if _, err := s.Get("k", home); err != nil {
		t.Fatal(err)
	}
}
