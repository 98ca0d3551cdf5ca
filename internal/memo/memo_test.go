package memo

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
)

func testConfig() Config {
	return Config{
		Nodes:           4,
		Replicas:        2,
		InMemory:        true,
		MemReadNsPerKB:  10,
		DiskReadNsPerKB: 1000,
		NetReadNsPerKB:  500,
	}
}

func TestPutGet(t *testing.T) {
	s := NewStore(testConfig())
	s.Put("a", 42, 2048, 0, 10)
	v, err := s.Get("a", s.HomeNode("a"))
	if err != nil {
		t.Fatal(err)
	}
	if v.(int) != 42 {
		t.Fatalf("got %v", v)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want 1 hit", st)
	}
	if st.Bytes != 2048 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestGetMissing(t *testing.T) {
	s := NewStore(testConfig())
	_, err := s.Get("nope", 0)
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestLocalReadCheaperThanRemote(t *testing.T) {
	s := NewStore(testConfig())
	s.Put("k", "v", 10240, 0, 1)
	home := s.HomeNode("k")
	if _, err := s.Get("k", home); err != nil {
		t.Fatal(err)
	}
	localNs := s.Stats().ReadTimeNs
	s.ResetReadStats()
	if _, err := s.Get("k", (home+1)%4); err != nil {
		t.Fatal(err)
	}
	remoteNs := s.Stats().ReadTimeNs
	if remoteNs <= localNs {
		t.Fatalf("remote read (%d ns) should cost more than local (%d ns)", remoteNs, localNs)
	}
}

func TestInMemoryCheaperThanPersistent(t *testing.T) {
	mem := NewStore(testConfig())
	cfg := testConfig()
	cfg.InMemory = false
	disk := NewStore(cfg)
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("k%d", i)
		mem.Put(key, i, 4096, 0, 1)
		disk.Put(key, i, 4096, 0, 1)
	}
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("k%d", i)
		if _, err := mem.Get(key, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := disk.Get(key, 0); err != nil {
			t.Fatal(err)
		}
	}
	m, d := mem.Stats(), disk.Stats()
	if m.ReadTimeNs >= d.ReadTimeNs {
		t.Fatalf("in-memory reads (%d ns) should beat persistent reads (%d ns)", m.ReadTimeNs, d.ReadTimeNs)
	}
	if d.Hits != 0 {
		t.Fatalf("persistent-only store recorded %d cache hits", d.Hits)
	}
	// Table 2 reports 50–68%% savings; our cost model should land in a
	// broadly similar band.
	saving := 1 - float64(m.ReadTimeNs)/float64(d.ReadTimeNs)
	if saving < 0.3 {
		t.Fatalf("saving = %.2f, want substantial", saving)
	}
}

func TestNodeFailureFallsBackToReplicas(t *testing.T) {
	s := NewStore(testConfig())
	s.Put("k", "v", 2048, 0, 1)
	home := s.HomeNode("k")
	s.FailNode(home)
	v, err := s.Get("k", (home+1)%4)
	if err != nil {
		t.Fatalf("read after failure: %v", err)
	}
	if v.(string) != "v" {
		t.Fatalf("got %v", v)
	}
	st := s.Stats()
	if st.Misses != 1 {
		t.Fatalf("stats = %+v, want a miss (replica read)", st)
	}
}

func TestRecoveryRepopulatesCache(t *testing.T) {
	s := NewStore(testConfig())
	s.Put("k", "v", 2048, 0, 1)
	home := s.HomeNode("k")
	s.FailNode(home)
	s.RecoverNode(home)
	// First read is a replica read with read-repair…
	if _, err := s.Get("k", home); err != nil {
		t.Fatal(err)
	}
	s.ResetReadStats()
	// …second read hits the repopulated cache.
	if _, err := s.Get("k", home); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Hits != 1 {
		t.Fatalf("stats = %+v, want a cache hit after read-repair", st)
	}
}

func TestGCWindow(t *testing.T) {
	s := NewStore(testConfig())
	for i := uint64(0); i < 10; i++ {
		s.Put(fmt.Sprintf("k%d", i), i, 100, i, i)
	}
	if n := s.GC(5); n != 5 {
		t.Fatalf("collected %d, want 5", n)
	}
	if s.Contains("k3") {
		t.Fatal("k3 should be collected")
	}
	if !s.Contains("k7") {
		t.Fatal("k7 should survive")
	}
	if st := s.Stats(); st.Entries != 5 || st.Evicted != 5 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestGCFuncPolicy(t *testing.T) {
	s := NewStore(testConfig())
	s.Put("big", 1, 1<<20, 0, 100)
	s.Put("small", 2, 16, 0, 100)
	n := s.GCFunc(func(_ string, _, _ uint64, size int64) bool { return size > 1024 })
	if n != 1 || s.Contains("big") || !s.Contains("small") {
		t.Fatalf("aggressive policy misfired: n=%d", n)
	}
}

func TestDelete(t *testing.T) {
	s := NewStore(testConfig())
	s.Put("k", 1, 10, 0, 1)
	s.Delete("k")
	if s.Contains("k") {
		t.Fatal("delete failed")
	}
	s.Delete("k") // idempotent
}

func TestHomeNodeDeterministic(t *testing.T) {
	s := NewStore(testConfig())
	property := func(key string) bool {
		n := s.HomeNode(key)
		return n >= 0 && n < 4 && n == s.HomeNode(key)
	}
	if err := quick.Check(property, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConfigNormalization(t *testing.T) {
	s := NewStore(Config{})
	s.Put("k", 1, 1, 0, 1)
	if _, err := s.Get("k", 0); err != nil {
		t.Fatal(err)
	}
}

// TestGetReplicaLocality holds Get's persistent-read locality: with
// Replicas ≥ 2 a read served from any live replica — not only the first —
// is charged local disk cost, and one from anywhere else a network hop.
func TestGetReplicaLocality(t *testing.T) {
	cfg := testConfig()
	cfg.Nodes = 8
	cfg.Replicas = 2
	cfg.InMemory = false // force the persistent-read path
	const size = 10240
	home := NewStore(cfg).HomeNode("part-0")
	cases := []struct {
		name     string
		fromNode int
		wantNet  bool
	}{
		{"first-replica", (home + 1) % cfg.Nodes, false},
		{"second-replica", (home + 2) % cfg.Nodes, false},
		{"home-not-a-replica", home, true},
		{"unrelated-node", (home + 3) % cfg.Nodes, true},
		{"no-locality", -1, true},
	}
	kb := int64(size / 1024)
	localCost := cfg.DiskReadOverheadNs + kb*cfg.DiskReadNsPerKB
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewStore(cfg)
			s.Put("part-0", "v", size, 0, 1)
			if _, err := s.Get("part-0", tc.fromNode); err != nil {
				t.Fatal(err)
			}
			want := localCost
			if tc.wantNet {
				want += kb * cfg.NetReadNsPerKB
			}
			if got := s.Stats().ReadTimeNs; got != want {
				t.Fatalf("Get from node %d cost %d, want %d", tc.fromNode, got, want)
			}
		})
	}
}

// TestStoreSteadyStateAllocs holds the store to allocating nothing once a
// key is in the index: an overwrite, a read from the cache or from a
// replica, a bulk write charge, a GC that collects nothing and a Stats
// snapshot touch only what is already there.
func TestStoreSteadyStateAllocs(t *testing.T) {
	s := NewStore(testConfig())
	value := any(42)
	s.Put("k", value, 2048, 0, 1)
	home := s.HomeNode("k")

	down := NewStore(testConfig())
	down.Put("k", value, 2048, 0, 1)
	down.FailNode(home)

	cases := []struct {
		name string
		op   func()
	}{
		{"put-existing", func() { s.Put("k", value, 4096, 0, 1) }},
		{"get-hit", func() { _, _ = s.Get("k", home) }},
		{"get-replica", func() { _, _ = down.Get("k", (home+1)%4) }},
		{"charge-write", func() { s.ChargeWrite(4096) }},
		{"gc-nothing", func() { s.GC(0) }},
		{"stats", func() { _ = s.Stats() }},
	}
	for _, c := range cases {
		if n := testing.AllocsPerRun(100, c.op); n != 0 {
			t.Errorf("%s: %.1f allocations, want 0", c.name, n)
		}
	}
	if st := down.Stats(); st.Misses == 0 || st.Hits != 0 {
		t.Fatalf("replica reads were not served from a replica: %+v", st)
	}
}

// TestZeroValueStoreDoesNotPanic guards HomeNode against a zero divisor:
// a Store that skipped NewStore's normalization (zero-value Config fields)
// must not panic on uint32(0) modulo.
func TestZeroValueStoreDoesNotPanic(t *testing.T) {
	var s Store
	if n := s.HomeNode("k"); n != 0 {
		t.Fatalf("zero-value store home = %d, want 0", n)
	}
	ns := NewStore(Config{})
	if n := ns.HomeNode("k"); n < 0 || n >= 1 {
		t.Fatalf("normalized zero config home = %d, want 0", n)
	}
}
