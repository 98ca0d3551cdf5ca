package memo

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"testing"
)

// costModelHashes pins what the store answers and charges: for each
// configuration, the FNV-64a of every op's result, error class and the
// Stats that follow it over one seeded sequence (costModelHash). The values
// were taken from the sharded store this package had before it became a
// single mutex over one index, so they hold the model — placement,
// replicas, read-repair, ErrUnavailable vs ErrNotFound and every cost
// term — across any change of its implementation.
var costModelHashes = map[string]uint64{
	"nodes=1/replicas=1/inmemory=true":   0xaf1b74cd4f81caeb,
	"nodes=1/replicas=1/inmemory=false":  0xd3316e2496bd9c9f,
	"nodes=1/replicas=2/inmemory=true":   0x73f71fc4e9059801,
	"nodes=1/replicas=2/inmemory=false":  0xc72116f2bb6929b0,
	"nodes=1/replicas=3/inmemory=true":   0x9ef921aa14380911,
	"nodes=1/replicas=3/inmemory=false":  0x8684ce8488251644,
	"nodes=4/replicas=1/inmemory=true":   0x5996d0d5e7817239,
	"nodes=4/replicas=1/inmemory=false":  0x72a145ace6ad0a47,
	"nodes=4/replicas=2/inmemory=true":   0x5ffbf54c82a1fb39,
	"nodes=4/replicas=2/inmemory=false":  0xab1a2374135449ae,
	"nodes=4/replicas=3/inmemory=true":   0xe69a123637fce404,
	"nodes=4/replicas=3/inmemory=false":  0xb8bbec7f56bd909b,
	"nodes=24/replicas=1/inmemory=true":  0x5c731ac677ce3706,
	"nodes=24/replicas=1/inmemory=false": 0xa2e7cd7d667a481a,
	"nodes=24/replicas=2/inmemory=true":  0x02fcf84adb5cca56,
	"nodes=24/replicas=2/inmemory=false": 0x0ed0ab273bf6d6f0,
	"nodes=24/replicas=3/inmemory=true":  0x428ecdd83ffae4ff,
	"nodes=24/replicas=3/inmemory=false": 0xc5ea3cef7b5fc391,
}

// TestStoreCostModelPinned replays seeded sequences of every store op
// over Nodes ∈ {1, 4, 24} × Replicas ∈ {1, 2, 3} × InMemory on and off and
// compares their hashes with the pinned ones. Nodes = 1 puts a key's
// replicas on its home node and on each other.
func TestStoreCostModelPinned(t *testing.T) {
	for _, nodes := range []int{1, 4, 24} {
		for _, replicas := range []int{1, 2, 3} {
			for _, inMemory := range []bool{true, false} {
				name := fmt.Sprintf("nodes=%d/replicas=%d/inmemory=%t", nodes, replicas, inMemory)
				t.Run(name, func(t *testing.T) {
					cfg := DefaultConfig()
					cfg.Nodes, cfg.Replicas, cfg.InMemory = nodes, replicas, inMemory
					got := costModelHash(cfg, uint64(nodes*100+replicas*10))
					if want, ok := costModelHashes[name]; !ok || got != want {
						t.Errorf("%s: cost-model hash %#x, pinned %#x", name, got, want)
					}
				})
			}
		}
	}
}

// costModelHash runs 5000 seeded ops against a fresh store: Put of a new
// key or over an existing one, Get from a random node or from none (−1),
// Contains, ChargeWrite, FailNode, RecoverNode, GC, GCFunc, Delete and
// ResetReadStats. After each it folds the op, what it returned, the class
// of its error and the store's Stats into one hash.
func costModelHash(cfg Config, seed uint64) uint64 {
	const (
		ops  = 5000
		keys = 48
	)
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	s := NewStore(cfg)
	h := fnv.New64a()
	var buf []byte
	fold := func(vs ...int64) {
		buf = buf[:0]
		for _, v := range vs {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		}
		h.Write(buf)
	}
	errClass := func(err error) int64 {
		switch {
		case err == nil:
			return 0
		case errors.Is(err, ErrNotFound):
			return 1
		case errors.Is(err, ErrUnavailable):
			return 2
		}
		return 3
	}
	key := func() string { return fmt.Sprintf("k%d", rng.IntN(keys)) }
	var clock uint64 // the window's advancing sequence number
	for i := 0; i < ops; i++ {
		op := rng.IntN(100)
		switch {
		case op < 30:
			size := rng.Int64N(20000)
			lo := clock + rng.Uint64N(4)
			cost := s.Put(key(), int64(i), size, lo, lo+rng.Uint64N(16))
			clock++
			fold(0, cost)
		case op < 65:
			v, err := s.Get(key(), rng.IntN(s.cfg.Nodes+1)-1)
			got := int64(-1)
			if err == nil {
				got = v.(int64)
			}
			fold(1, got, errClass(err))
		case op < 70:
			fold(2, boolInt(s.Contains(key())))
		case op < 75:
			fold(3, s.ChargeWrite(rng.Int64N(20000)))
		case op < 81:
			n := rng.IntN(s.cfg.Nodes)
			s.FailNode(n)
			fold(4, int64(n))
		case op < 88:
			n := rng.IntN(s.cfg.Nodes)
			s.RecoverNode(n)
			fold(5, int64(n))
		case op < 91:
			fold(6, int64(s.GC(clock-min(clock, 64))))
		case op < 93:
			limit := rng.Int64N(20000)
			fold(7, int64(s.GCFunc(func(k string, lo, hi uint64, size int64) bool {
				return size > limit && (lo+hi+uint64(len(k)))%3 == 0
			})))
		case op < 96:
			s.Delete(key())
			fold(8)
		default:
			s.ResetReadStats()
			fold(9)
		}
		st := s.Stats()
		fold(st.Hits, st.Misses, st.ReadTimeNs, st.WriteTimeNs, st.Bytes, st.Entries, st.Evicted, st.Unavailable)
	}
	return h.Sum64()
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
