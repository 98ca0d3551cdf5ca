package mapreduce

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestForEachInline: one item or one worker needs no goroutine — the loop
// runs on the caller's, in index order, allocates nothing and stops at the
// first error.
func TestForEachInline(t *testing.T) {
	for _, c := range []struct{ par, n int }{{8, 1}, {1, 5}, {0, 1}, {4, 0}} {
		order := make([]int, 0, c.n)
		visit := func(i int) error { order = append(order, i); return nil }
		if allocs := testing.AllocsPerRun(10, func() {
			order = order[:0]
			if err := ForEach(c.par, c.n, visit); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("ForEach(%d, %d) allocates %v times, want an inline loop", c.par, c.n, allocs)
		}
		for i, got := range order {
			if got != i {
				t.Fatalf("ForEach(%d, %d) visited %v", c.par, c.n, order)
			}
		}
		if len(order) != c.n {
			t.Fatalf("ForEach(%d, %d) visited %d items", c.par, c.n, len(order))
		}
	}
	boom := errors.New("boom")
	var ran []int
	err := ForEach(1, 5, func(i int) error {
		ran = append(ran, i)
		if i == 2 {
			return boom
		}
		return nil
	})
	if err != boom || len(ran) != 3 {
		t.Fatalf("one worker: err = %v after items %v, want boom after [0 1 2]", err, ran)
	}
}

// TestForEachBounded: every item runs, never more than par at once, and the
// error reported is the lowest failing index's whatever order they finish in.
func TestForEachBounded(t *testing.T) {
	for _, par := range []int{2, 4, 0} {
		limit := par
		if limit == 0 {
			limit = runtime.GOMAXPROCS(0)
		}
		const n = 64
		var running, peak atomic.Int64
		var ran [n]atomic.Bool
		err := ForEach(par, n, func(i int) error {
			now := running.Add(1)
			for old := peak.Load(); now > old && !peak.CompareAndSwap(old, now); old = peak.Load() {
			}
			runtime.Gosched() // let the others in, if anything lets them
			ran[i].Store(true)
			running.Add(-1)
			if i == 9 || i == 40 {
				return fmt.Errorf("item %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "item 9" {
			t.Errorf("par %d: err = %v, want item 9's", par, err)
		}
		if p := peak.Load(); p > int64(limit) {
			t.Errorf("par %d: %d items ran at once", par, p)
		}
		for i := range ran {
			if !ran[i].Load() {
				t.Errorf("par %d: item %d did not run", par, i)
			}
		}
	}
}
