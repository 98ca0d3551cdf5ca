package memo

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"testing"
)

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
func driveSlide(s *Store, i, goroutines int) {
	seq := uint64(i * slideAdds)
	for id := seq; id < seq+slideAdds; id++ {
		s.Put("map:s"+strconv.FormatUint(id, 10), nil, 4096, id, id)
	}
	hi := seq + slideAdds
	lo := hi - min(hi, slideWindow)
	partition := func(p int) {
		key := "part:" + strconv.Itoa(p)
		if i > 0 {
			if _, err := s.Get(key, p%4); err != nil {
				panic(err)
			}
		}
		s.Put(key, nil, int64(2048+64*p), lo, hi)
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
	s.GC(lo)
	s.Stats()
	if st := s.Stats(); st.Entries < slideParts {
		panic("partition entries lost")
	}
}

// BenchmarkMemo drives b.N slides' store traffic with the partition phase
// on 1 and 8 goroutines. GOMAXPROCS is raised to the goroutine count for
// the duration so contention is real even on a single-core runner
// (oversubscribed goroutines park on the contended mutex futex instead of
// merely time-slicing).
func BenchmarkMemo(b *testing.B) {
	for _, goroutines := range []int{1, 8} {
		b.Run(fmt.Sprintf("goroutines=%d", goroutines), func(b *testing.B) {
			prev := runtime.GOMAXPROCS(goroutines)
			defer runtime.GOMAXPROCS(prev)
			s := NewStore(testConfig())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				driveSlide(s, i, goroutines)
			}
		})
	}
}
