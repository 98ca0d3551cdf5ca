package mapreduce

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
	"unsafe"
)

// gallopSides draws a small and a large payload for one trial: sizes on both
// sides of gallopRatio, and the small side's keys all among the large one's,
// all outside them, or mixed. Every key string is built on its own, so that
// which side's string a shared key kept can be told by its data pointer.
func gallopSides(rng *rand.Rand, job *Job, value func(*rand.Rand) Value) (small, large Sized) {
	nLarge := 1 + rng.Intn(300)
	var nSmall int
	switch rng.Intn(4) {
	case 0:
		nSmall = rng.Intn(2) // empty or one key
	case 1:
		nSmall = nLarge / gallopRatio // at the ratio
	case 2:
		nSmall = nLarge/gallopRatio + 1 // just past it: merge-join
	default:
		nSmall = rng.Intn(nLarge/2 + 1)
	}
	overlap := rng.Intn(3) // 0 all shared, 1 disjoint, 2 mixed
	// Keys of different lengths, so byte order differs from index order; a
	// fresh string per call.
	key := func(i int) string { return fmt.Sprintf("%x", uint32(i)*2654435761) }
	// build draws n distinct key indexes with pick and returns them with
	// the payload holding them.
	build := func(n int, pick func() int) (Sized, []int) {
		m, idx := make(M, n), make([]int, 0, n)
		for len(m) < n {
			i := pick()
			if _, dup := m[key(i)]; !dup {
				m[key(i)] = value(rng)
				idx = append(idx, i)
			}
		}
		return Size(job, FromMap(m)), idx
	}
	large, inLarge := build(nLarge, func() int { return rng.Intn(4 * nLarge) })
	small, _ = build(nSmall, func() int {
		if overlap == 0 || overlap == 2 && rng.Intn(2) == 0 {
			return inLarge[rng.Intn(nLarge)]
		}
		return 4*nLarge + rng.Intn(4*nLarge)
	})
	return small, large
}

// TestGallopMatchesMergeJoin is the property the galloping case rests on:
// whatever the sizes, the orientation and the overlap of the two sides,
// MergeOrderedSizedInto builds what the plain merge-join builds — the same
// entries, for every shared key the same key string (the right-hand side's,
// by data pointer), the same combine count, and a Bytes that is PayloadBytes
// of the result — under every sizing kind and under a combiner that shows
// the order of its arguments.
func TestGallopMatchesMergeJoin(t *testing.T) {
	for name, pj := range propertyJobs() {
		job := pj.job
		rng := rand.New(rand.NewSource(1604_00794))
		galloped := 0
		for trial := 0; trial < 400; trial++ {
			small, large := gallopSides(rng, job, pj.value)
			for _, sides := range [][2]Sized{{small, large}, {large, small}} {
				left, right := sides[0], sides[1]
				if len(small.P) > 0 && len(small.P)*gallopRatio <= len(large.P) {
					galloped++
				}
				wantP, wantBytes, wantC := mergeJoin(job, nil, left.P, right.P, left.Bytes)
				if len(left.P) == 0 {
					wantBytes = right.Bytes
				}
				got, gotC := MergeOrderedSizedInto(job, nil, left, right)
				if len(got.P) != len(wantP) || gotC != wantC || got.Bytes != wantBytes || got.Bytes != PayloadBytes(job, got.P) {
					t.Fatalf("%s trial %d (%d into %d keys): %d entries, %d combines, %d bytes (walk %d); merge-join %d, %d, %d",
						name, trial, len(left.P), len(right.P), len(got.P), gotC, got.Bytes, PayloadBytes(job, got.P), len(wantP), wantC, wantBytes)
				}
				for i, e := range got.P {
					if !reflect.DeepEqual(e, wantP[i]) || unsafe.StringData(e.Key) != unsafe.StringData(wantP[i].Key) {
						t.Fatalf("%s trial %d (%d into %d keys): entry %d is %v, merge-join has %v (or the key is another side's string)",
							name, trial, len(left.P), len(right.P), i, e, wantP[i])
					}
				}
				if len(got.P) > 0 && len(left.P) > 0 && &got.P[0] == &left.P[0] || len(got.P) > 0 && len(right.P) > 0 && &got.P[0] == &right.P[0] {
					t.Fatalf("%s trial %d: the result shares an input's storage", name, trial)
				}
			}
		}
		if galloped < 100 {
			t.Fatalf("%s: only %d of the merges galloped", name, galloped)
		}
	}
}

// BenchmarkSmallIntoLarge is the crossover table behind gallopRatio
// (DESIGN.md §9): one side of 2 000 keys, the other 1/2 to 1/64 of that, half
// of its keys shared, merged by galloping and by the plain merge-join into a
// destination that is large enough. The two are timed turn by turn inside
// one loop — this host's speed drifts by the second — and reported side by
// side.
func BenchmarkSmallIntoLarge(b *testing.B) {
	job := sumJob(1)
	const nLarge = 2000
	rng := rand.New(rand.NewSource(9))
	large := make(M, nLarge)
	for i := 0; i < nLarge; i++ {
		large[fmt.Sprintf("w%d", 2*i)] = int64(1)
	}
	l := Size(job, FromMap(large))
	for _, ratio := range []int{2, 3, 4, 6, 8, 16, 32, 64} {
		small := make(M, nLarge/ratio)
		for len(small) < nLarge/ratio {
			small[fmt.Sprintf("w%d", rng.Intn(2*nLarge))] = int64(1)
		}
		s := Size(job, FromMap(small))
		dst := make(Payload, 0, len(l.P)+len(s.P))
		b.Run(fmt.Sprintf("ratio=%d", ratio), func(b *testing.B) {
			var galloping, joining time.Duration
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				gallop(job, dst, s.P, l.P, false, l.Bytes)
				t1 := time.Now()
				mergeJoin(job, dst, l.P, s.P, l.Bytes)
				galloping += t1.Sub(t0)
				joining += time.Since(t1)
			}
			b.ReportMetric(float64(galloping.Nanoseconds())/float64(b.N), "gallop-ns/op")
			b.ReportMetric(float64(joining.Nanoseconds())/float64(b.N), "join-ns/op")
			b.ReportMetric(float64(galloping)/float64(joining), "gallop/join")
		})
	}
}
