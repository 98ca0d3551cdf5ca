package mapreduce

import (
	"fmt"
	"testing"
)

// benchPayloads builds n payloads over an overlapping key space — the
// shape of a fold-up over a window's per-split payloads, where hot keys
// recur in most splits and cold keys in few.
func benchPayloads(n, keysPer int) []Payload {
	out := make([]Payload, n)
	for i := range out {
		p := make(M, keysPer)
		for k := 0; k < keysPer; k++ {
			// Half the keys are shared across all payloads, half are
			// striped so they recur in every fourth payload.
			if k < keysPer/2 {
				p[fmt.Sprintf("hot-%d", k)] = int64(i + k)
			} else {
				p[fmt.Sprintf("cold-%d-%d", i%4, k)] = int64(i + k)
			}
		}
		out[i] = FromMap(p)
	}
	return out
}

// BenchmarkFoldPairwise is the old hot path: a left fold of binary
// merges, allocating one intermediate payload per step.
func BenchmarkFoldPairwise(b *testing.B) {
	for _, n := range []int{2, 8, 32, 128} {
		b.Run(fmt.Sprintf("payloads=%d", n), func(b *testing.B) {
			job := sumJob(1)
			ps := benchPayloads(n, 32)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				acc := ps[0]
				for _, p := range ps[1:] {
					acc, _ = MergeOrdered(job, acc, p)
				}
				if len(acc) == 0 {
					b.Fatal("empty fold result")
				}
			}
		})
	}
}

// BenchmarkFoldKWay is the new hot path: one MergeOrderedK pass with a
// single output allocation and one multi-argument Combine per key.
func BenchmarkFoldKWay(b *testing.B) {
	for _, n := range []int{2, 8, 32, 128} {
		b.Run(fmt.Sprintf("payloads=%d", n), func(b *testing.B) {
			job := sumJob(1)
			ps := benchPayloads(n, 32)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				acc, _ := MergeOrderedK(job, ps...)
				if len(acc) == 0 {
					b.Fatal("empty fold result")
				}
			}
		})
	}
}

// BenchmarkPartition measures the map-side emit partitioner; the inlined
// FNV-1a loop must stay allocation-free.
func BenchmarkPartition(b *testing.B) {
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("word-%d-with-some-length", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if Partition(keys[i%len(keys)], 16) < 0 {
			b.Fatal("negative partition")
		}
	}
}
