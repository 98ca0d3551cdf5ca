package core

import (
	"strconv"
	"testing"
)

// mergeCounts is a realistic payload merge: map union with sums, like a
// word-count combiner over ~64 hot keys.
func mergeCounts(a, b map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(a)+len(b))
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		out[k] += v
	}
	return out
}

func countPayload(i int) map[string]int64 {
	p := make(map[string]int64, 16)
	for j := 0; j < 16; j++ {
		p["key"+strconv.Itoa((i+j)%64)] = int64(i)
	}
	return p
}

func countPayloads(lo, hi int) []map[string]int64 {
	out := make([]map[string]int64, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, countPayload(i))
	}
	return out
}

func BenchmarkFoldingSlide(b *testing.B) {
	for _, size := range []int{64, 1024} {
		b.Run(strconv.Itoa(size), func(b *testing.B) {
			tr := NewFolding(mergeCounts)
			tr.Init(countPayloads(0, size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := tr.Slide(1, countPayloads(size+i, size+i+1)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkRotatingRotate(b *testing.B) {
	for _, size := range []int{64, 1024} {
		b.Run(strconv.Itoa(size), func(b *testing.B) {
			tr := NewRotating(mergeCounts, size)
			if err := tr.Init(countPayloads(0, size)); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := tr.Rotate(countPayload(size + i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkRotatingForeground(b *testing.B) {
	tr := NewRotating(mergeCounts, 256)
	if err := tr.Init(countPayloads(0, 256)); err != nil {
		b.Fatal(err)
	}
	if err := tr.PrepareBackground(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.RotateForeground(countPayload(256 + i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoalescingAppend(b *testing.B) {
	tr := NewCoalescing(mergeCounts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Append(countPayload(i))
	}
}

func BenchmarkRandomizedSlide(b *testing.B) {
	for _, size := range []int{64, 1024} {
		b.Run(strconv.Itoa(size), func(b *testing.B) {
			tr := NewRandomizedFolding(mergeCounts, 42)
			items := make([]Item[map[string]int64], size)
			for i := range items {
				items[i] = Item[map[string]int64]{ID: uint64(i), Payload: countPayload(i)}
			}
			tr.Init(items)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := uint64(size + i)
				add := []Item[map[string]int64]{{ID: id, Payload: countPayload(size + i)}}
				if err := tr.Slide(1, add); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkStrawmanShift(b *testing.B) {
	// The strawman's Θ(window) re-pairing cost per slide — contrast with
	// BenchmarkFoldingSlide.
	for _, size := range []int{64, 1024} {
		b.Run(strconv.Itoa(size), func(b *testing.B) {
			tr := NewStrawman(mergeCounts)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				items := make([]Item[map[string]int64], size)
				for j := range items {
					items[j] = Item[map[string]int64]{ID: uint64(i + j), Payload: countPayload(i + j)}
				}
				tr.Build(items)
			}
		})
	}
}

// The operations a single-split slide does not reach: an initial run, a
// slide whose delta dirties many leaves, split mode's pre-combine. (A
// strawman build over 1024 leaves is BenchmarkStrawmanShift/1024.)

func BenchmarkFoldingInit(b *testing.B) {
	payloads := countPayloads(0, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := NewFolding(mergeCounts)
		tr.Init(payloads)
	}
}

func BenchmarkFoldingWideSlide(b *testing.B) {
	const size, delta = 1024, 64
	tr := NewFolding(mergeCounts)
	tr.Init(countPayloads(0, size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := size + i*delta
		if err := tr.Slide(delta, countPayloads(lo, lo+delta)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRotatingPrepare(b *testing.B) {
	const size = 256
	tr := NewRotating(mergeCounts, size)
	if err := tr.Init(countPayloads(0, size)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.PrepareBackground(); err != nil {
			b.Fatal(err)
		}
		if _, err := tr.RotateForeground(countPayload(size + i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRandomizedInit(b *testing.B) {
	const size = 1024
	items := make([]Item[map[string]int64], size)
	for i := range items {
		items[i] = Item[map[string]int64]{ID: uint64(i), Payload: countPayload(i)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := NewRandomizedFolding(mergeCounts, 42)
		tr.Init(items)
	}
}
