package mapreduce

import (
	"sync"
	"testing"
)

// TestTaskStock holds the task stock's contract: a take gets the smallest
// released slice of n to 2n entries, cleared and cut to n, else a fresh
// slice of exactly n, never rounded up; the stock keeps the largest
// FreeListBuffers slices; and takes and releases may run concurrently. The
// test takes back everything it released.
func TestTaskStock(t *testing.T) {
	if TakeTaskPayload(0) != nil {
		t.Fatal("a take of no entries handed out storage")
	}
	ReleaseTaskPayload(nil)
	for _, c := range []int{10, 25, 21} {
		ReleaseTaskPayload(filled(c, c))
	}
	for _, tc := range []struct{ n, wantCap int }{{10, 10}, {11, 21}, {13, 25}, {5, 5}, {11, 11}} {
		got := TakeTaskPayload(tc.n)
		if len(got) != tc.n || cap(got) != tc.wantCap {
			t.Fatalf("take of %d: len %d cap %d, want cap %d", tc.n, len(got), cap(got), tc.wantCap)
		}
		for i, e := range got[:cap(got)] {
			if e != (Entry{}) {
				t.Fatalf("take of %d: entry %d still holds %v", tc.n, i, e)
			}
		}
	}

	// Twice the bound goes in: a take of 100 is served the largest half, and
	// then allocates exactly 100.
	for c := 101; c <= 100+2*FreeListBuffers; c++ {
		ReleaseTaskPayload(filled(c, c))
	}
	served := 0
	for range 2 * FreeListBuffers {
		if c := cap(TakeTaskPayload(100)); c > 100 {
			if c <= 100+FreeListBuffers {
				t.Fatalf("the stock kept a slice of %d entries over larger ones", c)
			}
			served++
		}
	}
	if served != FreeListBuffers {
		t.Fatalf("the stock served %d takes, want the %d slices it may hold", served, FreeListBuffers)
	}

	// Concurrent producers and releasers (run under -race).
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 200 {
				p := TakeTaskPayload(50 + (g+i)%50)
				for j := range p {
					p[j] = Entry{Key: "k"}
				}
				ReleaseTaskPayload(p)
			}
		}()
	}
	wg.Wait()
	for range FreeListBuffers {
		TakeTaskPayload(50)
		TakeTaskPayload(99)
	}
}
