package mapreduce

import "testing"

// filled returns a payload of n set entries in a slice of capacity c, as a
// merge leaves one: nothing set beyond its length.
func filled(n, c int) Payload {
	p := make(Payload, n, c)
	for i := range p {
		p[i] = Entry{Key: "k", Value: int64(i)}
	}
	return p
}

// TestFreeList holds the list's contract: Get is best fit by capacity and
// nil on a miss, what Put takes in is cleared, and the list never holds more
// than FreeListBuffers slices — full, it keeps the largest.
func TestFreeList(t *testing.T) {
	var f FreeList
	if f.Get(4) != nil || f.Get(0) != nil {
		t.Fatal("an empty list handed out a slice")
	}
	f.Put(nil)
	f.Put(Payload{})
	if st := f.Stats(); st.Buffers != 0 || st.Misses != 1 {
		t.Fatalf("after a miss and two empty payloads: %+v", st)
	}

	for _, c := range []int{64, 8, 32, 16} {
		f.Put(filled(c/2, c))
	}
	if st := f.Stats(); st.Buffers != 4 || st.Entries != 120 {
		t.Fatalf("four slices in: %+v", st)
	}
	for _, tc := range []struct{ n, wantCap int }{{9, 16}, {16, 32}, {70, 0}, {1, 8}, {33, 64}, {1, 0}} {
		got := f.Get(tc.n)
		if cap(got) != tc.wantCap || len(got) != 0 {
			t.Fatalf("Get(%d): len %d cap %d, want the slice of capacity %d", tc.n, len(got), cap(got), tc.wantCap)
		}
		for i, e := range got[:cap(got)] {
			if e != (Entry{}) {
				t.Fatalf("Get(%d): entry %d still holds %v", tc.n, i, e)
			}
		}
	}
	if st := f.Stats(); st.Buffers != 0 || st.Hits != 4 || st.Misses != 3 {
		t.Fatalf("drained: %+v", st)
	}

	// Twice the bound goes in, smallest first, then a run of small ones: the
	// list holds the bound's worth, the largest.
	for c := 1; c <= 2*FreeListBuffers; c++ {
		f.Put(filled(c, c))
	}
	for c := 1; c <= FreeListBuffers; c++ {
		f.Put(filled(1, c))
	}
	st := f.Stats()
	wantEntries := 0
	for c := FreeListBuffers + 1; c <= 2*FreeListBuffers; c++ {
		wantEntries += c
	}
	if st.Buffers != FreeListBuffers || st.Entries != wantEntries {
		t.Fatalf("a full list holds %d slices of %d entries, want the %d largest (%d entries)", st.Buffers, st.Entries, FreeListBuffers, wantEntries)
	}
}
