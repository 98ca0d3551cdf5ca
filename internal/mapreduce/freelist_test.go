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
// than FreeListBuffers slices — full, it keeps the largest. A request whose
// largest input is its total (one input) needs a slice of the total: that
// is the fit bound then too.
func TestFreeList(t *testing.T) {
	var f FreeList
	if f.Get(4, 4) != nil || f.Get(0, 0) != nil {
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
	if st := f.Stats(); st.Buffers != 4 || st.Entries != 120 || st.Bytes() != 120*32 {
		t.Fatalf("four slices in: %+v, %d bytes", st, st.Bytes())
	}
	for _, tc := range []struct{ n, wantCap int }{{9, 16}, {16, 32}, {70, 0}, {1, 8}, {33, 64}, {1, 0}} {
		got := f.Get(tc.n, tc.n)
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

// TestFreeListSelection holds the order Get picks in for a merge of two or
// more inputs: the smallest slice that holds every input's entries — no
// union outgrows it —, else the largest that holds the fit bound (the
// largest input and a quarter of the rest), else none.
func TestFreeListSelection(t *testing.T) {
	// A merge of 80 and 40 entries: the total is 120, the fit bound 90.
	const largest, total = 80, 120
	for _, tc := range []struct {
		name    string
		caps    []int
		wantCap int
	}{
		{"the smallest of those that hold the total", []int{200, 120, 150, 100}, 120},
		{"a whole fit before a larger partial one", []int{119, 130}, 130},
		{"else the largest that holds the bound", []int{90, 60, 110, 95}, 110},
		{"the bound exactly", []int{89, 90}, 90},
		{"none below the bound", []int{89, 40, 1}, 0},
	} {
		var f FreeList
		for _, c := range tc.caps {
			f.Put(filled(1, c))
		}
		got := f.Get(largest, total)
		if cap(got) != tc.wantCap || len(got) != 0 {
			t.Errorf("%s: caps %v gave len %d cap %d, want cap %d", tc.name, tc.caps, len(got), cap(got), tc.wantCap)
		}
		hits, misses := int64(1), int64(0)
		if tc.wantCap == 0 {
			hits, misses = 0, 1
		}
		if st := f.Stats(); st.Hits != hits || st.Misses != misses {
			t.Errorf("%s: %+v, want %d hit(s) and %d miss(es)", tc.name, st, hits, misses)
		}
	}
	if fit := fitBound(largest, total); fit != 90 {
		t.Fatalf("fit bound of %d of %d entries is %d, want 90", largest, total, fit)
	}
}
