package mapreduce

import "unsafe"

// FreeListBuffers bounds what a FreeList holds, in slices. A window
// structure releases about as many aggregates a slide as it builds, but not
// of the sizes it builds next, so the stock has to span the sizes of one
// cycle of the structure; what it holds is real memory no space accounting
// counts. DESIGN.md §9 has the table the constant was read from (allocation
// per slide against bytes held, 4 to 64 slices).
const FreeListBuffers = 16

// FreeList is a bounded stock of dead payload storage: entry slices of
// aggregates a window structure has overwritten or evicted (see
// core.Releaser), and of elements that have left the window, kept for the
// next merges to be built in (MergeOrderedSizedInto's dst). It holds at most
// FreeListBuffers slices, cleared — it pins no key and no value. A list
// belongs to one window structure and, like it, is not safe for concurrent
// use. The zero value is an empty list.
type FreeList struct {
	bufs         []Payload // len 0 each, every entry up to cap zero
	hits, misses int64
}

// Get takes the storage for a merge of inputs of total entries, the largest
// of them largest entries, out of the list and returns it with length 0: the
// smallest slice that holds total, which no union outgrows, else the largest
// that holds the merge's fit bound (see MergeOrderedSizedInto), which a union
// is least likely to outgrow. It returns nil when no slice holds the bound —
// the merge then allocates total — or when total is 0.
func (f *FreeList) Get(largest, total int) Payload {
	if total == 0 {
		return nil
	}
	fit := fitBound(largest, total)
	whole, part := -1, -1
	for i, b := range f.bufs {
		switch c := cap(b); {
		case c >= total:
			if whole < 0 || c < cap(f.bufs[whole]) {
				whole = i
			}
		case c >= fit:
			if part < 0 || c > cap(f.bufs[part]) {
				part = i
			}
		}
	}
	best := whole
	if best < 0 {
		best = part
	}
	if best < 0 {
		f.misses++
		return nil
	}
	f.hits++
	b := f.bufs[best]
	last := len(f.bufs) - 1
	f.bufs[best], f.bufs[last] = f.bufs[last], nil
	f.bufs = f.bufs[:last]
	return b
}

// Put hands the list a payload nothing reads any more. The payload must be
// a merge's result or an element's (nothing beyond its length is set) that
// no one else holds. A full list keeps its largest slices: they serve any
// request.
func (f *FreeList) Put(p Payload) {
	if cap(p) == 0 {
		return
	}
	clear(p)
	p = p[:0]
	if len(f.bufs) < FreeListBuffers {
		f.bufs = append(f.bufs, p)
		return
	}
	smallest := 0
	for i, b := range f.bufs {
		if cap(b) < cap(f.bufs[smallest]) {
			smallest = i
		}
	}
	if cap(p) > cap(f.bufs[smallest]) {
		f.bufs[smallest] = p
	}
}

// FreeListStats is a FreeList's bookkeeping: requests served from the list
// and not, and what it holds now. Positions is what a structure keeps beside
// its list of where its buckets' keys stand (Located), counted here because
// it is not state either.
type FreeListStats struct {
	Hits, Misses     int64
	Buffers, Entries int // slices held and their summed capacity
	Positions        int // recorded positions' summed capacity
}

// Bytes is the memory the held slices and positions take.
func (s FreeListStats) Bytes() int64 {
	return int64(s.Entries)*int64(unsafe.Sizeof(Entry{})) + int64(s.Positions)*4
}

// Add returns the sum of two lists' bookkeeping.
func (s FreeListStats) Add(o FreeListStats) FreeListStats {
	return FreeListStats{s.Hits + o.Hits, s.Misses + o.Misses, s.Buffers + o.Buffers, s.Entries + o.Entries, s.Positions + o.Positions}
}

// Stats returns the list's bookkeeping.
func (f *FreeList) Stats() FreeListStats {
	st := FreeListStats{Hits: f.hits, Misses: f.misses, Buffers: len(f.bufs)}
	for _, b := range f.bufs {
		st.Entries += cap(b)
	}
	return st
}
