package bench

import (
	"testing"

	"slider/internal/apps"
	"slider/internal/israce"
	"slider/internal/workload"
)

// coldScratch is what the ceilings on a slide's allocations give way by in
// a binary built with -race, and nothing in a plain one. A map task works in
// a sync.Pool'ed scratch; under the detector the pool drops a quarter of what
// it is handed, at random, and the task that then finds none grows a new one
// from nothing: allocs allocations and bytes bytes on the split shape at hand
// (measured: a task straight after two collections against the one after
// it). Every slide below maps one split, so none pays that more than once —
// the ceiling plus one cold scratch holds whatever the pool drops. That is
// the looser gate (an encode or a per-key allocation on the slide path is
// hundreds of allocations and shows in both); the plain run holds the pin.
func coldScratch(allocs, bytes float64) (float64, float64) {
	if israce.Enabled {
		return allocs, bytes
	}
	return 0, 0
}

// TestPayloadAllocBudget pins the flat codec's acceptance bound from the
// sld2 work on a wordcount-shaped payload: steady-state encode allocates
// nothing, decode allocates two per payload (the entry slice, one copy of
// the key arena) and nothing per key, and the full encode+decode path
// allocates at least 90% less than the legacy gob codec.
//
// Both decode bounds are net of the boxes: a payload holds its counts as
// interface values, and Go allocates one word for every int64 above 255
// put into an interface, whoever decodes it — the gob decoder pays the
// same number for the same payload. (The bounds were ≤ 2 and ≥ 90% gross
// while the measured decode was a typed walk that never built a payload;
// that walk went with the map representation, the decode measured now is
// the one every consumer runs.) Allocation counts are deterministic
// (testing.AllocsPerRun), so unlike the timing bounds this smoke is safe
// on loaded CI runners.
func TestPayloadAllocBudget(t *testing.T) {
	const entries = 256
	flat, err := measureFlatCodec(entries)
	if err != nil {
		t.Fatal(err)
	}
	if flat.EncodeAllocsPerOp != 0 {
		t.Errorf("flat encode: %.1f allocs/op, want 0", flat.EncodeAllocsPerOp)
	}
	var boxed float64
	for _, e := range benchPayload(entries) {
		if e.Value.(int64) > 255 { // the runtime boxes single-byte values for free
			boxed++
		}
	}
	const budget = 2
	if own := flat.DecodeAllocsPerOp - boxed; own != budget {
		t.Errorf("flat decode: %.1f allocs/op of which %.0f boxed counts, leaves %.1f, want %d per payload",
			flat.DecodeAllocsPerOp, boxed, own, budget)
	}

	gob, err := measureGobCodec(entries)
	if err != nil {
		t.Fatal(err)
	}
	gobTotal := gob.EncodeAllocsPerOp + gob.DecodeAllocsPerOp - boxed
	flatTotal := flat.EncodeAllocsPerOp + flat.DecodeAllocsPerOp - boxed
	if gobTotal <= 0 {
		t.Fatalf("gob codec reported %.1f allocs/op besides %.0f boxed counts", gobTotal, boxed)
	}
	reduction := 100 * (1 - flatTotal/gobTotal)
	if reduction < 90 {
		t.Errorf("flat round trip cuts allocations by %.1f%% vs gob (flat %.1f, gob %.1f, both besides %.0f boxed counts), want ≥ 90%%",
			reduction, flatTotal, gobTotal, boxed)
	}
}

// TestPayloadSlideAllocs pins what the wordcount slide loop allocates per
// slide at the payload experiment's window: the end-to-end check that no
// slide serialises its state. (It used to compare against the same loop
// with every writer switched to gob; that switch is gone, the budget it
// defended is pinned instead: 175 allocs/slide measured — 196 while a map
// task kept a Go map per partition and grew its payloads by doubling, 222
// before the structures' dead aggregates carried their next merges and DABA's
// halves went to the reduce unmerged, 238 while every slide allocated its
// window aggregate, 249 while each slide flat-encoded its map output and root
// path into the memo store, 294 while payloads were hash maps — ~5 % headroom
// for what still varies from run to run, as in TestWideSlideAllocs.)
func TestPayloadSlideAllocs(t *testing.T) {
	const budget = 184
	cold, _ := coldScratch(42, 0)
	cell, err := measurePayloadSlides(Quick(), payloadSlideWindow, 12)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("window %d: %.1f allocs/slide", payloadSlideWindow, cell.AllocsPerSlide)
	if cell.AllocsPerSlide > budget+cold {
		t.Errorf("slide loop allocates %.0f/slide, budget %.0f", cell.AllocsPerSlide, budget+cold)
	}
}

// TestWideSlideAllocs gates what a slide allocates when the window is 64
// times the delta — the shape where everything that walks the window
// instead of the delta shows. Per slide the runtime may allocate for the
// delta (one map task), for the O(1) merges of the DABA backend (one
// scratch pair per merge, not one per combined key, and an output slice for
// the few that find none large enough among the aggregates the queue has
// released — the window aggregate is not built at all, the reduce takes the
// two halves), and for the memo entries (an index record each, no bytes);
// nothing per key of the window — the output map is kept from slide to
// slide, and the reducer's boxed results are those of the delta's keys.
// The map task's own maps are gone and with them the map-growth jitter; what
// still varies, by a fraction of an allocation a slide, is the pool behind the
// map task — a task that the scheduler resumed on another P, or that comes
// after two collections, finds no scratch and grows a new one — and when the
// retained output map grows. The ceiling
// sits ~5 % above the measured value (185 when pinned; 207 while a map task
// kept a Go map per partition and grew its payloads by doubling; 236 while
// every merge but the query's allocated its output; 252 before DABA's window
// aggregate was rebuilt in place and the output map kept; 265 while the root
// path was encoded every slide; 315 while payloads were hash maps; 1 365
// before sizes travelled with payloads and reduce became one pass). The bytes
// are where a per-window cost shows that a count hides — one map is one
// allocation at any size — so they are held too: 27.1 KB a slide measured
// (26.9 KB while a merge took only storage that held both its inputs — the
// fit bound lets more merges into recycled storage that some then outgrow),
// 31.9 KB with the per-task maps, 76.7 KB while the merges allocated their
// outputs, 93.6 KB while every slide allocated its output map.
func TestWideSlideAllocs(t *testing.T) {
	const window, slides, ceiling, byteCeiling = 64, 32, 195, 28_300
	cold, coldBytes := coldScratch(42, 14_400)
	cell, err := measurePayloadSlides(Quick(), window, slides)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("window %d: %.1f allocs/slide, %.0f bytes/slide", window, cell.AllocsPerSlide, cell.BytesPerSlide)
	if cell.AllocsPerSlide > ceiling+cold {
		t.Errorf("wide-window slide allocates %.0f/slide, ceiling %.0f", cell.AllocsPerSlide, ceiling+cold)
	}
	if cell.BytesPerSlide > byteCeiling+coldBytes {
		t.Errorf("wide-window slide allocates %.0f bytes/slide, ceiling %.0f", cell.BytesPerSlide, byteCeiling+coldBytes)
	}
}

// TestBucketFoldAllocs gates what a slide allocates when the window is two
// buckets of eight splits, wc-ship-dist2's shape: eight map tasks, and a fold
// of their payloads into one bucket per partition. The fold is built in the
// storage of the bucket the window evicted the slide before, which nothing
// reads once the upkeep has run, so it allocates its scratch and no output.
// The bytes are the pin: 100.6 KB a slide measured, 115.5 KB while each fold
// allocated its bucket; the ceiling sits ~4 % above. (886 allocations a
// slide, 891 then: one per partition.) Every slide maps eight splits, so
// under -race each may pay a cold scratch.
func TestBucketFoldAllocs(t *testing.T) {
	const bucket, window, slides, byteCeiling = 8, 2, 16, 105_000
	_, coldBytes := coldScratch(42, 14_400)
	s := Quick()
	cell, err := measureSlideLoop(apps.WordCount(s.Partitions), workload.NewText(s.Text).Range, bucket, window, slides)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d buckets of %d splits: %.1f allocs/slide, %.0f bytes/slide", window, bucket, cell.AllocsPerSlide, cell.BytesPerSlide)
	if cell.BytesPerSlide > byteCeiling+bucket*coldBytes {
		t.Errorf("a slide of %d-split buckets allocates %.0f bytes, ceiling %.0f: the bucket fold allocates its output again", bucket, cell.BytesPerSlide, byteCeiling+bucket*coldBytes)
	}
}

// TestStructValueSlideAllocs is the same gate over K-Means, whose values
// are structs behind an interface: the only codec that takes them is gob,
// so an encode anywhere on the slide path shows here first. 461 allocs/slide
// measured, ~5 % headroom; 566 while the map side combined every emit into
// its key's accumulator with a call of its own and K-Means' Combine allocated
// an accumulator per value it was handed — now one call per key and one
// accumulator per call; 730 while every slide offered its map output and
// root path to the encoder (which here, the type unregistered, gave up part
// way; with it registered, as the kmeans-map-local benchmark does, the
// encode was 3 207 of that workload's 13 854 allocations a slide).
func TestStructValueSlideAllocs(t *testing.T) {
	const window, slides, ceiling = 16, 12, 484
	cold, _ := coldScratch(32, 0)
	s := Quick()
	kmeans := MicroApps(s)[0]
	if kmeans.Name != "K-Means" {
		t.Fatalf("first micro app is %q, want K-Means", kmeans.Name)
	}
	cell, err := measureSlideLoop(kmeans.NewJob(), kmeans.Gen, 1, window, slides)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("window %d: %.1f allocs/slide", window, cell.AllocsPerSlide)
	if cell.AllocsPerSlide > ceiling+cold {
		t.Errorf("K-Means slide allocates %.0f/slide, ceiling %.0f", cell.AllocsPerSlide, ceiling+cold)
	}
}
