package bench

import (
	"testing"

	"slider/internal/apps"
	"slider/internal/israce"
	"slider/internal/memo"
	"slider/internal/sliderrt"
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

// TestPayloadSlideAllocs pins what the wordcount slide loop allocates per
// slide at a window of 16 one-split buckets: the end-to-end check that no
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
// delta (one map task), for the daba kind's merges (one scratch pair per
// merge, not one per combined key, and an output slice for the few that find
// none large enough among the aggregates the structure has released — the
// window aggregate is not built at all, the reduce takes the two halves),
// and for the memo entries (an index record each, no bytes); nothing per key
// of the window — the output map is kept from slide to slide, and the
// reducer's boxed results are those of the delta's keys. The daba kind
// merges a bucket once when it arrives and once at the flip that comes every
// 64 slides, so the measured span is one whole cycle: 64 slides, one flip.
// The map task's own maps are gone and with them the map-growth jitter; what
// still varies, by a fraction of an allocation a slide, is the pool behind the
// map task — a task that the scheduler resumed on another P, or that comes
// after two collections, finds no scratch and grows a new one — and when the
// retained output map grows. The ceiling sits ~5 % above the measured value
// (168.8 when pinned over a cycle; 176.6 under DABA Lite, 185 over 32 slides
// when first pinned; 207 while a map task kept a Go map per partition and
// grew its payloads by doubling; 236 while every merge but the query's
// allocated its output; 252 before DABA's window aggregate was rebuilt in
// place and the output map kept; 265 while the root path was encoded every
// slide; 315 while payloads were hash maps; 1 365 before sizes travelled
// with payloads and reduce became one pass). The bytes are where a
// per-window cost shows that a count hides — one map is one allocation at
// any size — so they are held too: 19.6 KB a slide measured over a cycle
// (25.2 KB under DABA Lite, whose fixups merged every bucket three times;
// 27.1 KB over 32 slides, 26.9 KB while a merge took only storage that held
// both its inputs — the fit bound lets more merges into recycled storage
// that some then outgrow —, 31.9 KB with the per-task maps, 76.7 KB while
// the merges allocated their outputs, 93.6 KB while every slide allocated
// its output map).
func TestWideSlideAllocs(t *testing.T) {
	const window, slides, ceiling, byteCeiling = 64, 64, 177, 20_600
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
// buckets of eight splits, wc-ship-dist2's shape: two map tasks, each over a
// range of four of the bucket's splits, and a fold of their payloads into
// one bucket per partition. The fold is built in the storage of the bucket
// the window evicted the slide before, which nothing reads once the upkeep
// has run, so it allocates its scratch and no output; and it hands the two
// ranges' entry slices to the task stock, which the next slide's map tasks
// cut their payloads into. The bytes are the pin, read over a cold loop
// (measureSlideLoop): every slide starts after two collections and maps its
// ranges one at a time, so it grows exactly one map-task scratch, of a
// range's size (~42.0 KB, against ~14.4 KB for one split's). 93.2–94.9 KB a slide measured at GOMAXPROCS 1 to 8; the
// ceiling sits ~4 % above the typical 93.4 KB. A fold that drops the ranges
// it merged, so that every map task allocates its payloads, reads 101.7 KB;
// one that allocates its bucket again, more. (The ceiling was 146 KB over a
// reading of 141.5–143.8 KB, which later map-task changes brought down to
// that 101.7 KB. While each split was its own task —
// eight tasks, and a fold of eight payloads — 117.2–119.2 KB measured
// against a ceiling of 123 KB, ~131 KB for a fold that allocated its bucket
// again. The warm loop that pin replaced read 103.5–104.9 KB against 105 KB,
// more with more cores: how many scratches a slide's concurrent tasks found
// pooled, and whether a collection emptied the pools mid-loop, varied from
// run to run.) Under -race each of the two tasks may pay a cold range
// scratch of its own.
func TestBucketFoldAllocs(t *testing.T) {
	const bucket, ranges, window, slides, byteCeiling = 8, 2, 2, 16, 97_000
	_, coldBytes := coldScratch(50, 42_000)
	s := Quick()
	cell, err := measureSlideLoop(apps.WordCount(s.Partitions), workload.NewText(s.Text).Range, bucket, window, slides, true)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d buckets of %d splits: %.1f allocs/slide, %.0f bytes/slide", window, bucket, cell.AllocsPerSlide, cell.BytesPerSlide)
	if cell.BytesPerSlide > byteCeiling+ranges*coldBytes {
		t.Errorf("a slide of %d-split buckets allocates %.0f bytes, ceiling %.0f: the bucket fold allocates its output again, or drops the ranges it merged", bucket, cell.BytesPerSlide, byteCeiling+ranges*coldBytes)
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
	cell, err := measureSlideLoop(kmeans.NewJob(), kmeans.Gen, 1, window, slides, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("window %d: %.1f allocs/slide", window, cell.AllocsPerSlide)
	if cell.AllocsPerSlide > ceiling+cold {
		t.Errorf("K-Means slide allocates %.0f/slide, ceiling %.0f", cell.AllocsPerSlide, ceiling+cold)
	}
}

// TestWideLocatedShare pins how much of the wide window's reduce reads a
// moved key's entry by the position the daba kind's merges recorded instead
// of seeking it, on wc-wide-local's shape: four partitions, a window of 64
// one-split buckets of 200 lines of 12 words over a 20 000-word Zipf
// vocabulary, sliding by one, seed 1. A push locates its bucket's keys in the
// back half, a flip each bucket's in the front half the reduce reads when it
// leaves, so a key that left and one that entered need no seek on those
// halves; the seeks left are an evicted key's in the back half and an added
// key's in the front. Measured over a whole flip cycle (64 slides): 59.5 %
// of the lookups located. A slide that refills reduces every key and looks
// nothing up: it counts no lookup.
func TestWideLocatedShare(t *testing.T) {
	const window, slides, floor = 64, 64, 0.55
	text := workload.NewText(workload.TextConfig{Seed: 1, LinesPerSplit: 200, WordsPerLine: 12, Vocabulary: 20_000, ZipfS: 1.2})
	rt, err := sliderrt.New(apps.WordCount(4), sliderrt.Config{Mode: sliderrt.Fixed, BucketSplits: 1, WindowBuckets: window, Memo: memo.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Initial(text.Range(0, window)); err != nil {
		t.Fatal(err)
	}
	var lookups, seeks int64
	for i := range slides {
		res, err := rt.Advance(1, text.Range(window+i, window+i+1))
		if err != nil {
			t.Fatal(err)
		}
		c := res.Report.Counters
		if res.Rebuilt && c.RootLookups != 0 {
			t.Fatalf("slide %d refilled the output and looked up %d keys", i+1, c.RootLookups)
		}
		if c.RootSeeks > c.RootLookups {
			t.Fatalf("slide %d: %d seeks of %d lookups", i+1, c.RootSeeks, c.RootLookups)
		}
		lookups, seeks = lookups+c.RootLookups, seeks+c.RootSeeks
		if err := rt.Background(); err != nil {
			t.Fatal(err)
		}
	}
	share := 1 - float64(seeks)/float64(lookups)
	t.Logf("%d root lookups over %d slides, %.1f %% located", lookups, slides, 100*share)
	if lookups == 0 || share < floor {
		t.Errorf("%.1f %% of %d root lookups located, floor %.0f %%", 100*share, lookups, 100*floor)
	}
}
