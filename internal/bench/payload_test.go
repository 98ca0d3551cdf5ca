package bench

import "testing"

// TestPayloadAllocBudget pins the flat codec's acceptance bound from the
// sld2 work: steady-state encode and typed-decode of a wordcount-shaped
// payload must stay within a fixed allocation budget, and the full
// encode+decode path must allocate at least 90% less than the legacy gob
// codec. Allocation counts are deterministic (testing.AllocsPerRun), so
// unlike the timing bounds this smoke is safe on loaded CI runners.
func TestPayloadAllocBudget(t *testing.T) {
	const entries = 256
	flat, err := measureFlatCodec(entries)
	if err != nil {
		t.Fatal(err)
	}
	// Pooled append encode and the ForEachInt64 walk both run at zero
	// allocations today; the budget of 2 leaves room for incidental
	// runtime changes without letting a per-entry regression through.
	const budget = 2
	if flat.EncodeAllocsPerOp > budget {
		t.Errorf("flat encode: %.1f allocs/op, budget %d", flat.EncodeAllocsPerOp, budget)
	}
	if flat.DecodeAllocsPerOp > budget {
		t.Errorf("flat decode: %.1f allocs/op, budget %d", flat.DecodeAllocsPerOp, budget)
	}

	gob, err := measureGobCodec(entries)
	if err != nil {
		t.Fatal(err)
	}
	gobTotal := gob.EncodeAllocsPerOp + gob.DecodeAllocsPerOp
	flatTotal := flat.EncodeAllocsPerOp + flat.DecodeAllocsPerOp
	if gobTotal <= 0 {
		t.Fatalf("gob codec reported %.1f allocs/op", gobTotal)
	}
	reduction := 100 * (1 - flatTotal/gobTotal)
	if reduction < 90 {
		t.Errorf("flat round trip cuts allocations by %.1f%% vs gob (flat %.1f, gob %.1f), want ≥ 90%%",
			reduction, flatTotal, gobTotal)
	}
}

// TestPayloadSlideAllocs pins what the wordcount slide loop allocates per
// slide at the payload experiment's window: the end-to-end check that the
// memoized-state paths ride the flat encoder. (It used to compare against
// the same loop with every writer switched to gob; that switch is gone,
// the budget it defended is pinned instead: 294 allocs/slide measured,
// ~10 % headroom for map-growth jitter, as in TestWideSlideAllocs.)
func TestPayloadSlideAllocs(t *testing.T) {
	const budget = 325
	cell, err := measurePayloadSlides(Quick(), payloadSlideWindow, 12)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("window %d: %.1f allocs/slide", payloadSlideWindow, cell.AllocsPerSlide)
	if cell.AllocsPerSlide > budget {
		t.Errorf("slide loop allocates %.0f/slide, budget %d", cell.AllocsPerSlide, budget)
	}
}

// TestWideSlideAllocs gates what a slide allocates when the window is 64
// times the delta — the shape where everything that walks the window
// instead of the delta shows. Per slide the runtime may allocate for the
// delta (one map task, its memo blob), for the O(1) merges of the DABA
// backend (one output map each, plus one scratch pair per merge — not one
// per combined key), for the root-path blobs, and for one presized output
// map; nothing per key of the window except the reducer's own boxed
// results. Allocation counts repeat up to map-growth jitter, so the
// ceiling sits ~10 % above the measured value (315 when pinned; 1 365
// before sizes travelled with payloads and reduce became one pass).
func TestWideSlideAllocs(t *testing.T) {
	const window, slides, ceiling = 64, 32, 345
	cell, err := measurePayloadSlides(Quick(), window, slides)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("window %d: %.1f allocs/slide", window, cell.AllocsPerSlide)
	if cell.AllocsPerSlide > ceiling {
		t.Errorf("wide-window slide allocates %.0f/slide, ceiling %d", cell.AllocsPerSlide, ceiling)
	}
}
