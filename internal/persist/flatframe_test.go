package persist

import (
	"reflect"
	"testing"

	"slider/internal/mapreduce"
)

func testPayload() mapreduce.Payload {
	return mapreduce.Payload{
		"count": int64(42),
		"word":  "hello",
		"ratio": 0.25,
		"blob":  []byte{1, 2, 3},
		"flag":  true,
		"list":  []int64{7, 8},
	}
}

func TestPayloadFrameRoundTrip(t *testing.T) {
	p := testPayload()
	frame, err := EncodePayload(p)
	if err != nil {
		t.Fatal(err)
	}
	if !isFlatFrame(frame) {
		t.Fatal("default codec should emit flat frames")
	}
	got, err := DecodePayload(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Fatalf("round trip mismatch:\n got %#v\nwant %#v", got, p)
	}
}

// legacyFrame fabricates the sld1 frame a pre-flat writer produced for a
// payload-shaped value: whole-value gob. No writer emits it any more; the
// decoders must keep reading it.
func legacyFrame(t *testing.T, v any) []byte {
	t.Helper()
	frame, err := Encode(v)
	if err != nil {
		t.Fatal(err)
	}
	if isFlatFrame(frame) {
		t.Fatal("legacy helper produced a flat frame")
	}
	return frame
}

// TestLegacyGobFramesDecode: sld1 frames of all three payload shapes decode
// through the same entry points as sld2, while the encoders write sld2 only.
func TestLegacyGobFramesDecode(t *testing.T) {
	p := testPayload()
	got, err := DecodePayload(legacyFrame(t, p))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Fatalf("gob payload frame mismatch:\n got %#v\nwant %#v", got, p)
	}

	set := []mapreduce.Payload{p, {"k": int64(1)}}
	gotSet, err := DecodePayloadSet(legacyFrame(t, set))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotSet, set) {
		t.Fatalf("gob payload-set frame mismatch:\n got %#v\nwant %#v", gotSet, set)
	}

	split := mapreduce.Split{ID: "s1", Records: []mapreduce.Record{"a b", "c"}}
	gotSplit, err := DecodeSplit(legacyFrame(t, split))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotSplit, split) {
		t.Fatalf("gob split frame mismatch:\n got %#v\nwant %#v", gotSplit, split)
	}

	for name, encode := range map[string]func() ([]byte, error){
		"payload":     func() ([]byte, error) { return EncodePayload(p) },
		"payload set": func() ([]byte, error) { return EncodePayloadSet(set) },
		"split":       func() ([]byte, error) { return EncodeSplit(split) },
	} {
		frame, err := encode()
		if err != nil {
			t.Fatal(err)
		}
		if !isFlatFrame(frame) {
			t.Fatalf("%s encoder wrote a non-flat frame", name)
		}
	}
}

func TestPayloadViewZeroCopy(t *testing.T) {
	p := mapreduce.Payload{"k": "value", "n": int64(5)}
	frame, err := EncodePayload(p)
	if err != nil {
		t.Fatal(err)
	}
	view, err := DecodePayloadView(frame)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := view.Get("k"); !ok || v != "value" {
		t.Fatalf("view Get(k) = %v,%v", v, ok)
	}
	if view.Len() != 2 {
		t.Fatalf("view len %d", view.Len())
	}
}

func TestPayloadSetFrameRoundTrip(t *testing.T) {
	set := []mapreduce.Payload{
		{"a": int64(1)},
		nil,
		{"b": "two", "c": 2.5},
	}
	frame, err := EncodePayloadSet(set)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodePayloadSet(frame)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(set) {
		t.Fatalf("set len %d, want %d", len(got), len(set))
	}
	for i := range set {
		if len(set[i]) == 0 {
			if len(got[i]) != 0 {
				t.Fatalf("payload %d: got %#v, want empty", i, got[i])
			}
			continue
		}
		if !reflect.DeepEqual(got[i], set[i]) {
			t.Fatalf("payload %d mismatch: %#v vs %#v", i, got[i], set[i])
		}
	}

	// Legacy gob-framed sets decode too.
	legacy, err := Encode(set)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := DecodePayloadSet(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if len(got2) != len(set) {
		t.Fatalf("legacy set len %d, want %d", len(got2), len(set))
	}
}

func TestSplitFrameRoundTrip(t *testing.T) {
	s := mapreduce.Split{
		ID:      "split-007",
		Records: []any{"line one", "line two", int64(9), []byte{4, 5}},
	}
	frame, err := EncodeSplit(s)
	if err != nil {
		t.Fatal(err)
	}
	if !isFlatFrame(frame) {
		t.Fatal("scalar-record split should frame flat")
	}
	got, err := DecodeSplit(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("split mismatch:\n got %#v\nwant %#v", got, s)
	}

	// Zero-copy decode agrees; its strings alias the frame.
	zc, err := DecodeSplitZeroCopy(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(zc, s) {
		t.Fatalf("zero-copy split mismatch: %#v", zc)
	}
}

type fancyRecord struct {
	A int64
	B string
}

func TestSplitFrameGobFallback(t *testing.T) {
	RegisterType(fancyRecord{})
	s := mapreduce.Split{
		ID:      "structured",
		Records: []any{fancyRecord{A: 1, B: "x"}, fancyRecord{A: 2, B: "y"}},
	}
	frame, err := EncodeSplit(s)
	if err != nil {
		t.Fatal(err)
	}
	if isFlatFrame(frame) {
		t.Fatal("struct-record split should fall back to gob framing")
	}
	got, err := DecodeSplit(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("fallback split mismatch:\n got %#v\nwant %#v", got, s)
	}
}

func TestSplitFrameLegacyGob(t *testing.T) {
	// A split framed wholesale as gob (what a pre-flat worker sends) must
	// decode through both entry points.
	s := mapreduce.Split{ID: "old", Records: []any{"legacy line"}}
	frame, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSplit(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("legacy split mismatch: %#v", got)
	}
	got2, err := DecodeSplitZeroCopy(frame)
	if err != nil || !reflect.DeepEqual(got2, s) {
		t.Fatalf("legacy split (zero-copy path): %#v %v", got2, err)
	}
}

func TestFlatFrameCorruption(t *testing.T) {
	frame, err := EncodePayload(testPayload())
	if err != nil {
		t.Fatal(err)
	}
	// Flip a body byte: checksum must catch it.
	bad := append([]byte(nil), frame...)
	bad[len(bad)-1] ^= 0xFF
	if _, err := DecodePayload(bad); err == nil {
		t.Fatal("corrupt flat frame accepted")
	}
	// Truncations must fail cleanly.
	for _, cut := range []int{0, 3, flatHeaderLen - 1, flatHeaderLen, len(frame) - 1} {
		if cut >= len(frame) {
			continue
		}
		if _, err := DecodePayload(frame[:cut]); err == nil {
			t.Fatalf("truncated frame at %d accepted", cut)
		}
	}
	// Wrong kind byte is rejected.
	wrongKind := append([]byte(nil), frame...)
	wrongKind[4] = kindSplit
	if _, err := DecodePayload(wrongKind); err == nil {
		t.Fatal("wrong-kind frame accepted")
	}
}

func TestAppendPayloadSteadyStateAllocs(t *testing.T) {
	p := testPayload()
	delete(p, "list") // keep to native scalars for the alloc bound
	buf := make([]byte, 0, 4096)
	out, err := AppendPayload(buf, p)
	if err != nil {
		t.Fatal(err)
	}
	buf = out[:0]
	allocs := testing.AllocsPerRun(100, func() {
		out, err := AppendPayload(buf, p)
		if err != nil {
			t.Fatal(err)
		}
		buf = out[:0]
	})
	if allocs > 2 {
		t.Fatalf("AppendPayload allocates %.1f/op at steady state, want ≤ 2", allocs)
	}
}

func TestSplitFrameIDEdgeCases(t *testing.T) {
	for _, s := range []mapreduce.Split{
		{ID: "", Records: []any{"r"}},
		{ID: "only-id", Records: nil},
		{ID: "empty-records", Records: []any{}},
	} {
		frame, err := EncodeSplit(s)
		if err != nil {
			t.Fatalf("%q: %v", s.ID, err)
		}
		got, err := DecodeSplit(frame)
		if err != nil {
			t.Fatalf("%q: %v", s.ID, err)
		}
		if got.ID != s.ID || len(got.Records) != len(s.Records) {
			t.Fatalf("%q: got %#v", s.ID, got)
		}
	}
}
