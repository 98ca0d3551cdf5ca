package persist

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
	"runtime"
	"testing"

	"slider/internal/mapreduce"
)

// M is a payload in literal form, and the map an sld1 frame carries.
type M = map[string]mapreduce.Value

func testMap() M {
	return M{
		"count": int64(42),
		"word":  "hello",
		"ratio": 0.25,
		"blob":  []byte{1, 2, 3},
		"flag":  true,
		"list":  []int64{7, 8},
	}
}

func testPayload() mapreduce.Payload { return mapreduce.FromMap(testMap()) }

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
	// An sld1 frame carries the payload as a gob map; it decodes to the
	// sorted payload.
	p := testPayload()
	got, err := DecodePayload(legacyFrame(t, testMap()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Fatalf("gob payload frame mismatch:\n got %#v\nwant %#v", got, p)
	}

	set := []mapreduce.Payload{p, mapreduce.FromMap(M{"k": int64(1)})}
	gotSet, err := DecodePayloadSet(legacyFrame(t, []M{testMap(), {"k": int64(1)}}))
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

// Frames written by the commit before payloads became sorted slices, when
// mapreduce.Payload was a named map type: an sld1 payload and payload set
// (whole-value gob of the maps), and an sld2 payload whose entries lie in
// that writer's map iteration order ("word" first). All three hold
// {"apple": true, "count": int64(42), "list": []int64{7, 8},
// "ratio": 0.25, "word": "hello"}; the set adds {"k": int64(1)} and a nil.
const (
	parentGobPayload    = "736c643185000000000000008c2535d6167f040101075061796c6f616401ff8000010c011000001dff800005046c697374075b5d696e743634ff81020102ff8200010400004fff820400020e10056170706c6504626f6f6c0202000104776f726406737472696e670c07000568656c6c6f05636f756e7405696e7436340402005405726174696f07666c6f61743634080400fed03f"
	parentGobPayloadSet = "736c6431a200000000000000fcb825f30dff83020102ff840001ff800000167f040101075061796c6f616401ff8000010c0110000032ff8400030505726174696f07666c6f61743634080400fed03f046c697374075b5d696e743634ff81020102ff82000104000049ff820400020e10056170706c6504626f6f6c0202000104776f726406737472696e670c07000568656c6c6f05636f756e7405696e7436340402005401016b05696e7436340402000200"
	parentFlatUnsorted  = "736c643201a000000000000000dc8c9f3c010500000017000000020000000200000043000000070406090204000000050000000500000004000000050000002a00000000000000000000000000d03f050000003e000000776f7264636f756e74726174696f6c6973746170706c6568656c6c6f1cff8503010108676f6256616c756501ff86000101010156011000000017ff8601075b5d696e743634ff81020102ff82000104000008ff820400020e1000"
)

// TestFramesFromBeforeSortedPayloadsDecode: bytes an older writer left in
// a memo directory or a checkpoint decode, unmodified, to the sorted
// payload.
func TestFramesFromBeforeSortedPayloadsDecode(t *testing.T) {
	want := mapreduce.FromMap(M{"apple": true, "count": int64(42), "list": []int64{7, 8}, "ratio": 0.25, "word": "hello"})
	frame := func(h string) []byte {
		b, err := hex.DecodeString(h)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for name, h := range map[string]string{"sld1": parentGobPayload, "sld2 in map order": parentFlatUnsorted} {
		got, err := DecodePayload(frame(h))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s decoded to %#v, want %#v", name, got, want)
		}
	}
	set, err := DecodePayloadSet(frame(parentGobPayloadSet))
	if wantSet := []mapreduce.Payload{want, mapreduce.FromMap(M{"k": int64(1)}), nil}; err != nil || !reflect.DeepEqual(set, wantSet) {
		t.Errorf("sld1 set decoded to %#v (%v), want %#v", set, err, wantSet)
	}
}

func TestPayloadSetFrameRoundTrip(t *testing.T) {
	set := []mapreduce.Payload{
		mapreduce.FromMap(M{"a": int64(1)}),
		nil,
		mapreduce.FromMap(M{"b": "two", "c": 2.5}),
	}
	frame, err := EncodePayloadSet(set)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodePayloadSet(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, set) {
		t.Fatalf("set mismatch: %#v vs %#v", got, set)
	}

	// The same set held with sizes frames to the same bytes.
	sized := make([]mapreduce.Sized, len(set))
	for i, p := range set {
		sized[i] = mapreduce.Sized{P: p, Bytes: int64(i)}
	}
	if viaSized, err := EncodeSizedSet(sized); err != nil || !reflect.DeepEqual(viaSized, frame) {
		t.Fatalf("EncodeSizedSet frames differently from EncodePayloadSet (%v)", err)
	}
}

// reframe wraps a flat body in a valid sld2 frame of the given kind, the
// way a hostile or buggy writer would: the checksum is right, the body is
// whatever it is.
func reframe(kind byte, body []byte) []byte {
	frame := StartFrame(nil, kind)
	return FinishFrame(append(frame, body...), len(frame))
}

// TestHostileFramesRefusedBeforeAllocating: a checksum only proves the
// bytes are the writer's. Duplicate keys and counts the body cannot hold
// are refused as ErrCorrupt, the counts before anything is sized by them.
func TestHostileFramesRefusedBeforeAllocating(t *testing.T) {
	good, err := EncodePayload(testPayload())
	if err != nil {
		t.Fatal(err)
	}
	dup := mapreduce.Payload{{Key: "a", Value: int64(1)}, {Key: "b", Value: int64(2)}, {Key: "a", Value: int64(3)}}
	dupFrame, err := EncodePayload(dup)
	if err != nil {
		t.Fatal(err)
	}
	dupSet, err := EncodePayloadSet([]mapreduce.Payload{testPayload(), dup})
	if err != nil {
		t.Fatal(err)
	}
	hugeCount := append([]byte(nil), good[flatHeaderLen:]...)
	binary.LittleEndian.PutUint32(hugeCount[1:], 1<<31-1)
	hugeSet := binary.LittleEndian.AppendUint32(nil, 1<<31-1)
	hugeSet = append(hugeSet, good[flatHeaderLen:]...)

	one := func(f []byte) error { _, err := DecodePayload(f); return err }
	set := func(f []byte) error { _, err := DecodePayloadSet(f); return err }
	for name, tc := range map[string]struct {
		frame   []byte
		decode  func([]byte) error
		isCount bool
	}{
		"duplicate key":        {dupFrame, one, false},
		"duplicate key in set": {dupSet, set, false},
		"payload count":        {reframe(kindPayload, hugeCount), one, true},
		"set count":            {reframe(kindPayloadSet, hugeSet), set, true},
	} {
		if crc32.ChecksumIEEE(tc.frame[flatHeaderLen:]) != binary.LittleEndian.Uint32(tc.frame[13:17]) {
			t.Fatalf("%s: test frame has a bad checksum; it would be refused for the wrong reason", name)
		}
		if err := tc.decode(tc.frame); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
		if !tc.isCount {
			continue
		}
		// Believing the count would size a slice in the gigabytes.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_ = tc.decode(tc.frame)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<16 {
			t.Errorf("%s: %d bytes allocated refusing it; the count was believed", name, n)
		}
	}
}

// TestDecodePayloadSetAllocs pins the decode shape on the dist and memo
// paths: two allocations per payload (entries, key arena) and one for the
// set — not one per key. (Small ints box without allocating.)
func TestDecodePayloadSetAllocs(t *testing.T) {
	const payloads, keys = 4, 300
	set := make([]mapreduce.Payload, payloads)
	for i := range set {
		m := make(M, keys)
		for k := 0; k < keys; k++ {
			m[fmt.Sprintf("w%d-%d", i, k)] = int64(k % 100)
		}
		set[i] = mapreduce.FromMap(m)
	}
	frame, err := EncodePayloadSet(set)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if got, err := DecodePayloadSet(frame); err != nil || len(got) != payloads {
			t.Fatal(err)
		}
	})
	if want := float64(2*payloads + 1); allocs != want {
		t.Errorf("decoding %d payloads of %d keys: %.0f allocs, want %.0f", payloads, keys, allocs, want)
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
	m := testMap()
	delete(m, "list") // keep to native scalars for the alloc bound
	p := mapreduce.FromMap(m)
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
	if allocs != 0 {
		t.Fatalf("AppendPayload allocates %.1f/op at steady state, want 0", allocs)
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
