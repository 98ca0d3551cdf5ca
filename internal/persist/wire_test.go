package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"slider/internal/mapreduce"
)

func testMapResult() mapreduce.MapResult {
	parts := []mapreduce.Payload{testPayload(), nil, mapreduce.FromMap(M{"k": int64(1)})}
	r := mapreduce.MapResult{SplitID: "split-7", Parts: parts, Cost: 1234 * time.Microsecond, Records: 42}
	for _, p := range parts {
		b := int64(40 * len(p))
		r.PartBytes = append(r.PartBytes, b)
		r.Bytes += b
	}
	return r
}

// TestAppendSplitBehindAMessage: AppendSplit writes behind what dst holds
// exactly the frame EncodeSplit returns, in both split forms, and FrameSize
// finds the frame's end from its first bytes.
func TestAppendSplitBehindAMessage(t *testing.T) {
	RegisterType(fancyRecord{})
	for name, s := range map[string]mapreduce.Split{
		"flat": {ID: "lines", Records: []any{"alpha beta", int64(7), []byte{1, 2}}},
		"gob":  {ID: "structured", Records: []any{fancyRecord{A: 1, B: "x"}}},
	} {
		want, err := EncodeSplit(s)
		if err != nil {
			t.Fatal(err)
		}
		prefix := []byte("envelope")
		got, err := AppendSplit(append([]byte(nil), prefix...), s)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("%s: AppendSplit wrote %d bytes behind the prefix, EncodeSplit %d, or they differ", name, len(got)-len(prefix), len(want))
		}
		if size, err := FrameSize(want); err != nil || size != len(want) {
			t.Fatalf("%s: FrameSize = %d, %v; the frame is %d bytes", name, size, err, len(want))
		}
		back, err := DecodeSplitZeroCopy(got[len(prefix):])
		if err != nil || !reflect.DeepEqual(back, s) {
			t.Fatalf("%s: decoded %#v, %v", name, back, err)
		}
	}
}

func TestFrameSizeRefusals(t *testing.T) {
	good, err := EncodePayload(testPayload())
	if err != nil {
		t.Fatal(err)
	}
	over := append([]byte(nil), good...)
	binary.LittleEndian.PutUint64(over[5:], MaxFrameLen)
	overGob, err := Encode("x")
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(overGob[4:], 1<<62)
	for name, b := range map[string][]byte{
		"short":         good[:FramePrefixLen-1],
		"other magic":   []byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n"),
		"over the cap":  over,
		"sld1 over cap": overGob,
	} {
		if _, err := FrameSize(b); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

func TestMapResultFrameRoundTrip(t *testing.T) {
	r := testMapResult()
	frame, err := AppendMapResult([]byte("before"), r)
	if err != nil {
		t.Fatal(err)
	}
	frame = frame[len("before"):]
	if size, err := FrameSize(frame); err != nil || size != len(frame) {
		t.Fatalf("FrameSize = %d, %v; the frame is %d bytes", size, err, len(frame))
	}
	got, err := DecodeMapResult(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Fatalf("round trip mismatch:\n got %#v\nwant %#v", got, r)
	}
	// Every byte sits under the frame's checksum: the metadata too.
	for i := range frame {
		bad := append([]byte(nil), frame...)
		bad[i] ^= 0xFF
		if _, err := DecodeMapResult(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("byte %d flipped: err = %v, want ErrCorrupt", i, err)
		}
	}
	if _, err := AppendMapResult(nil, mapreduce.MapResult{SplitID: "s", Parts: r.Parts}); err == nil {
		t.Fatal("a result without its partition sizes was framed")
	}
	if _, err := DecodeMapResult(mustEncodePayload(t)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("a payload frame decoded as a map result: %v", err)
	}
}

func mustEncodePayload(t *testing.T) []byte {
	t.Helper()
	frame, err := EncodePayload(testPayload())
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestHostileMapResultRefusedBeforeAllocating: counts and lengths inside a
// map-result body whose checksum is right are still the sender's claims.
func TestHostileMapResultRefusedBeforeAllocating(t *testing.T) {
	frame, err := AppendMapResult(nil, testMapResult())
	if err != nil {
		t.Fatal(err)
	}
	body := frame[flatHeaderLen:]
	idLen := int(binary.LittleEndian.Uint32(body))
	hugeID := append([]byte(nil), body...)
	binary.LittleEndian.PutUint32(hugeID, 1<<31)
	hugeParts := append([]byte(nil), body...)
	binary.LittleEndian.PutUint32(hugeParts[4+idLen+24:], 1<<31-1)
	for name, b := range map[string][]byte{
		"id length":       hugeID,
		"partition count": hugeParts,
		"truncated":       body[:4+idLen+10],
		"empty":           nil,
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeMapResult(reframe(kindMapResult, b))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<16 {
			t.Errorf("%s: %d bytes allocated refusing it; the count was believed", name, n)
		}
	}
}

// TestAppendValueBehindAMessage: AppendValue writes behind what dst holds
// the frame Encode returns, and Decode reads it back.
func TestAppendValueBehindAMessage(t *testing.T) {
	type snapshot struct {
		Name   string
		Counts [4]int64
		Tags   []string
	}
	in := snapshot{Name: "w0", Counts: [4]int64{1, 2, 3, 4}, Tags: []string{"a", "b"}}
	want, err := Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := AppendValue([]byte("before"), in)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, append([]byte("before"), want...)) {
		t.Fatalf("AppendValue wrote %d bytes behind the prefix, Encode %d, or they differ", len(got)-len("before"), len(want))
	}
	frame := got[len("before"):]
	if size, err := FrameSize(frame); err != nil || size != len(frame) {
		t.Fatalf("FrameSize = %d, %v; the frame is %d bytes", size, err, len(frame))
	}
	var out snapshot
	if err := Decode(frame, &out); err != nil || !reflect.DeepEqual(out, in) {
		t.Fatalf("decoded %+v, %v", out, err)
	}
}

// TestHostileGobLengthsRefused: a gob stream whose checksum is right is
// still the sender's claim. Every first byte a message length can start
// with is refused as ErrCorrupt — no panic, and nothing sized by the claim
// — when the bytes behind it cannot hold what it says: 0x80 (the negated
// byte count that does not fit an int8) and the rest of the over-long
// counts, a count the input is too short for, a length that overruns.
func TestHostileGobLengthsRefused(t *testing.T) {
	cases := map[string][]byte{
		"9 MiB follow":    {0xFC, 0x00, 0x90, 0x00, 0x00, 1, 2, 3},
		"count 8, short":  {0xF8, 1, 2},
		"length overruns": {0x05, 1, 2},
	}
	for b := 0x80; b <= 0xF7; b++ { // 128 down to 9 length bytes: no uint64 has them
		cases[fmt.Sprintf("count byte %#x", b)] = append([]byte{byte(b)}, make([]byte, 200)...)
		cases[fmt.Sprintf("count byte %#x alone", b)] = []byte{byte(b)}
	}
	for name, body := range cases {
		if err := gobMessagesFit(body); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: gobMessagesFit = %v, want ErrCorrupt", name, err)
		}
		var out struct{ A int }
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := Decode(appendGobFrame(nil, body), &out)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Decode = %v, want ErrCorrupt", name, err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<16 {
			t.Errorf("%s: %d bytes allocated refusing a gob length claim", name, n)
		}
	}
	// The same byte inside a gob-fallback split frame, the worker's way in.
	if _, err := DecodeSplitZeroCopy(appendGobFrame(nil, []byte{0x80})); !errors.Is(err, ErrCorrupt) {
		t.Errorf("split frame with body 0x80: %v, want ErrCorrupt", err)
	}
	// What an encoder writes passes: messages end to end.
	data, err := gobBytes(map[string][]int64{"k": make([]int64, 300)})
	if err != nil {
		t.Fatal(err)
	}
	if err := gobMessagesFit(data); err != nil {
		t.Errorf("an encoder's own stream refused: %v", err)
	}
}
