package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
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
// exactly the frame EncodeSplit returns, whatever the records, and
// FrameSize finds the frame's end from its first bytes.
func TestAppendSplitBehindAMessage(t *testing.T) {
	RegisterType(fancyRecord{})
	for name, s := range map[string]mapreduce.Split{
		"scalar records": {ID: "lines", Records: []any{"alpha beta", int64(7), []byte{1, 2}}},
		"struct records": {ID: "structured", Records: []any{fancyRecord{A: 1, B: "x"}}},
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
	value, err := Encode("x")
	if err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string][]byte{
		"short":        good[:FramePrefixLen-1],
		"other magic":  []byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n"),
		"over the cap": over,
		"sld1":         sld1Frame(value[flatHeaderLen:]),
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

// TestDecodeIntoReleasedParts: a map result's payloads are decoded into the
// task stock's storage (mapreduce.TakeTaskPayload). Once a decoded result's
// parts are released, as a bucket fold releases the ranges it merged,
// decoding the same frame again allocates only the key arenas and the
// result's headers — its id, partition sizes and parts. A held slice more
// than twice a part's need is not handed out; one of exactly twice is. The
// test takes back what it released, so no other test finds it.
func TestDecodeIntoReleasedParts(t *testing.T) {
	const parts, keys = 4, 300 // 300, 200 and 100 keys, and an empty part
	r := mapreduce.MapResult{SplitID: "range-3", Records: 9, Parts: make([]mapreduce.Payload, parts), PartBytes: make([]int64, parts)}
	for p := range parts - 1 { // the last partition stays empty
		m := make(M, keys)
		for k := range keys - 100*p { // a slice of 2·300+1 fits no other part
			m[fmt.Sprintf("w%d-%d", p, k)] = int64(k % 100) // unboxed
		}
		r.Parts[p] = mapreduce.FromMap(m)
		r.PartBytes[p] = int64(16 * len(m))
		r.Bytes += r.PartBytes[p]
	}
	frame, err := AppendMapResult(nil, r)
	if err != nil {
		t.Fatal(err)
	}
	decode := func() mapreduce.MapResult {
		got, err := DecodeMapResult(frame)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	release := func(res mapreduce.MapResult) {
		for _, p := range res.Parts {
			mapreduce.ReleaseTaskPayload(p)
		}
	}
	got := decode()
	if !reflect.DeepEqual(got, r) {
		t.Fatal("the decoded result differs from the one framed")
	}
	release(got)
	allocs := testing.AllocsPerRun(20, func() { release(decode()) })
	for _, p := range r.Parts {
		mapreduce.TakeTaskPayload(len(p)) // the loop's last release
	}
	if want := float64(3 + parts - 1); allocs != want {
		t.Errorf("a decode into released parts makes %.0f allocations, want %.0f: %d key arenas and 3 headers", allocs, want, parts-1)
	}
	if again := decode(); !reflect.DeepEqual(again, r) {
		t.Fatal("a decode into released storage differs from the result framed")
	}

	n := len(r.Parts[0])
	for _, c := range []struct {
		held, want int
	}{{2*n + 1, n}, {2 * n, 2 * n}} {
		mapreduce.ReleaseTaskPayload(make(mapreduce.Payload, c.held))
		got := decode()
		if len(got.Parts[0]) != n || cap(got.Parts[0]) != c.want {
			t.Errorf("a stock holding a slice of %d entries gave a part of %d entries capacity %d, want %d", c.held, len(got.Parts[0]), cap(got.Parts[0]), c.want)
		}
	}
	mapreduce.TakeTaskPayload(n + 1) // the slice of 2n+1 nobody took
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

// TestDishonestMapResultSizesRefused: a map result's record count and
// sizes are the sender's claims even under a valid checksum, and the
// runtime's space accounting takes them over. A frame with a negative
// count or size, or with partition sizes that do not add up to its total,
// is refused; the honest frame next to them decodes.
func TestDishonestMapResultSizesRefused(t *testing.T) {
	honest := testMapResult()
	for name, lie := range map[string]func(r *mapreduce.MapResult){
		"negative records":          func(r *mapreduce.MapResult) { r.Records = -1 },
		"negative total":            func(r *mapreduce.MapResult) { r.Bytes = -r.Bytes },
		"negative partition":        func(r *mapreduce.MapResult) { r.PartBytes[0], r.PartBytes[2] = -40, r.PartBytes[2]+r.PartBytes[0]+40 },
		"partitions short of total": func(r *mapreduce.MapResult) { r.Bytes++ },
		"partitions over the total": func(r *mapreduce.MapResult) { r.PartBytes[1]++ },
		"partitions wrapping to total": func(r *mapreduce.MapResult) {
			r.PartBytes[0], r.PartBytes[1], r.PartBytes[2] = math.MaxInt64, math.MaxInt64, r.Bytes+2 // 2⁶⁴ + Bytes
		},
		"no partitions, some bytes": func(r *mapreduce.MapResult) { r.Parts, r.PartBytes = nil, nil },
	} {
		r := honest
		r.PartBytes = append([]int64(nil), honest.PartBytes...)
		lie(&r)
		frame, err := AppendMapResult(nil, r)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := DecodeMapResult(frame); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
	frame, err := AppendMapResult(nil, honest)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeMapResult(frame); err != nil {
		t.Fatalf("the honest frame: %v", err)
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
// counts, a count the input is too short for, a length that overruns. It
// holds for a value frame, for the sld1 frame Decode still reads, and for
// a record in a split's gob column, the worker's way in.
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
		for form, frame := range map[string][]byte{"value": reframe(kindValue, body), "sld1": sld1Frame(body)} {
			var out struct{ A int }
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := Decode(frame, &out)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s in a %s frame: Decode = %v, want ErrCorrupt", name, form, err)
			}
			if n := after.TotalAlloc - before.TotalAlloc; n > 1<<16 {
				t.Errorf("%s in a %s frame: %d bytes allocated refusing a gob length claim", name, form, n)
			}
		}
	}
	// The same byte as a split's one record, in the gob column.
	records, err := appendValuesBody(binary.LittleEndian.AppendUint32(nil, 0), []any{[]byte{0x80}})
	if err != nil {
		t.Fatal(err)
	}
	records[4+bodyHeaderLen] = tagGob
	if _, err := DecodeSplitZeroCopy(reframe(kindSplit, records)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("split whose gob record is 0x80: %v, want ErrCorrupt", err)
	}
	// What an encoder writes passes: messages end to end.
	frame, err := Encode(map[string][]int64{"k": make([]int64, 300)})
	if err != nil {
		t.Fatal(err)
	}
	if err := gobMessagesFit(frame[flatHeaderLen:]); err != nil {
		t.Errorf("an encoder's own stream refused: %v", err)
	}
}

// TestHostileGobMapCountRefused: gob makes a map with room for the count
// the stream claims before it reads an entry, so a count of 2^20 in a
// stream of two dozen bytes would cost tens of megabytes. It is refused as
// ErrCorrupt, in a value frame and in an sld1 frame, before that.
func TestHostileGobMapCountRefused(t *testing.T) {
	frame, err := Encode(map[string]int64{"k": 7})
	if err != nil {
		t.Fatal(err)
	}
	// The stream is short messages, each behind a one-byte length; the
	// last is the value: type id, singleton delta, count 1, key "k",
	// value 7.
	body := frame[flatHeaderLen:]
	last := 0
	for last+1+int(body[last]) < len(body) && body[last] < 0x80 {
		last += 1 + int(body[last])
	}
	tail := []byte{0x00, 0x01, 0x01, 'k', 0x0e}
	if !bytes.HasSuffix(body, tail) || body[last] >= 0x80 {
		t.Fatalf("gob stream % x does not end in the expected value message", body)
	}
	typeID := body[last+1 : len(body)-len(tail)]
	// The same message claiming 2^20 entries: the count takes three bytes
	// behind its width byte.
	msg := append(append([]byte(nil), typeID...), 0x00, 0xfd, 0x10, 0x00, 0x00, 0x01, 'k', 0x0e)
	hostile := append(append(append([]byte(nil), body[:last]...), byte(len(msg))), msg...)
	for form, frame := range map[string][]byte{"value": reframe(kindValue, hostile), "sld1": sld1Frame(hostile)} {
		var out map[string]int64
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := Decode(frame, &out)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s frame: Decode = %v, want ErrCorrupt", form, err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<16 {
			t.Errorf("%s frame: %d bytes allocated refusing a map count of 2^20", form, n)
		}
	}
}
