package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"slider/internal/mapreduce"
)

func fromMap(m M) mapreduce.Payload { return mapreduce.FromMap(m) }

func kv(key string, value any) mapreduce.Entry { return mapreduce.Entry{Key: key, Value: value} }

// encodeBody is the flat body of p, unframed.
func encodeBody(t testing.TB, p mapreduce.Payload) []byte {
	t.Helper()
	body, err := appendKeyedBody(nil, payloadEntries(p))
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func encodeSet(t *testing.T, ps ...mapreduce.Payload) []byte {
	t.Helper()
	blob, err := appendSetBody(nil, ps)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// customValue is an application accumulator type exercising the gob
// escape hatch.
type customValue struct {
	N int64
	S string
}

func init() { RegisterType(customValue{}) }

// samplePayload mixes every native column type plus escape-hatch values.
func samplePayload() mapreduce.Payload {
	return fromMap(M{
		"int":     int(-42),
		"int64":   int64(1 << 40),
		"uint64":  uint64(1<<63 + 7),
		"float":   3.14159,
		"negzero": math_NegZero(),
		"true":    true,
		"false":   false,
		"nil":     nil,
		"string":  "hello world",
		"empty":   "",
		"bytes":   []byte{0, 1, 2, 255},
		"floats":  []float64{1.5, 2.5},
		"ints":    []int64{3, 4, 5},
		"strs":    []string{"a", "b"},
		"anys":    []any{int64(1), "x"},
		"m64":     map[string]int64{"k": 9},
		"mf":      map[string]float64{"q": 0.5},
		"custom":  customValue{N: 11, S: "acc"},
	})
}

func math_NegZero() float64 {
	z := 0.0
	return -z
}

func TestPayloadRoundTrip(t *testing.T) {
	p := samplePayload()
	got, err := decodePayloadBody(encodeBody(t, p))
	if err != nil {
		t.Fatal(err)
	}
	// DeepEqual compares concrete types too (int vs int64 matters for
	// fingerprints) and the entry order.
	if !reflect.DeepEqual(got, p) {
		t.Fatalf("round trip mismatch:\n got %#v\nwant %#v", got, p)
	}
}

func TestEmptyPayload(t *testing.T) {
	for _, p := range []mapreduce.Payload{nil, {}} {
		got, err := decodePayloadBody(encodeBody(t, p))
		if err != nil || len(got) != 0 {
			t.Fatalf("empty decode: %v %v", got, err)
		}
	}
}

// TestMisorderedPayloadIsCorrupt: every writer emits keys strictly
// ascending, so a payload whose keys are not is ErrCorrupt wherever it is
// decoded — a payload frame, a payload set (a checkpoint's buckets and
// leaves), a map-result frame (a worker's reply). The encoder writes entries
// exactly as it is handed them, which is how such frames are fabricated
// here.
func TestMisorderedPayloadIsCorrupt(t *testing.T) {
	sorted := fromMap(M{"a": int64(1), "b": "two", "c": nil, "d": 2.5})
	for name, p := range map[string]mapreduce.Payload{
		"shuffled":         {sorted[2], sorted[0], sorted[3], sorted[1]},
		"last two swapped": {sorted[0], sorted[1], sorted[3], sorted[2]},
		"reversed":         {sorted[3], sorted[2], sorted[1], sorted[0]},
	} {
		body := encodeBody(t, p)
		if len(body) != len(encodeBody(t, sorted)) {
			t.Fatal("entry order must not change the body's size")
		}
		if got, err := decodePayloadBody(body); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s body: decoded to %v, %v; want ErrCorrupt", name, got, err)
		}
		frame, err := EncodePayload(p)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := DecodePayload(frame); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s payload frame: decoded to %v, %v; want ErrCorrupt", name, got, err)
		}
		if frame, err = EncodePayloadSet([]mapreduce.Payload{sorted, p}); err != nil {
			t.Fatal(err)
		}
		if got, err := DecodePayloadSet(frame); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s in a payload set: decoded to %v, %v; want ErrCorrupt", name, got, err)
		}
		res := mapreduce.MapResult{SplitID: "s", Parts: []mapreduce.Payload{sorted, p}, Records: 4}
		if frame, err = AppendMapResult(nil, res); err != nil {
			t.Fatal(err)
		}
		if got, err := DecodeMapResult(frame); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s in a map result: decoded to %+v, %v; want ErrCorrupt", name, got, err)
		}
	}
}

// TestDuplicateKeysAreMalformed: no writer ever produced a frame holding
// a key twice, so one that does is hostile or corrupt, adjacent or not.
func TestDuplicateKeysAreMalformed(t *testing.T) {
	for name, p := range map[string]mapreduce.Payload{
		"adjacent":        {kv("a", int64(1)), kv("a", int64(2)), kv("b", int64(3))},
		"apart":           {kv("a", int64(1)), kv("b", int64(3)), kv("a", int64(2))},
		"apart, unsorted": {kv("b", int64(3)), kv("a", int64(1)), kv("c", nil), kv("a", int64(2))},
	} {
		if got, err := decodePayloadBody(encodeBody(t, p)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: decoded to %v, %v; want ErrCorrupt", name, got, err)
		}
		if got, err := decodeSetBody(encodeSet(t, mapreduce.Payload{kv("ok", true)}, p)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s in a set: decoded to %v, %v; want ErrCorrupt", name, got, err)
		}
	}
}

// TestHostileCountsAllocateNothing: a count the bytes cannot hold is
// refused before anything is sized by it, in a body and in a set.
func TestHostileCountsAllocateNothing(t *testing.T) {
	body := encodeBody(t, fromMap(M{"key": "value", "n": int64(7)}))
	hugeBody := append([]byte(nil), body...)
	binary.LittleEndian.PutUint32(hugeBody[1:], 1<<31-1)
	set := encodeSet(t, fromMap(M{"a": int64(1)}))
	hugeSet := append([]byte(nil), set...)
	binary.LittleEndian.PutUint32(hugeSet, 1<<31-1)
	// A set whose count only just exceeds what the bytes could hold.
	tightSet := append([]byte(nil), set...)
	binary.LittleEndian.PutUint32(tightSet, uint32(len(set)/(4+bodyHeaderLen))+1)
	// Tags that claim more column entries than the header sized.
	liar := append([]byte(nil), body...)
	for i := 0; i < 2; i++ {
		liar[bodyHeaderLen+i] = tagInt64
	}
	for name, decode := range map[string]func() error{
		"body count":   func() error { _, err := decodePayloadBody(hugeBody); return err },
		"values count": func() error { _, err := valuesView(hugeBody); return err },
		"set count":    func() error { _, err := decodeSetBody(hugeSet); return err },
		"tight set":    func() error { _, err := decodeSetBody(tightSet); return err },
		"lying tags":   func() error { _, err := decodePayloadBody(liar); return err },
	} {
		if err := decode(); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
		// Believing either huge count would size a slice in the gigabytes.
		if n := allocatedBytes(func() { _ = decode() }); n > 1<<16 {
			t.Errorf("%s: %d bytes allocated refusing it; the count was believed", name, n)
		}
	}
}

// allocatedBytes returns how many heap bytes fn allocates.
func allocatedBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func TestValueListRoundTrip(t *testing.T) {
	vals := []any{"line one", "line two", int64(7), nil, true, []byte{9}, customValue{N: 1}}
	body, err := appendValuesBody(nil, vals)
	if err != nil {
		t.Fatal(err)
	}
	v, err := valuesView(body)
	if err != nil {
		t.Fatal(err)
	}
	got, err := v.materializeValues()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, vals) {
		t.Fatalf("value list mismatch:\n got %#v\nwant %#v", got, vals)
	}
	// Zero-copy values must agree too (strings alias the frame).
	zc, err := v.values()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(zc, vals) {
		t.Fatalf("zero-copy values mismatch: %#v", zc)
	}
}

func TestPayloadSetRoundTrip(t *testing.T) {
	set := []mapreduce.Payload{
		fromMap(M{"a": int64(1)}),
		nil,
		fromMap(M{"b": "x", "c": 2.5}),
	}
	got, err := decodeSetBody(encodeSet(t, set...))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, set) {
		t.Fatalf("set mismatch: %#v vs %#v", got, set)
	}
}

func TestCorruptionDetected(t *testing.T) {
	body := encodeBody(t, fromMap(M{"key": "value", "n": int64(7)}))
	// Truncations at every boundary must fail cleanly, never panic.
	for cut := 0; cut < len(body); cut++ {
		if p, err := decodePayloadBody(body[:cut]); err == nil {
			// A shorter valid prefix is impossible: sections must sum to
			// the exact length.
			t.Fatalf("truncated body at %d accepted: %+v", cut, p)
		}
	}
	// A bad version byte is rejected.
	bad := append([]byte(nil), body...)
	bad[0] = 99
	if _, err := decodePayloadBody(bad); err == nil {
		t.Fatal("bad version accepted")
	}
}

func TestPooledEncodeIsAllocationFree(t *testing.T) {
	m := M{}
	for i := 0; i < 64; i++ {
		m[fmt.Sprintf("key-%d", i)] = int64(i)
	}
	p := fromMap(m)
	buf := getBuffer()
	defer putBuffer(buf)
	// Warm the buffer.
	out, err := AppendPayload(*buf, p)
	if err != nil {
		t.Fatal(err)
	}
	*buf = out[:0]
	allocs := testing.AllocsPerRun(100, func() {
		out, err := AppendPayload(*buf, p)
		if err != nil {
			t.Fatal(err)
		}
		*buf = out[:0]
	})
	// The steady state re-uses the buffer and reads the entries in place.
	if allocs != 0 {
		t.Fatalf("pooled encode allocates %.1f/op, want 0", allocs)
	}
}

func TestDecodeDetachesFromFrame(t *testing.T) {
	p := fromMap(M{"word": "payload", "blob": []byte("abc")})
	frame, err := EncodePayload(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodePayload(frame)
	if err != nil {
		t.Fatal(err)
	}
	// Scribbling over the frame must not affect the decoded payload.
	for i := range frame {
		frame[i] = 0xAA
	}
	if !reflect.DeepEqual(got, p) {
		t.Fatalf("decoded payload aliases the frame: %#v", got)
	}
}

// TestDecodeAllocsPerPayload pins the decode shape: the entry slice and
// one copy of the key arena per payload, not a string per key. The bound
// is net of the boxes: Go allocates one word for every int64 above 255
// put into an interface, whoever decodes it, and the runtime boxes
// single-byte values for free — so half the counts here are boxed and half
// are not.
func TestDecodeAllocsPerPayload(t *testing.T) {
	for _, n := range []int{4, 400} {
		m := M{}
		boxed := 0
		for i := 0; i < n; i++ {
			v := int64(i % 200)
			if i%2 == 1 {
				v, boxed = int64(1000+i), boxed+1
			}
			m[fmt.Sprintf("key-%d", i)] = v
		}
		frame, err := EncodePayload(fromMap(m))
		if err != nil {
			t.Fatal(err)
		}
		// A decode takes its entries from the task stock when a slice there
		// fits, and a refused decode hands its slice back: take out every
		// slice an earlier test left that fits, so that each decode here
		// makes its own.
		for range mapreduce.FreeListBuffers {
			mapreduce.TakeTaskPayload(n)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if p, err := DecodePayload(frame); err != nil || len(p) != n {
				t.Fatal(p, err)
			}
		})
		if own := allocs - float64(boxed); own != 2 {
			t.Errorf("%d-key decode: %.0f allocs of which %d boxed counts, leaves %.0f, want 2 (entries, key arena)", n, allocs, boxed, own)
		}
	}
}
