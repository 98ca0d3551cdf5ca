package flatenc

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"slider/internal/mapreduce"
)

// M is a payload in literal form; FromMap sorts it into a Payload.
type M = map[string]any

func fromMap(m M) Payload { return mapreduce.FromMap(m) }

func kv(key string, value any) mapreduce.Entry { return mapreduce.Entry{Key: key, Value: value} }

func encodeSet(t *testing.T, ps ...Payload) []byte {
	t.Helper()
	blob, err := AppendPayloadSet(nil, ps)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// customValue is an application accumulator type exercising the gob
// escape hatch (registered like persist.RegisterType would).
type customValue struct {
	N int64
	S string
}

func init() { gob.Register(customValue{}) }

// samplePayload mixes every native column type plus escape-hatch values.
func samplePayload() Payload {
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
	frame, err := EncodePayload(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodePayload(frame)
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
	for _, p := range []Payload{nil, {}} {
		frame, err := EncodePayload(p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodePayload(frame)
		if err != nil || len(got) != 0 {
			t.Fatalf("empty decode: %v %v", got, err)
		}
	}
}

// TestUnsortedFrameIsSortedOnce covers frames written while payloads were
// hash maps: entries in any order decode to the sorted payload, and the
// encoder writes entries exactly as it is handed them — which is how such
// a frame is fabricated here.
func TestUnsortedFrameIsSortedOnce(t *testing.T) {
	want := fromMap(M{"a": int64(1), "b": "two", "c": nil, "d": 2.5})
	mapOrder := Payload{want[2], want[0], want[3], want[1]}
	frame, err := EncodePayload(mapOrder)
	if err != nil {
		t.Fatal(err)
	}
	sorted, _ := EncodePayload(want)
	if bytes.Equal(frame, sorted) || len(frame) != len(sorted) {
		t.Fatal("entry order must be wire order, and must not change the frame size")
	}
	got, err := DecodePayload(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("unsorted frame decoded to %v, want %v", got, want)
	}
}

// TestDuplicateKeysAreMalformed: no writer ever produced a frame holding
// a key twice, so one that does is hostile or corrupt, adjacent or not.
func TestDuplicateKeysAreMalformed(t *testing.T) {
	for name, p := range map[string]Payload{
		"adjacent":        {kv("a", int64(1)), kv("a", int64(2)), kv("b", int64(3))},
		"apart":           {kv("a", int64(1)), kv("b", int64(3)), kv("a", int64(2))},
		"apart, unsorted": {kv("b", int64(3)), kv("a", int64(1)), kv("c", nil), kv("a", int64(2))},
	} {
		frame, err := EncodePayload(p)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := DecodePayload(frame); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: decoded to %v, %v; want ErrMalformed", name, got, err)
		}
		if got, err := DecodePayloadSet(encodeSet(t, Payload{kv("ok", true)}, p)); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s in a set: decoded to %v, %v; want ErrMalformed", name, got, err)
		}
	}
}

// TestHostileCountsAllocateNothing: a count the bytes cannot hold is
// refused before anything is sized by it, in a body and in a set.
func TestHostileCountsAllocateNothing(t *testing.T) {
	body, _ := EncodePayload(fromMap(M{"key": "value", "n": int64(7)}))
	hugeBody := append([]byte(nil), body...)
	binary.LittleEndian.PutUint32(hugeBody[1:], 1<<31-1)
	set := encodeSet(t, fromMap(M{"a": int64(1)}))
	hugeSet := append([]byte(nil), set...)
	binary.LittleEndian.PutUint32(hugeSet, 1<<31-1)
	// A set whose count only just exceeds what the bytes could hold.
	tightSet := append([]byte(nil), set...)
	binary.LittleEndian.PutUint32(tightSet, uint32(len(set)/(4+headerLen))+1)
	// Tags that claim more column entries than the header sized.
	liar := append([]byte(nil), body...)
	for i := 0; i < 2; i++ {
		liar[headerLen+i] = tagInt64
	}
	for name, decode := range map[string]func() error{
		"body count":   func() error { _, err := DecodePayload(hugeBody); return err },
		"values count": func() error { _, err := MakeValuesView(hugeBody); return err },
		"set count":    func() error { _, err := DecodePayloadSet(hugeSet); return err },
		"tight set":    func() error { _, err := DecodePayloadSet(tightSet); return err },
		"lying tags":   func() error { _, err := DecodePayload(liar); return err },
	} {
		if err := decode(); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", name, err)
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
	body, err := AppendValues(nil, vals)
	if err != nil {
		t.Fatal(err)
	}
	v, err := MakeValuesView(body)
	if err != nil {
		t.Fatal(err)
	}
	got, err := v.MaterializeValues()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, vals) {
		t.Fatalf("value list mismatch:\n got %#v\nwant %#v", got, vals)
	}
	// Zero-copy Values must agree too (strings alias the frame).
	zc, err := v.Values()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(zc, vals) {
		t.Fatalf("zero-copy values mismatch: %#v", zc)
	}
}

func TestPayloadSetRoundTrip(t *testing.T) {
	set := []Payload{
		fromMap(M{"a": int64(1)}),
		nil,
		fromMap(M{"b": "x", "c": 2.5}),
	}
	got, err := DecodePayloadSet(encodeSet(t, set...))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, set) {
		t.Fatalf("set mismatch: %#v vs %#v", got, set)
	}
}

func TestCorruptionDetected(t *testing.T) {
	frame, err := EncodePayload(fromMap(M{"key": "value", "n": int64(7)}))
	if err != nil {
		t.Fatal(err)
	}
	// Truncations at every boundary must fail cleanly, never panic.
	for cut := 0; cut < len(frame); cut++ {
		if p, err := DecodePayload(frame[:cut]); err == nil {
			// A shorter valid prefix is impossible: sections must sum to
			// the exact length.
			t.Fatalf("truncated frame at %d accepted: %+v", cut, p)
		}
	}
	// A bad version byte is rejected.
	bad := append([]byte(nil), frame...)
	bad[0] = 99
	if _, err := DecodePayload(bad); err == nil {
		t.Fatal("bad version accepted")
	}
}

func TestPooledEncodeIsAllocationFree(t *testing.T) {
	m := M{}
	for i := 0; i < 64; i++ {
		m[fmt.Sprintf("key-%d", i)] = int64(i)
	}
	p := fromMap(m)
	buf := GetBuffer()
	defer PutBuffer(buf)
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
// one copy of the key arena per payload, not a string per key. (Small
// ints box without allocating.)
func TestDecodeAllocsPerPayload(t *testing.T) {
	for _, n := range []int{4, 400} {
		m := M{}
		for i := 0; i < n; i++ {
			m[fmt.Sprintf("key-%d", i)] = int64(i % 200)
		}
		frame, err := EncodePayload(fromMap(m))
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if p, err := DecodePayload(frame); err != nil || len(p) != n {
				t.Fatal(p, err)
			}
		})
		if allocs != 2 {
			t.Errorf("%d-key decode: %.0f allocs, want 2 (entries, key arena)", n, allocs)
		}
	}
}
