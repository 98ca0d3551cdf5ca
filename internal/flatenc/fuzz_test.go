package flatenc

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
)

// valueFromBytes deterministically builds one payload value from the fuzz
// byte stream, covering every registerBuiltins type plus the custom
// registered accumulator type. It consumes bytes from *off.
func valueFromBytes(data []byte, off *int) any {
	next := func() byte {
		if *off >= len(data) {
			return 0
		}
		b := data[*off]
		*off++
		return b
	}
	u64 := func() uint64 {
		var raw [8]byte
		for i := range raw {
			raw[i] = next()
		}
		return binary.LittleEndian.Uint64(raw[:])
	}
	str := func() string {
		n := int(next()) % 16
		b := make([]byte, n)
		for i := range b {
			b[i] = 'a' + next()%26
		}
		return string(b)
	}
	switch next() % 18 {
	case 0:
		return nil
	case 1:
		return next()%2 == 0
	case 2:
		return int(int64(u64()))
	case 3:
		return int64(u64())
	case 4:
		return u64()
	case 5:
		// NaN breaks DeepEqual; keep floats comparable.
		f := math.Float64frombits(u64())
		if math.IsNaN(f) {
			f = 0.5
		}
		return f
	case 6:
		return str()
	case 7:
		b := []byte(str())
		if len(b) == 0 {
			b = []byte{}
		}
		return b
	case 8:
		return []float64{float64(next()), float64(next()) / 2}
	case 9:
		return []int64{int64(next()), -int64(next())}
	case 10:
		return []string{str(), str()}
	case 11:
		return []any{int64(next()), str()}
	case 12:
		return map[string]int64{str(): int64(next())}
	case 13:
		return map[string]float64{str(): float64(next())}
	case 14:
		return map[string]any{str(): int64(next())}
	case 15:
		return customValue{N: int64(u64()), S: str()}
	case 16:
		return ""
	default:
		return int64(-1)
	}
}

// gobRoundTrip pushes m through the legacy gob path (the sld1 codec's
// core): one encoder, one decoder, the payload as the map such frames
// carry.
func gobRoundTrip(t *testing.T, m M) M {
	t.Helper()
	EnsureBuiltins()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		t.Fatalf("gob encode: %v", err)
	}
	var out M
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&out); err != nil {
		t.Fatalf("gob decode: %v", err)
	}
	return out
}

// FuzzFlatCodec asserts flat encode→decode ≡ gob encode→decode on
// payloads mixing every builtin value type plus a custom registered type:
// the two codecs must agree value-for-value (same keys, same concrete
// types, same contents), so swapping frame versions can never change what
// a restore or a worker sees. Every payload is also written in three
// entry orders — sorted as live payloads are, shuffled as frames written
// from hash maps were, and with one key repeated: decode(encode(p)) must
// be p, strictly sorted, for the first two and ErrMalformed for the third.
func FuzzFlatCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17})
	f.Add(bytes.Repeat([]byte{0xFF, 0x00, 0x7E}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		off := 0
		n := 0
		if len(data) > 0 {
			n = int(data[0]) % 32
			off = 1
		}
		m := make(M, n)
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("k%d-%c", i, 'a'+byte(i)%26)
			m[key] = valueFromBytes(data, &off)
		}
		p := fromMap(m)
		// Both codecs decode an empty byte slice to a nil one.
		want := append(Payload(nil), p...)
		for i, e := range want {
			if b, ok := e.Value.([]byte); ok && len(b) == 0 {
				want[i].Value = []byte(nil)
			}
		}

		// The shuffle is drawn from the fuzz bytes too.
		unsorted := append(Payload(nil), p...)
		for i := len(unsorted) - 1; i > 0; i-- {
			j := 0
			if off < len(data) {
				j = int(data[off]) % (i + 1)
				off++
			}
			unsorted[i], unsorted[j] = unsorted[j], unsorted[i]
		}
		for name, written := range map[string]Payload{"sorted": p, "unsorted": unsorted} {
			frame, err := EncodePayload(written)
			if err != nil {
				t.Fatalf("%s: flat encode: %v", name, err)
			}
			flat, err := DecodePayload(frame)
			if err != nil {
				t.Fatalf("%s: flat decode: %v", name, err)
			}
			if !flat.IsSorted() {
				t.Fatalf("%s: decoded payload is not strictly sorted: %v", name, flat)
			}
			// Equal entry for entry, concrete types included.
			if !reflect.DeepEqual(flat, want) {
				t.Fatalf("%s: decode(encode(p)) != p:\n got %#v\nwant %#v", name, flat, want)
			}
			if viaGob := fromMap(gobRoundTrip(t, m)); !reflect.DeepEqual(flat, viaGob) {
				t.Fatalf("%s: codec divergence:\nflat %#v\ngob  %#v", name, flat, viaGob)
			}
		}
		if len(unsorted) > 0 {
			dup := append(unsorted, unsorted[0])
			frame, err := EncodePayload(dup)
			if err != nil {
				t.Fatalf("duplicate: flat encode: %v", err)
			}
			if got, err := DecodePayload(frame); !errors.Is(err, ErrMalformed) {
				t.Fatalf("duplicate key decoded to %v, %v; want ErrMalformed", got, err)
			}
		}

		// Hostile bytes — the raw input, and a valid frame with one byte
		// flipped — may be refused but must never panic.
		hostile, _ := EncodePayload(p)
		if off+1 < len(data) {
			hostile[int(data[off])%len(hostile)] ^= data[off+1]
		}
		for _, frame := range [][]byte{data, hostile} {
			_, _ = DecodePayload(frame)
			_, _ = DecodePayloadSet(frame)
			if v, err := MakeValuesView(frame); err == nil {
				_, _ = v.Values()
			}
		}
	})
}
