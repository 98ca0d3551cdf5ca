// Package persist provides the serialization and durable-storage
// machinery behind Slider's fault-tolerant state handling: checksummed
// framing for memoized payloads, runtime checkpoints and every message of
// the dist wire (whose envelopes use this package's frame header under
// kinds of their own; wire.go), and an atomic file store with corruption
// detection and replica fallback, the persistent half of the paper's
// memoization layer (§6), realized with real bytes on a real filesystem.
//
// Every frame written has one header, sld2 (frame.go), and a kind byte
// naming its body: the flat columnar body of a payload, a split, a
// payload set or a map task's result (body.go), or the gob encoding of
// an arbitrary value (kindValue: checkpoints, FileStore objects, a
// transport's small answers). Decode also reads sld1, the gob-only header
// that checkpoints and FileStore objects were written under before, so
// that what older writers left on disk still restores.
package persist

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"reflect"
	"sync"
)

// ErrCorrupt is returned when a frame fails its checksum or is
// structurally invalid.
var ErrCorrupt = errors.New("persist: corrupt frame")

// ErrNotLines is DecodeSplitLines' answer to a split that holds a record
// other than a string. The frame is not corrupt for it.
var ErrNotLines = errors.New("persist: split holds a record that is no string")

var builtinsOnce sync.Once

// registerBuiltins registers the value types that appear inside payloads
// of the bundled applications and the query layer, so they can travel
// through interface-typed gob fields and the flat body's gob column. Every
// gob encode and decode calls it first.
func registerBuiltins() {
	builtinsOnce.Do(func() {
		for _, v := range []any{
			int(0), int64(0), uint64(0), float64(0), false, "",
			[]byte(nil), []float64(nil), []int64(nil), []string(nil),
			[]any(nil), map[string]int64(nil), map[string]float64(nil),
			map[string]any(nil),
		} {
			gob.Register(v)
		}
	})
}

// RegisterType makes a concrete application value type serializable when
// stored behind an interface (payload values, query rows, split records)
// — in value frames and in the flat body's gob column. Call it once per
// custom Combine value type before checkpointing, e.g.
// persist.RegisterType(&MyAccumulator{}).
func RegisterType(v any) {
	gob.Register(v)
}

// Encode serializes v with gob inside a checksummed value frame.
func Encode(v any) ([]byte, error) {
	return AppendValue(nil, v)
}

// AppendValue appends the frame Encode returns for v behind what dst
// holds: the form a transport uses to put a small structured value (a
// ping's answer, a stats snapshot, a span tree) into a message it is
// building. Decode reads it back.
func AppendValue(dst []byte, v any) ([]byte, error) {
	registerBuiltins()
	return appendFramed(dst, kindValue, "value", func(out []byte) ([]byte, error) {
		buf := bytes.NewBuffer(out)
		err := gob.NewEncoder(buf).Encode(v)
		return buf.Bytes(), err
	})
}

// Decode deserializes a value frame (Encode, AppendValue) into out (a
// pointer). A frame under the sld1 header is read too.
func Decode(frame []byte, out any) error {
	var body []byte
	var err error
	if isFlatFrame(frame) {
		body, err = openFlatKind(frame, kindValue, "value")
	} else {
		body, err = openLegacyFrame(frame)
	}
	if err != nil {
		return err
	}
	return gobDecode(body, out)
}

// gobDecode decodes a checked gob stream into out (a pointer). The decoder
// makes a map with room for the count the stream claims before it reads
// an entry, so where out can hold a map the stream is first walked
// keeping nothing (DecodeValue of the zero Value), and the walk fails on a
// count that the bytes behind it cannot hold.
func gobDecode(data []byte, out any) error {
	registerBuiltins()
	if err := gobMessagesFit(data); err != nil {
		return err
	}
	if holdsMap(reflect.TypeOf(out)) {
		if err := gob.NewDecoder(bytes.NewReader(data)).DecodeValue(reflect.Value{}); err != nil {
			return fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
	}
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(out); err != nil {
		return fmt.Errorf("persist: decode: %w", err)
	}
	return nil
}

// mapHolders caches holdsMap by type.
var mapHolders sync.Map // reflect.Type → bool

// holdsMap reports whether a map, or an interface, which can hold one, lies
// anywhere in t: whether gob can make a map decoding into it.
func holdsMap(t reflect.Type) bool {
	if t == nil { // gob discards what it decodes into nothing
		return false
	}
	if v, ok := mapHolders.Load(t); ok {
		return v.(bool)
	}
	seen := map[reflect.Type]bool{}
	var reaches func(t reflect.Type) bool
	reaches = func(t reflect.Type) bool {
		if seen[t] {
			return false
		}
		seen[t] = true
		switch t.Kind() {
		case reflect.Map, reflect.Interface:
			return true
		case reflect.Pointer, reflect.Slice, reflect.Array:
			return reaches(t.Elem())
		case reflect.Struct:
			for i := range t.NumField() {
				if reaches(t.Field(i).Type) {
					return true
				}
			}
		}
		return false
	}
	holds := reaches(t)
	mapHolders.Store(t, holds)
	return holds
}

// openLegacyFrame validates an sld1 frame — magic (4) | length (8) |
// crc32 (4) | gob bytes — and returns its body. Checkpoints and FileStore
// objects written before every frame took the sld2 header have it; no
// writer emits it any more.
func openLegacyFrame(frame []byte) ([]byte, error) {
	const headerLen = 4 + 8 + 4
	if len(frame) < headerLen || string(frame[:4]) != "sld1" {
		return nil, fmt.Errorf("%w: bad header", ErrCorrupt)
	}
	return checkedBody(frame[headerLen:], frame[4:12], frame[12:16])
}

// gobMessagesFit walks the length prefixes of a gob stream's messages. The
// gob decoder sizes a buffer by each message's claimed length before it
// reads the message (up to 10 MiB at a time), so a claim the remaining
// bytes cannot hold is refused here: a checksum says the bytes are the
// sender's, not that the sender is honest. What an encoder wrote is
// messages end to end and passes.
func gobMessagesFit(data []byte) error {
	for len(data) > 0 {
		// A gob unsigned: one byte below 128, or the negated count of the
		// big-endian bytes that follow.
		n, width := uint64(data[0]), 1
		if n > 0x7f {
			width = 1 + 256 - int(data[0])
			if width > 9 || width > len(data) {
				return fmt.Errorf("%w: gob message length does not parse", ErrCorrupt)
			}
			n = 0
			for _, b := range data[1:width] {
				n = n<<8 | uint64(b)
			}
		}
		if n > uint64(len(data)-width) {
			return fmt.Errorf("%w: gob message claims %d bytes, %d follow", ErrCorrupt, n, len(data)-width)
		}
		data = data[width+int(n):]
	}
	return nil
}
