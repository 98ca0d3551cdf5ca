// Package persist provides the serialization and durable-storage
// machinery behind Slider's fault-tolerant state handling: checksummed
// framing for memoized payloads, runtime checkpoints and every message of
// the dist wire (whose envelopes use this package's frame header under
// kinds of their own; wire.go) — a gob codec for arbitrary values (frame
// version sld1) and the flat columnar payload codec of internal/flatenc
// (frame version sld2) — and
// an atomic file store with corruption detection and replica fallback,
// the persistent half of the paper's memoization layer (§6), realized
// with real bytes on a real filesystem.
//
// Version negotiation is per frame: encoders emit the configured codec's
// frames (flat by default for payload-shaped data); every decoder
// dispatches on the frame magic, so legacy gob frames written before the
// flat codec existed — checkpoints, persisted payloads, frames from an
// old worker across a mixed-version cluster — still decode.
package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"

	"slider/internal/flatenc"
)

// ErrCorrupt is returned when a frame fails its checksum or is
// structurally invalid.
var ErrCorrupt = errors.New("persist: corrupt frame")

var (
	registerOnce sync.Once
	registerMu   sync.Mutex
)

// registerBuiltins registers the value types that appear inside payloads
// of the bundled applications and the query layer, so they can travel
// through interface-typed gob fields. The list lives in flatenc (whose
// escape-hatch column shares the process-global gob registry).
func registerBuiltins() {
	flatenc.EnsureBuiltins()
}

// RegisterType makes a concrete application value type serializable when
// stored behind an interface (payload values, query rows) — both through
// legacy gob frames and through the flat codec's gob escape-hatch
// column. Call it once per custom Combine value type before
// checkpointing, e.g. persist.RegisterType(&MyAccumulator{}).
func RegisterType(v any) {
	registerMu.Lock()
	defer registerMu.Unlock()
	gob.Register(v)
}

// frame layout: magic (4) | length (8) | crc32 (4) | gob bytes.
var frameMagic = [4]byte{'s', 'l', 'd', '1'}

const gobHeaderLen = 4 + 8 + 4

// Encode serializes v with gob inside a checksummed frame.
func Encode(v any) ([]byte, error) {
	data, err := gobBytes(v)
	if err != nil {
		return nil, err
	}
	return appendGobFrame(make([]byte, 0, gobHeaderLen+len(data)), data), nil
}

// AppendValue appends the frame Encode returns for v behind what dst
// holds: the form a transport uses to put a small structured value (a
// ping's answer, a stats snapshot, a span tree) into a message it is
// building. Decode reads it back.
func AppendValue(dst []byte, v any) ([]byte, error) {
	data, err := gobBytes(v)
	if err != nil {
		return dst, err
	}
	return appendGobFrame(dst, data), nil
}

// gobBytes is v's gob encoding, with the builtin value types registered.
func gobBytes(v any) ([]byte, error) {
	registerOnce.Do(registerBuiltins)
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(v); err != nil {
		return nil, fmt.Errorf("persist: encode: %w", err)
	}
	return payload.Bytes(), nil
}

// appendGobFrame appends the sld1 frame around data.
func appendGobFrame(dst, data []byte) []byte {
	dst = append(dst, frameMagic[:]...)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(data)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(data))
	return append(dst, data...)
}

// Decode deserializes a frame produced by Encode into out (a pointer).
func Decode(frame []byte, out any) error {
	if len(frame) < gobHeaderLen || !bytes.Equal(frame[:4], frameMagic[:]) {
		return fmt.Errorf("%w: bad header", ErrCorrupt)
	}
	length := binary.LittleEndian.Uint64(frame[4:12])
	want := binary.LittleEndian.Uint32(frame[12:16])
	data := frame[gobHeaderLen:]
	if uint64(len(data)) != length {
		return fmt.Errorf("%w: length %d != %d", ErrCorrupt, len(data), length)
	}
	if crc32.ChecksumIEEE(data) != want {
		return fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return gobDecode(data, out)
}

// gobDecode decodes checked gob bytes into out (a pointer).
func gobDecode(data []byte, out any) error {
	registerOnce.Do(registerBuiltins)
	if err := gobMessagesFit(data); err != nil {
		return err
	}
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(out); err != nil {
		return fmt.Errorf("persist: decode: %w", err)
	}
	return nil
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
