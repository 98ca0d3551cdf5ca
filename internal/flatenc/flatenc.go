// Package flatenc implements the flat, length-prefixed columnar encoding
// behind Slider's byte-shaped payload paths: dist RPC framing and runtime
// checkpoints. It replaces per-value gob encoding
// (reflection, interface boxing, a type dictionary per stream) with a
// single-pass arena layout that encodes a payload with zero steady-state
// allocations (pooled buffers) and decodes it by appending: one entry
// slice and one copy of the key arena per payload, every key a substring
// of that copy.
//
// Entry order on the wire is the order the payload holds its entries in,
// which for a live payload is key order (mapreduce.Payload's invariant).
// Frames written while payloads were hash maps carry map order; the
// decoder checks the order as it appends and sorts such a frame once.
//
// # Wire layout (little-endian)
//
//	u8  version (currently 1)
//	u32 count        — number of key/value entries
//	u32 keyArenaLen  — total bytes of all keys
//	u32 numCount     — number of 8-byte numeric values
//	u32 byteCount    — number of byte-column values (string/[]byte/gob)
//	u32 byteArenaLen — total bytes of the byte column
//	tags      [count]u8     — one type tag per entry, in entry order
//	keyLens   [count]u32    — per-entry key length
//	numCol    [numCount]u64 — numeric values (raw bits), in entry order
//	byteLens  [byteCount]u32
//	keyArena  [keyArenaLen]u8  — concatenated keys
//	byteArena [byteArenaLen]u8 — concatenated string/[]byte/gob values
//
// The common scalar types carried by payloads — int, int64, uint64,
// float64, bool, string, []byte, nil — encode natively into the numeric
// or byte column. Anything else (slices, maps, application accumulator
// types registered via persist.RegisterType) rides the gob escape-hatch
// column: the value is gob-encoded individually into the byte arena under
// tagGob, preserving exact round-trip types through the process-global
// gob registry.
//
// The same column machinery also encodes bare value lists (split records
// on the dist wire — AppendValues) and payload sets (a split's
// per-partition outputs, a checkpoint's buckets — AppendPayloadSet,
// AppendSizedSet).
package flatenc

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"

	"slider/internal/mapreduce"
)

// Payload is the payload type this package encodes.
type Payload = mapreduce.Payload

// ErrMalformed is returned when flat bytes fail structural validation.
var ErrMalformed = errors.New("flatenc: malformed encoding")

// Version is the current body-format version byte.
const Version = 1

// Value type tags. The bool value is folded into the tag so true/false
// consume no column space.
const (
	tagNil uint8 = iota
	tagFalse
	tagTrue
	tagInt
	tagInt64
	tagUint64
	tagFloat64
	tagString
	tagBytes
	tagGob
)

const headerLen = 1 + 5*4

var registerOnce sync.Once

// EnsureBuiltins registers the value types that appear inside payloads of
// the bundled applications and the query layer, so they can travel
// through the gob escape-hatch column (and through legacy gob frames).
// It is idempotent and called by every encode/decode entry point.
func EnsureBuiltins() {
	registerOnce.Do(func() {
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

// gobValue wraps an escape-hatch value so gob records its concrete type
// (decoding into an interface field requires a registered concrete type).
type gobValue struct{ V any }

// scalarTag classifies v into a native column tag, or tagGob.
func scalarTag(v any) uint8 {
	switch x := v.(type) {
	case nil:
		return tagNil
	case bool:
		if x {
			return tagTrue
		}
		return tagFalse
	case int:
		return tagInt
	case int64:
		return tagInt64
	case uint64:
		return tagUint64
	case float64:
		return tagFloat64
	case string:
		return tagString
	case []byte:
		return tagBytes
	default:
		return tagGob
	}
}

// numBits returns the numeric-column bits for a native numeric value.
func numBits(tag uint8, v any) uint64 {
	switch tag {
	case tagInt:
		return uint64(int64(v.(int)))
	case tagInt64:
		return uint64(v.(int64))
	case tagUint64:
		return v.(uint64)
	default: // tagFloat64
		return math.Float64bits(v.(float64))
	}
}

// bufPool recycles encode buffers across slides. Buffers returned by
// GetBuffer start empty with whatever capacity their previous life grew,
// so a streaming workload's steady state encodes every payload into
// already-warm capacity, allocation-free.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// GetBuffer returns a pooled, empty encode buffer. Pass *b as the dst of
// AppendPayload and hand the pointer back with PutBuffer when the encoded
// bytes have been copied out (or are no longer needed).
func GetBuffer() *[]byte {
	return bufPool.Get().(*[]byte)
}

// PutBuffer recycles a buffer obtained from GetBuffer. The caller must
// not retain any slice of it afterwards.
func PutBuffer(b *[]byte) {
	if b == nil || cap(*b) > 1<<22 {
		return // don't pin pathological giants in the pool
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}

// gobEncPool recycles the bytes.Buffer used for escape-hatch values.
var gobEncPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func appendU32(dst []byte, v uint32) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendU64(dst []byte, v uint64) []byte {
	return append(dst,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// AppendPayload appends the flat encoding of p to dst, entries in the
// order p holds them, and returns the extended slice. With a pooled dst
// (GetBuffer) the append is allocation-free at steady state for payloads
// of native scalar values; escape-hatch values cost one pooled gob encoder
// pass each. On error dst is returned truncated to its original length.
func AppendPayload(dst []byte, p Payload) ([]byte, error) {
	w := beginBody(dst, len(p))
	for i := range p {
		w.tag(p[i].Value)
	}
	keyArenaLen := 0
	for i := range p {
		w.dst = appendU32(w.dst, uint32(len(p[i].Key)))
		keyArenaLen += len(p[i].Key)
	}
	for i := range p {
		w.num(i, p[i].Value)
	}
	w.byteLens()
	for i := range p {
		w.dst = append(w.dst, p[i].Key...)
	}
	w.byteArenaOff = len(w.dst)
	for i := range p {
		if err := w.bytes(i, p[i].Value); err != nil {
			return dst, err
		}
	}
	return w.finish(keyArenaLen), nil
}

// AppendValues appends the flat encoding of a bare value list (no keys)
// to dst: the same layout as a payload with count entries, minus the
// keyLens section and the key arena (count alone describes them). Used
// for split records on the dist wire.
func AppendValues(dst []byte, vals []any) ([]byte, error) {
	w := beginBody(dst, len(vals))
	for _, v := range vals {
		w.tag(v)
	}
	for i, v := range vals {
		w.num(i, v)
	}
	w.byteLens()
	w.byteArenaOff = len(w.dst)
	for i, v := range vals {
		if err := w.bytes(i, v); err != nil {
			return dst, err
		}
	}
	return w.finish(0), nil
}

// bodyWriter lays out one flat body section by section. Its callers walk
// their entries once per section and hand each value over; the key
// sections, which only a payload has, they write themselves.
type bodyWriter struct {
	dst                 []byte
	hdrOff, tagsOff     int
	numCount, byteCount int
	byteLensOff         int // next byte-column length to patch
	byteArenaOff        int // set by the caller once the key arena is written
}

// beginBody appends the header of an n-entry body, counts zeroed until
// finish patches them.
func beginBody(dst []byte, n int) bodyWriter {
	EnsureBuiltins()
	dst = append(dst, Version)
	dst = appendU32(dst, uint32(n))
	hdrOff := len(dst)
	for range 4 { // keyArenaLen, numCount, byteCount, byteArenaLen
		dst = appendU32(dst, 0)
	}
	return bodyWriter{dst: dst, hdrOff: hdrOff, tagsOff: len(dst)}
}

// tag appends v's type tag and counts the column it will occupy. The later
// sections read the tags back from dst instead of classifying v again.
func (w *bodyWriter) tag(v any) {
	t := scalarTag(v)
	w.dst = append(w.dst, t)
	switch t {
	case tagInt, tagInt64, tagUint64, tagFloat64:
		w.numCount++
	case tagString, tagBytes, tagGob:
		w.byteCount++
	}
}

// num appends entry i's value to the numeric column if it belongs there.
func (w *bodyWriter) num(i int, v any) {
	switch t := w.dst[w.tagsOff+i]; t {
	case tagInt, tagInt64, tagUint64, tagFloat64:
		w.dst = appendU64(w.dst, numBits(t, v))
	}
}

// byteLens reserves the byte column's lengths; bytes patches them as it
// writes the arena.
func (w *bodyWriter) byteLens() {
	w.byteLensOff = len(w.dst)
	for range w.byteCount {
		w.dst = appendU32(w.dst, 0)
	}
}

// bytes appends entry i's value to the byte arena if it belongs there.
func (w *bodyWriter) bytes(i int, v any) error {
	before := len(w.dst)
	switch w.dst[w.tagsOff+i] {
	case tagString:
		w.dst = append(w.dst, v.(string)...)
	case tagBytes:
		w.dst = append(w.dst, v.([]byte)...)
	case tagGob:
		vb, err := encodeGobValue(v)
		if err != nil {
			return fmt.Errorf("flatenc: entry %d: %w", i, err)
		}
		w.dst = append(w.dst, vb...)
	default:
		return nil
	}
	binary.LittleEndian.PutUint32(w.dst[w.byteLensOff:], uint32(len(w.dst)-before))
	w.byteLensOff += 4
	return nil
}

// finish patches the header counts and returns the completed body.
func (w *bodyWriter) finish(keyArenaLen int) []byte {
	hdr := w.dst[w.hdrOff:]
	binary.LittleEndian.PutUint32(hdr, uint32(keyArenaLen))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(w.numCount))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(w.byteCount))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(w.dst)-w.byteArenaOff))
	return w.dst
}

// encodeGobValue gob-encodes one escape-hatch value through a pooled
// buffer, returning a fresh copy of the encoded bytes.
func encodeGobValue(v any) ([]byte, error) {
	buf := gobEncPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer gobEncPool.Put(buf)
	if err := gob.NewEncoder(buf).Encode(gobValue{V: v}); err != nil {
		return nil, err
	}
	return append([]byte(nil), buf.Bytes()...), nil
}

// EncodePayload returns the flat encoding of p in a fresh, exactly-sized
// slice. Hot paths that can recycle buffers should prefer
// AppendPayload(*GetBuffer(), p).
func EncodePayload(p Payload) ([]byte, error) {
	buf := GetBuffer()
	defer PutBuffer(buf)
	out, err := AppendPayload(*buf, p)
	if err != nil {
		return nil, err
	}
	final := append(make([]byte, 0, len(out)), out...)
	*buf = out[:0]
	return final, nil
}

// AppendPayloadSet appends a length-prefixed sequence of flat payload
// bodies: u32 count, then per payload u32 bodyLen + body. It carries a
// split's per-partition outputs or a checkpoint's bucket list in one blob.
func AppendPayloadSet(dst []byte, ps []Payload) ([]byte, error) {
	out := appendU32(dst, uint32(len(ps)))
	for _, p := range ps {
		var err error
		if out, err = appendSetMember(out, p); err != nil {
			return dst, err
		}
	}
	return out, nil
}

// AppendSizedSet is AppendPayloadSet over payloads held with their sizes
// (a partition's tree roots, a snapshot's buckets), read where they lie.
func AppendSizedSet(dst []byte, ps []mapreduce.Sized) ([]byte, error) {
	out := appendU32(dst, uint32(len(ps)))
	for i := range ps {
		var err error
		if out, err = appendSetMember(out, ps[i].P); err != nil {
			return dst, err
		}
	}
	return out, nil
}

// appendSetMember appends one payload of a set: its body behind the
// body's length.
func appendSetMember(dst []byte, p Payload) ([]byte, error) {
	lenOff := len(dst)
	out, err := AppendPayload(appendU32(dst, 0), p)
	if err != nil {
		return dst, err
	}
	binary.LittleEndian.PutUint32(out[lenOff:], uint32(len(out)-lenOff-4))
	return out, nil
}

// DecodePayloadSet decodes a payload-set blob into fresh payloads.
func DecodePayloadSet(data []byte) ([]Payload, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("%w: payload set too short", ErrMalformed)
	}
	n := int(binary.LittleEndian.Uint32(data))
	rest := data[4:]
	// Every payload costs its length prefix and a header at least, so a
	// count the bytes cannot hold is refused before anything is sized by it.
	if n < 0 || n > len(rest)/(4+headerLen) {
		return nil, fmt.Errorf("%w: payload set count %d in %d bytes", ErrMalformed, n, len(data))
	}
	out := make([]Payload, n)
	for i := range out {
		if len(rest) < 4 {
			return nil, fmt.Errorf("%w: payload set truncated at %d", ErrMalformed, i)
		}
		bodyLen := int(binary.LittleEndian.Uint32(rest))
		rest = rest[4:]
		if bodyLen < 0 || bodyLen > len(rest) {
			return nil, fmt.Errorf("%w: payload set body %d overruns", ErrMalformed, i)
		}
		var err error
		if out[i], err = DecodePayload(rest[:bodyLen]); err != nil {
			return nil, fmt.Errorf("payload set body %d: %w", i, err)
		}
		rest = rest[bodyLen:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after payload set", ErrMalformed, len(rest))
	}
	return out, nil
}

// DecodePayload decodes one flat payload body into a fresh payload that
// shares nothing with data: the key arena is copied once and every key is
// a substring of the copy; string and []byte values are copied one by
// one. Entries are appended in wire order with their order checked on the
// way; a body that is not strictly sorted — written while payloads were
// hash maps — is sorted once, and one that holds a key twice is malformed.
func DecodePayload(data []byte) (Payload, error) {
	v, err := makeView(data, true)
	if err != nil {
		return nil, err
	}
	if v.n == 0 {
		return nil, nil
	}
	arena := string(data[v.keyArenaOff:v.byteArena])
	out := make(Payload, v.n)
	keyOff, sorted := 0, true
	err = v.forEach(func(i int, val any) error {
		kl := int(binary.LittleEndian.Uint32(data[v.keyLensOff+4*i:]))
		if kl < 0 || kl > len(arena)-keyOff {
			return fmt.Errorf("%w: key %d overruns arena", ErrMalformed, i)
		}
		out[i] = mapreduce.Entry{Key: arena[keyOff : keyOff+kl], Value: detach(val)}
		keyOff += kl
		sorted = sorted && (i == 0 || out[i-1].Key < out[i].Key)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if !sorted && !mapreduce.SortEntries(out) {
		return nil, fmt.Errorf("%w: duplicate key", ErrMalformed)
	}
	return out, nil
}

// detach copies a string or []byte value out of the frame it aliases.
func detach(val any) any {
	switch x := val.(type) {
	case string:
		return strings.Clone(x)
	case []byte:
		return append([]byte(nil), x...)
	}
	return val
}
