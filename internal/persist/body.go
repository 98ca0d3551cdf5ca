package persist

// This file is the flat, length-prefixed columnar body that payload-shaped
// frames carry (kinds 1–4). It replaces per-value gob encoding
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
// # Body layout (little-endian)
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
// types registered via RegisterType) rides the gob escape-hatch column:
// the value is gob-encoded individually into the byte arena under tagGob,
// preserving exact round-trip types through the process-global gob
// registry.
//
// The same column machinery also encodes bare value lists (split records
// — appendValuesBody) and payload sets (a split's per-partition outputs, a
// checkpoint's buckets — appendSetBody, appendSizedSetBody).

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"slider/internal/mapreduce"
)

// bodyVersion is the current body-format version byte.
const bodyVersion = 1

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

const bodyHeaderLen = 1 + 5*4

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
// getBuffer start empty with whatever capacity their previous life grew,
// so a streaming workload's steady state encodes every payload into
// already-warm capacity, allocation-free.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// getBuffer returns a pooled, empty encode buffer; putBuffer hands it back
// once the encoded bytes have been copied out.
func getBuffer() *[]byte {
	return bufPool.Get().(*[]byte)
}

// putBuffer recycles a buffer obtained from getBuffer. The caller must not
// retain any slice of it afterwards.
func putBuffer(b *[]byte) {
	if cap(*b) > 1<<22 {
		return // don't pin pathological giants in the pool
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}

// gobEncPool recycles the bytes.Buffer used for escape-hatch values.
var gobEncPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// keyed is what a keyed body is written from: n entries, each read by
// index, in the order they go on the wire — a payload's (payloadEntries) or
// a map task partition's (mapreduce.TaskPart), which is the order the
// payload cut from it holds.
type keyed interface {
	Len() int
	Key(i int) string
	Value(i int) any
}

// payloadEntries is a payload read as keyed entries.
type payloadEntries mapreduce.Payload

func (p payloadEntries) Len() int         { return len(p) }
func (p payloadEntries) Key(i int) string { return p[i].Key }
func (p payloadEntries) Value(i int) any  { return p[i].Value }

// appendKeyedBody appends the flat encoding of es's entries to dst and
// returns the extended slice: one routine for a payload's body and a map
// task partition's, whose frames must be byte for byte alike. It is generic
// rather than taking the interface so that handing it a payload or a
// partition boxes neither. With a warm dst the append is allocation-free
// for entries of native scalar values; escape-hatch values cost one pooled
// gob encoder pass each. On error dst is returned truncated to its original
// length.
func appendKeyedBody[E keyed](dst []byte, es E) ([]byte, error) {
	n := es.Len()
	w := beginBody(dst, n, true)
	lensOff := w.tagsOff + n
	keyArenaLen := 0
	for i := range n {
		k := es.Key(i)
		binary.LittleEndian.PutUint32(w.dst[lensOff+4*i:], uint32(len(k)))
		keyArenaLen += len(k)
		w.value(i, es.Value(i))
	}
	w.byteLens()
	for i := range n {
		w.dst = append(w.dst, es.Key(i)...)
	}
	w.byteArenaOff = len(w.dst)
	if w.byteCount > 0 {
		for i := range n {
			if err := w.bytes(i, es.Value(i)); err != nil {
				return dst, err
			}
		}
	}
	return w.finish(keyArenaLen), nil
}

// appendSumBody is appendKeyedBody for a declared sum's partition, whose
// every value is an int64 total: its body has n numbers and no byte column,
// so the tags, the key lengths and the totals are reserved up front and
// filled in one pass over the entries, which appends each key to the arena
// behind them. What appendKeyedBody would write for the boxed totals, in
// one pass instead of two, and with no total boxed.
func appendSumBody(dst []byte, part mapreduce.TaskPart) []byte {
	n := part.Len()
	out := append(dst, bodyVersion)
	out = binary.LittleEndian.AppendUint32(out, uint32(n))
	hdrOff := len(out)
	out = binary.LittleEndian.AppendUint32(out, 0) // keyArenaLen, patched below
	out = binary.LittleEndian.AppendUint32(out, uint32(n))
	out = binary.LittleEndian.AppendUint32(out, 0) // byteCount
	out = binary.LittleEndian.AppendUint32(out, 0) // byteArenaLen
	tagsOff := len(out)
	lensOff, numsOff := tagsOff+n, tagsOff+5*n
	out = slices.Grow(out, 13*n)[:tagsOff+13*n]
	for i := range n {
		k := part.Key(i)
		out[tagsOff+i] = tagInt64
		binary.LittleEndian.PutUint32(out[lensOff+4*i:], uint32(len(k)))
		binary.LittleEndian.PutUint64(out[numsOff+8*i:], uint64(part.Sum(i)))
		out = append(out, k...)
	}
	binary.LittleEndian.PutUint32(out[hdrOff:], uint32(len(out)-tagsOff-13*n))
	return out
}

// appendValuesBody appends the flat encoding of a bare value list (no
// keys) to dst: the same layout as a payload with count entries, minus the
// keyLens section and the key arena (count alone describes them). Used
// for split records.
func appendValuesBody(dst []byte, vals []any) ([]byte, error) {
	w := beginBody(dst, len(vals), false)
	for i, v := range vals {
		w.value(i, v)
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

// bodyWriter lays out one flat body in three walks over its entries: one
// that fills each entry's tag (and a keyed body's key length) into slots
// reserved up front and appends its number, if it has one, to the numeric
// column behind them; one for the key arena, which the caller of a keyed
// body writes itself; and one for the byte arena.
type bodyWriter struct {
	dst                 []byte
	hdrOff, tagsOff     int
	numCount, byteCount int
	byteLensOff         int // next byte-column length to patch
	byteArenaOff        int // set by the caller once the key arena is written
}

// beginBody appends the header of an n-entry body, counts zeroed until
// finish patches them, and reserves the entries' tags and, in a keyed
// body, their key lengths behind it, each filled in by its entry.
func beginBody(dst []byte, n int, keyed bool) bodyWriter {
	dst = append(dst, bodyVersion)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	hdrOff := len(dst)
	for range 4 { // keyArenaLen, numCount, byteCount, byteArenaLen
		dst = binary.LittleEndian.AppendUint32(dst, 0)
	}
	tagsOff, reserved := len(dst), n
	if keyed {
		reserved += 4 * n
	}
	return bodyWriter{dst: slices.Grow(dst, reserved)[:tagsOff+reserved], hdrOff: hdrOff, tagsOff: tagsOff}
}

// value writes entry i's type tag into its slot and counts the column the
// value occupies, appending it to the numeric column if it belongs there.
// The byte arena reads the tags back instead of classifying v again.
func (w *bodyWriter) value(i int, v any) {
	t := scalarTag(v)
	w.dst[w.tagsOff+i] = t
	switch t {
	case tagInt, tagInt64, tagUint64, tagFloat64:
		w.numCount++
		w.dst = binary.LittleEndian.AppendUint64(w.dst, numBits(t, v))
	case tagString, tagBytes, tagGob:
		w.byteCount++
	}
}

// byteLens reserves the byte column's lengths; bytes patches them as it
// writes the arena.
func (w *bodyWriter) byteLens() {
	w.byteLensOff = len(w.dst)
	for range w.byteCount {
		w.dst = binary.LittleEndian.AppendUint32(w.dst, 0)
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
			return fmt.Errorf("persist: entry %d: %w", i, err)
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
	registerBuiltins()
	buf := gobEncPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer gobEncPool.Put(buf)
	if err := gob.NewEncoder(buf).Encode(gobValue{V: v}); err != nil {
		return nil, err
	}
	return append([]byte(nil), buf.Bytes()...), nil
}

// appendSetBody appends a length-prefixed sequence of flat payload bodies:
// u32 count, then per payload u32 bodyLen + body. It carries a split's
// per-partition outputs or a checkpoint's bucket list in one blob.
func appendSetBody(dst []byte, ps []mapreduce.Payload) ([]byte, error) {
	out := binary.LittleEndian.AppendUint32(dst, uint32(len(ps)))
	for _, p := range ps {
		var err error
		if out, err = appendSetMember(out, p); err != nil {
			return dst, err
		}
	}
	return out, nil
}

// appendSizedSetBody is appendSetBody over payloads held with their sizes
// (a partition's tree roots, a snapshot's buckets), read where they lie.
func appendSizedSetBody(dst []byte, ps []mapreduce.Sized) ([]byte, error) {
	out := binary.LittleEndian.AppendUint32(dst, uint32(len(ps)))
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
func appendSetMember(dst []byte, p mapreduce.Payload) ([]byte, error) {
	lenOff := len(dst)
	out, err := appendKeyedBody(binary.LittleEndian.AppendUint32(dst, 0), payloadEntries(p))
	if err != nil {
		return dst, err
	}
	binary.LittleEndian.PutUint32(out[lenOff:], uint32(len(out)-lenOff-4))
	return out, nil
}

// decodeSetBody decodes a payload-set blob into fresh payloads.
func decodeSetBody(data []byte) ([]mapreduce.Payload, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("%w: payload set too short", ErrCorrupt)
	}
	n := int(binary.LittleEndian.Uint32(data))
	rest := data[4:]
	// Every payload costs its length prefix and a header at least, so a
	// count the bytes cannot hold is refused before anything is sized by it.
	if n < 0 || n > len(rest)/(4+bodyHeaderLen) {
		return nil, fmt.Errorf("%w: payload set count %d in %d bytes", ErrCorrupt, n, len(data))
	}
	out := make([]mapreduce.Payload, n)
	for i := range out {
		if len(rest) < 4 {
			return nil, fmt.Errorf("%w: payload set truncated at %d", ErrCorrupt, i)
		}
		bodyLen := int(binary.LittleEndian.Uint32(rest))
		rest = rest[4:]
		if bodyLen < 0 || bodyLen > len(rest) {
			return nil, fmt.Errorf("%w: payload set body %d overruns", ErrCorrupt, i)
		}
		var err error
		if out[i], err = decodePayloadBody(rest[:bodyLen]); err != nil {
			return nil, fmt.Errorf("payload set body %d: %w", i, err)
		}
		rest = rest[bodyLen:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after payload set", ErrCorrupt, len(rest))
	}
	return out, nil
}

// decodePayloadBody decodes one flat payload body into a payload that
// shares nothing with data, in entry storage from the task stock
// (mapreduce.TakeTaskPayload), which a body that does not check out hands
// back: the key arena is copied once and every key is a substring of the
// copy; string and []byte values are copied one by one. Entries are
// written in wire order, and then one pass (Payload.DerivePrefixes) derives
// their keys' prefixes and checks their order by them: every writer emits
// keys strictly ascending (the payload invariant), so a body whose keys are
// not — out of order, or a key twice — is corrupt. The pass costs less than
// building each entry with mapreduce.NewEntry did: that entry went through a
// stack temporary whose reload stalled on its own stores on every entry.
func decodePayloadBody(data []byte) (mapreduce.Payload, error) {
	v, err := makeView(data, true)
	if err != nil {
		return nil, err
	}
	if v.n == 0 {
		return nil, nil
	}
	arena := string(data[v.keyArenaOff:v.byteArena])
	out := mapreduce.TakeTaskPayload(v.n)
	keyOff := 0
	err = v.forEach(func(i int, val any) error {
		kl := int(binary.LittleEndian.Uint32(data[v.keyLensOff+4*i:]))
		if kl < 0 || kl > len(arena)-keyOff {
			return fmt.Errorf("%w: key %d overruns arena", ErrCorrupt, i)
		}
		out[i].Key, out[i].Value = arena[keyOff:keyOff+kl], detach(val)
		keyOff += kl
		return nil
	})
	if err == nil && !out.DerivePrefixes() {
		err = fmt.Errorf("%w: keys not strictly ascending", ErrCorrupt)
	}
	if err != nil {
		mapreduce.ReleaseTaskPayload(out)
		return nil, err
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
