package persist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"slider/internal/flatenc"
	"slider/internal/mapreduce"
)

// Flat frame layout: magic (4) | kind (1) | length (8) | crc32 (4) |
// flat body. The kind byte names the body shape so a frame is
// self-describing (a payload, a split, or a payload set) without decoding
// the body.
var frameMagicFlat = [4]byte{'s', 'l', 'd', '2'}

const flatHeaderLen = 4 + 1 + 8 + 4

// Flat frame kinds.
const (
	kindPayload    byte = 1
	kindSplit      byte = 2
	kindPayloadSet byte = 3
)

// appendFlatFrame wraps body (already appended to dst after the header
// space) — helper used by the Append* encoders. It expects dst to hold
// everything up to the body and patches length + checksum.
func finishFlatFrame(dst []byte, bodyStart int) []byte {
	body := dst[bodyStart:]
	binary.LittleEndian.PutUint64(dst[bodyStart-12:], uint64(len(body)))
	binary.LittleEndian.PutUint32(dst[bodyStart-4:], crc32.ChecksumIEEE(body))
	return dst
}

// startFlatFrame appends the sld2 header with zeroed length/crc.
func startFlatFrame(dst []byte, kind byte) []byte {
	dst = append(dst, frameMagicFlat[:]...)
	dst = append(dst, kind)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // length
	dst = append(dst, 0, 0, 0, 0)             // crc
	return dst
}

// openFlatFrame validates an sld2 frame and returns its kind and body.
func openFlatFrame(frame []byte) (byte, []byte, error) {
	if len(frame) < flatHeaderLen {
		return 0, nil, fmt.Errorf("%w: flat frame too short", ErrCorrupt)
	}
	kind := frame[4]
	length := binary.LittleEndian.Uint64(frame[5:13])
	want := binary.LittleEndian.Uint32(frame[13:17])
	body := frame[flatHeaderLen:]
	if uint64(len(body)) != length {
		return 0, nil, fmt.Errorf("%w: length %d != %d", ErrCorrupt, len(body), length)
	}
	if crc32.ChecksumIEEE(body) != want {
		return 0, nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return kind, body, nil
}

// isFlatFrame reports whether frame starts with the sld2 magic.
func isFlatFrame(frame []byte) bool {
	return len(frame) >= 4 && bytes.Equal(frame[:4], frameMagicFlat[:])
}

// AppendPayload appends one framed payload to dst as a flat sld2 frame
// (allocation-free with a pooled dst at steady state). Writers only ever
// produce sld2; the decoders below keep accepting the pre-flat gob sld1
// frames that older writers left behind.
func AppendPayload(dst []byte, p mapreduce.Payload) ([]byte, error) {
	start := len(dst)
	dst = startFlatFrame(dst, kindPayload)
	bodyStart := len(dst)
	out, err := flatenc.AppendPayload(dst, map[string]any(p))
	if err != nil {
		return dst[:start], fmt.Errorf("persist: encode payload: %w", err)
	}
	return finishFlatFrame(out, bodyStart), nil
}

// EncodePayload frames one payload in a fresh, exactly-sized slice.
func EncodePayload(p mapreduce.Payload) ([]byte, error) {
	buf := flatenc.GetBuffer()
	defer flatenc.PutBuffer(buf)
	out, err := AppendPayload(*buf, p)
	if err != nil {
		return nil, err
	}
	final := append(make([]byte, 0, len(out)), out...)
	*buf = out[:0]
	return final, nil
}

// DecodePayload decodes a payload frame of either version into a fresh
// Go map: sld2 flat frames materialize through a zero-copy view; sld1
// gob frames take the legacy path.
func DecodePayload(frame []byte) (mapreduce.Payload, error) {
	if !isFlatFrame(frame) {
		var p mapreduce.Payload
		if err := Decode(frame, &p); err != nil {
			return nil, err
		}
		return p, nil
	}
	view, err := DecodePayloadView(frame)
	if err != nil {
		return nil, err
	}
	m, err := view.Materialize()
	if err != nil {
		return nil, fmt.Errorf("persist: decode payload: %w", err)
	}
	return mapreduce.Payload(m), nil
}

// DecodePayloadView opens an sld2 payload frame as a zero-copy
// flatenc.View: keys and values are read directly off the frame bytes
// without materializing a map. The view is valid only while frame stays
// alive and unmodified. Legacy gob frames have no view form; use
// DecodePayload for version-negotiated decoding.
func DecodePayloadView(frame []byte) (flatenc.View, error) {
	kind, body, err := openFlatFrame(frame)
	if err != nil {
		return flatenc.View{}, err
	}
	if kind != kindPayload {
		return flatenc.View{}, fmt.Errorf("%w: frame kind %d, want payload", ErrCorrupt, kind)
	}
	view, err := flatenc.MakeView(body)
	if err != nil {
		return flatenc.View{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return view, nil
}

// AppendPayloadSet appends one framed payload set (a split's
// per-partition outputs, a checkpoint's buckets) to dst.
func AppendPayloadSet(dst []byte, ps []mapreduce.Payload) ([]byte, error) {
	start := len(dst)
	dst = startFlatFrame(dst, kindPayloadSet)
	bodyStart := len(dst)
	out := dst
	var err error
	// []mapreduce.Payload and []map[string]any have identical layouts but
	// Go will not convert slice element types; the set encoder walks the
	// slice itself.
	out = appendU32(out, uint32(len(ps)))
	for _, p := range ps {
		lenOff := len(out)
		out = appendU32(out, 0)
		if out, err = flatenc.AppendPayload(out, map[string]any(p)); err != nil {
			return dst[:start], fmt.Errorf("persist: encode payload set: %w", err)
		}
		binary.LittleEndian.PutUint32(out[lenOff:], uint32(len(out)-lenOff-4))
	}
	return finishFlatFrame(out, bodyStart), nil
}

func appendU32(dst []byte, v uint32) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// EncodePayloadSet frames a payload set in a fresh, exactly-sized slice.
func EncodePayloadSet(ps []mapreduce.Payload) ([]byte, error) {
	buf := flatenc.GetBuffer()
	defer flatenc.PutBuffer(buf)
	out, err := AppendPayloadSet(*buf, ps)
	if err != nil {
		return nil, err
	}
	final := append(make([]byte, 0, len(out)), out...)
	*buf = out[:0]
	return final, nil
}

// DecodePayloadSet decodes a payload-set frame of either version into
// fresh Go maps.
func DecodePayloadSet(frame []byte) ([]mapreduce.Payload, error) {
	if !isFlatFrame(frame) {
		var ps []mapreduce.Payload
		if err := Decode(frame, &ps); err != nil {
			return nil, err
		}
		return ps, nil
	}
	kind, body, err := openFlatFrame(frame)
	if err != nil {
		return nil, err
	}
	if kind != kindPayloadSet {
		return nil, fmt.Errorf("%w: frame kind %d, want payload set", ErrCorrupt, kind)
	}
	ms, err := flatenc.MaterializePayloadSet(body)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	out := make([]mapreduce.Payload, len(ms))
	for i, m := range ms {
		out[i] = mapreduce.Payload(m)
	}
	return out, nil
}

// EncodeSplit frames one map-task split for the dist wire. Splits whose
// records are all native scalar types (text lines, byte blobs, numbers)
// take the flat value-list form; anything else — application record
// structs — falls back to a whole-split gob frame, where one gob type
// dictionary covers every record instead of one per record.
func EncodeSplit(s mapreduce.Split) ([]byte, error) {
	if !recordsAreScalar(s.Records) {
		return Encode(s)
	}
	buf := flatenc.GetBuffer()
	defer flatenc.PutBuffer(buf)
	dst := startFlatFrame(*buf, kindSplit)
	bodyStart := len(dst)
	dst = appendU32(dst, uint32(len(s.ID)))
	dst = append(dst, s.ID...)
	out, err := flatenc.AppendValues(dst, s.Records)
	if err != nil {
		*buf = (*buf)[:0]
		return nil, fmt.Errorf("persist: encode split: %w", err)
	}
	out = finishFlatFrame(out, bodyStart)
	final := append(make([]byte, 0, len(out)), out...)
	*buf = out[:0]
	return final, nil
}

// recordsAreScalar reports whether every record encodes natively in the
// flat value columns.
func recordsAreScalar(records []mapreduce.Record) bool {
	for _, r := range records {
		switch r.(type) {
		case nil, bool, int, int64, uint64, float64, string, []byte:
		default:
			return false
		}
	}
	return true
}

// DecodeSplit decodes a split frame of either version. Flat-framed
// records are materialized into independent memory; the frame may be
// recycled afterwards.
func DecodeSplit(frame []byte) (mapreduce.Split, error) {
	return decodeSplit(frame, false)
}

// DecodeSplitZeroCopy decodes a split frame with zero-copy records:
// string and []byte records alias the frame bytes, so the split is valid
// only while frame stays alive and unmodified. The dist worker uses this
// to run map tasks straight off the wire — record strings are consumed by
// the map function and never outlive the RPC handler.
func DecodeSplitZeroCopy(frame []byte) (mapreduce.Split, error) {
	return decodeSplit(frame, true)
}

func decodeSplit(frame []byte, zeroCopy bool) (mapreduce.Split, error) {
	if !isFlatFrame(frame) {
		var s mapreduce.Split
		if err := Decode(frame, &s); err != nil {
			return mapreduce.Split{}, err
		}
		return s, nil
	}
	kind, body, err := openFlatFrame(frame)
	if err != nil {
		return mapreduce.Split{}, err
	}
	if kind != kindSplit {
		return mapreduce.Split{}, fmt.Errorf("%w: frame kind %d, want split", ErrCorrupt, kind)
	}
	if len(body) < 4 {
		return mapreduce.Split{}, fmt.Errorf("%w: split body too short", ErrCorrupt)
	}
	idLen := int(binary.LittleEndian.Uint32(body))
	if idLen < 0 || 4+idLen > len(body) {
		return mapreduce.Split{}, fmt.Errorf("%w: split id overruns", ErrCorrupt)
	}
	id := string(body[4 : 4+idLen])
	view, err := flatenc.MakeValuesView(body[4+idLen:])
	if err != nil {
		return mapreduce.Split{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	var records []any
	if zeroCopy {
		records, err = view.Values()
	} else {
		records, err = view.MaterializeValues()
	}
	if err != nil {
		return mapreduce.Split{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return mapreduce.Split{ID: id, Records: records}, nil
}
