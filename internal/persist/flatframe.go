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
	out, err := flatenc.AppendPayload(dst, p)
	if err != nil {
		return dst[:start], fmt.Errorf("persist: encode payload: %w", err)
	}
	return finishFlatFrame(out, bodyStart), nil
}

// EncodePayload frames one payload in a fresh, exactly-sized slice.
func EncodePayload(p mapreduce.Payload) ([]byte, error) {
	return encodeFresh(func(dst []byte) ([]byte, error) { return AppendPayload(dst, p) })
}

// encodeFresh runs an Append* encoder over a pooled buffer and returns
// the result in a fresh, exactly-sized slice.
func encodeFresh(appendTo func(dst []byte) ([]byte, error)) ([]byte, error) {
	buf := flatenc.GetBuffer()
	defer flatenc.PutBuffer(buf)
	out, err := appendTo(*buf)
	if err != nil {
		return nil, err
	}
	final := append(make([]byte, 0, len(out)), out...)
	*buf = out[:0]
	return final, nil
}

// DecodePayload decodes a payload frame of either version into a fresh
// payload: sld2 flat frames decode by appending (entries written before
// payloads were sorted are sorted once), sld1 gob frames carry a map and
// are sorted once.
func DecodePayload(frame []byte) (mapreduce.Payload, error) {
	if !isFlatFrame(frame) {
		var m map[string]mapreduce.Value
		if err := Decode(frame, &m); err != nil {
			return nil, err
		}
		return mapreduce.FromMap(m), nil
	}
	body, err := openFlatKind(frame, kindPayload, "payload")
	if err != nil {
		return nil, err
	}
	p, err := flatenc.DecodePayload(body)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return p, nil
}

// openFlatKind validates an sld2 frame that must be of the given kind and
// returns its body.
func openFlatKind(frame []byte, want byte, name string) ([]byte, error) {
	kind, body, err := openFlatFrame(frame)
	if err != nil {
		return nil, err
	}
	if kind != want {
		return nil, fmt.Errorf("%w: frame kind %d, want %s", ErrCorrupt, kind, name)
	}
	return body, nil
}

// AppendPayloadSet appends one framed payload set (a split's
// per-partition outputs, a checkpoint's buckets) to dst.
func AppendPayloadSet(dst []byte, ps []mapreduce.Payload) ([]byte, error) {
	out := startFlatFrame(dst, kindPayloadSet)
	bodyStart := len(out)
	out, err := flatenc.AppendPayloadSet(out, ps)
	if err != nil {
		return dst, fmt.Errorf("persist: encode payload set: %w", err)
	}
	return finishFlatFrame(out, bodyStart), nil
}

// EncodePayloadSet frames a payload set in a fresh, exactly-sized slice.
func EncodePayloadSet(ps []mapreduce.Payload) ([]byte, error) {
	return encodeFresh(func(dst []byte) ([]byte, error) { return AppendPayloadSet(dst, ps) })
}

// EncodeSizedSet is EncodePayloadSet over payloads held with their sizes
// (a partition's tree roots, a snapshot's buckets): it frames them where
// they lie instead of having the caller copy the payloads out first.
func EncodeSizedSet(ps []mapreduce.Sized) ([]byte, error) {
	return encodeFresh(func(dst []byte) ([]byte, error) {
		out := startFlatFrame(dst, kindPayloadSet)
		bodyStart := len(out)
		out, err := flatenc.AppendSizedSet(out, ps)
		if err != nil {
			return dst, fmt.Errorf("persist: encode payload set: %w", err)
		}
		return finishFlatFrame(out, bodyStart), nil
	})
}

// DecodePayloadSet decodes a payload-set frame of either version into
// fresh payloads.
func DecodePayloadSet(frame []byte) ([]mapreduce.Payload, error) {
	if !isFlatFrame(frame) {
		var ms []map[string]mapreduce.Value
		if err := Decode(frame, &ms); err != nil {
			return nil, err
		}
		out := make([]mapreduce.Payload, len(ms))
		for i, m := range ms {
			out[i] = mapreduce.FromMap(m)
		}
		return out, nil
	}
	body, err := openFlatKind(frame, kindPayloadSet, "payload set")
	if err != nil {
		return nil, err
	}
	ps, err := flatenc.DecodePayloadSet(body)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return ps, nil
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
	return encodeFresh(func(dst []byte) ([]byte, error) {
		dst = startFlatFrame(dst, kindSplit)
		bodyStart := len(dst)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s.ID)))
		dst = append(dst, s.ID...)
		out, err := flatenc.AppendValues(dst, s.Records)
		if err != nil {
			return nil, fmt.Errorf("persist: encode split: %w", err)
		}
		return finishFlatFrame(out, bodyStart), nil
	})
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
	body, err := openFlatKind(frame, kindSplit, "split")
	if err != nil {
		return mapreduce.Split{}, err
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
