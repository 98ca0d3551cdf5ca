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
// body. The kind byte names the body shape so a frame is self-describing
// (a payload, a split, a payload set, a map task's result, or one of the
// dist transport's messages) without decoding the body.
var frameMagicFlat = [4]byte{'s', 'l', 'd', '2'}

const flatHeaderLen = 4 + 1 + 8 + 4

// Flat frame kinds: the body shapes this package encodes and decodes. The
// kinds from KindTransport up are numbered by the transport that sends its
// messages under the same header (internal/dist/wire.go has that table).
const (
	kindPayload    byte = 1
	kindSplit      byte = 2
	kindPayloadSet byte = 3
	kindMapResult  byte = 4

	KindTransport byte = 16
)

// StartFrame appends the sld2 header of a frame of the given kind, its
// length and checksum still zero; the body is appended behind it and
// FinishFrame, told where the body starts (len of what StartFrame
// returned), fills both in.
func StartFrame(dst []byte, kind byte) []byte {
	dst = append(dst, frameMagicFlat[:]...)
	dst = append(dst, kind)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // length
	dst = append(dst, 0, 0, 0, 0)             // crc
	return dst
}

// FinishFrame patches the length and checksum of the frame whose body is
// dst[bodyStart:].
func FinishFrame(dst []byte, bodyStart int) []byte {
	body := dst[bodyStart:]
	binary.LittleEndian.PutUint64(dst[bodyStart-12:], uint64(len(body)))
	binary.LittleEndian.PutUint32(dst[bodyStart-4:], crc32.ChecksumIEEE(body))
	return dst
}

// OpenFrame validates one whole sld2 frame — magic, length, checksum — and
// returns its kind and its body, which aliases frame.
func OpenFrame(frame []byte) (byte, []byte, error) {
	if len(frame) < flatHeaderLen || !isFlatFrame(frame) {
		return 0, nil, fmt.Errorf("%w: no flat frame header", ErrCorrupt)
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
	dst = StartFrame(dst, kindPayload)
	bodyStart := len(dst)
	out, err := flatenc.AppendPayload(dst, p)
	if err != nil {
		return dst[:start], fmt.Errorf("persist: encode payload: %w", err)
	}
	return FinishFrame(out, bodyStart), nil
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
	kind, body, err := OpenFrame(frame)
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
	out := StartFrame(dst, kindPayloadSet)
	bodyStart := len(out)
	out, err := flatenc.AppendPayloadSet(out, ps)
	if err != nil {
		return dst, fmt.Errorf("persist: encode payload set: %w", err)
	}
	return FinishFrame(out, bodyStart), nil
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
		out := StartFrame(dst, kindPayloadSet)
		bodyStart := len(out)
		out, err := flatenc.AppendSizedSet(out, ps)
		if err != nil {
			return dst, fmt.Errorf("persist: encode payload set: %w", err)
		}
		return FinishFrame(out, bodyStart), nil
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

// AppendSplit appends one framed map-task split to dst, for the dist wire
// (a connection's write buffer). Splits whose records are all native
// scalar types (text lines, byte blobs, numbers) take the flat value-list
// form; anything else — application record structs — falls back to a
// whole-split gob frame, where one gob type dictionary covers every record
// instead of one per record.
func AppendSplit(dst []byte, s mapreduce.Split) ([]byte, error) {
	if !recordsAreScalar(s.Records) {
		data, err := gobBytes(s)
		if err != nil {
			return dst, err
		}
		return appendGobFrame(dst, data), nil
	}
	out := StartFrame(dst, kindSplit)
	bodyStart := len(out)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(s.ID)))
	out = append(out, s.ID...)
	out, err := flatenc.AppendValues(out, s.Records)
	if err != nil {
		return dst, fmt.Errorf("persist: encode split: %w", err)
	}
	return FinishFrame(out, bodyStart), nil
}

// EncodeSplit frames one split in a fresh, exactly-sized slice.
func EncodeSplit(s mapreduce.Split) ([]byte, error) {
	return encodeFresh(func(dst []byte) ([]byte, error) { return AppendSplit(dst, s) })
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
