package persist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"slider/internal/mapreduce"
)

// Frame layout: magic (4) | kind (1) | length (8) | crc32 (4) | body. The
// kind byte names the body shape so a frame is self-describing (a
// payload, a split, a payload set, a map task's result, a gob value, or
// one of the dist transport's messages) without decoding the body.
var frameMagic = [4]byte{'s', 'l', 'd', '2'}

const flatHeaderLen = 4 + 1 + 8 + 4

// Frame kinds: the body shapes this package encodes and decodes. The
// kinds from KindTransport up are numbered by the transport that sends its
// messages under the same header (internal/dist/wire.go has that table).
// Kind 4 is retired: it was the map-result layout that carried the sender's
// sizes, and a frame of it is refused by its kind, never read field by
// field.
const (
	kindPayload    byte = 1
	kindSplit      byte = 2
	kindPayloadSet byte = 3
	kindValue      byte = 5
	kindMapResult  byte = 6

	KindTransport byte = 16
)

// StartFrame appends the sld2 header of a frame of the given kind, its
// length and checksum still zero; the body is appended behind it and
// FinishFrame, told where the body starts (len of what StartFrame
// returned), fills both in.
func StartFrame(dst []byte, kind byte) []byte {
	dst = append(dst, frameMagic[:]...)
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
	body := frame[flatHeaderLen:]
	if n := binary.LittleEndian.Uint64(frame[5:13]); uint64(len(body)) != n {
		return 0, nil, fmt.Errorf("%w: length %d != %d", ErrCorrupt, len(body), n)
	}
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(frame[13:17]) {
		return 0, nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return frame[4], body, nil
}

// isFlatFrame reports whether frame starts with the sld2 magic.
func isFlatFrame(frame []byte) bool {
	return len(frame) >= 4 && bytes.Equal(frame[:4], frameMagic[:])
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

// appendFramed appends one frame of the given kind whose body appendBody
// writes; on error dst comes back as it was.
func appendFramed(dst []byte, kind byte, what string, appendBody func([]byte) ([]byte, error)) ([]byte, error) {
	out := StartFrame(dst, kind)
	out, err := appendBody(out)
	if err != nil {
		return dst, fmt.Errorf("persist: encode %s: %w", what, err)
	}
	return FinishFrame(out, len(dst)+flatHeaderLen), nil
}

// encodeFresh runs an Append* encoder over a pooled buffer and returns
// the result in a fresh, exactly-sized slice.
func encodeFresh(appendTo func(dst []byte) ([]byte, error)) ([]byte, error) {
	buf := getBuffer()
	defer putBuffer(buf)
	out, err := appendTo(*buf)
	if err != nil {
		return nil, err
	}
	final := append(make([]byte, 0, len(out)), out...)
	*buf = out[:0]
	return final, nil
}

// AppendPayload appends one framed payload to dst (allocation-free with a
// warm dst).
func AppendPayload(dst []byte, p mapreduce.Payload) ([]byte, error) {
	return appendFramed(dst, kindPayload, "payload", func(out []byte) ([]byte, error) {
		return appendKeyedBody(out, payloadEntries(p))
	})
}

// EncodePayload frames one payload in a fresh, exactly-sized slice.
func EncodePayload(p mapreduce.Payload) ([]byte, error) {
	return encodeFresh(func(dst []byte) ([]byte, error) { return AppendPayload(dst, p) })
}

// DecodePayload decodes a payload frame into a fresh payload: entries are
// appended in frame order, and a frame whose keys are not strictly
// ascending is ErrCorrupt.
func DecodePayload(frame []byte) (mapreduce.Payload, error) {
	body, err := openFlatKind(frame, kindPayload, "payload")
	if err != nil {
		return nil, err
	}
	return decodePayloadBody(body)
}

// AppendPayloadSet appends one framed payload set (a split's
// per-partition outputs, a checkpoint's buckets) to dst.
func AppendPayloadSet(dst []byte, ps []mapreduce.Payload) ([]byte, error) {
	return appendFramed(dst, kindPayloadSet, "payload set", func(out []byte) ([]byte, error) {
		return appendSetBody(out, ps)
	})
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
		return appendFramed(dst, kindPayloadSet, "payload set", func(out []byte) ([]byte, error) {
			return appendSizedSetBody(out, ps)
		})
	})
}

// DecodePayloadSet decodes a payload-set frame into fresh payloads.
func DecodePayloadSet(frame []byte) ([]mapreduce.Payload, error) {
	body, err := openFlatKind(frame, kindPayloadSet, "payload set")
	if err != nil {
		return nil, err
	}
	return decodeSetBody(body)
}

// AppendSplit appends one framed map-task split to dst, for the dist wire
// (a connection's write buffer): the split's ID, then its records as a
// flat value list. Records of native scalar types (text lines, byte
// blobs, numbers) take the value columns; anything else — application
// record structs — takes the gob column, one value each.
func AppendSplit(dst []byte, s mapreduce.Split) ([]byte, error) {
	return appendFramed(dst, kindSplit, "split", func(out []byte) ([]byte, error) {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(s.ID)))
		return appendValuesBody(append(out, s.ID...), s.Records)
	})
}

// EncodeSplit frames one split in a fresh, exactly-sized slice.
func EncodeSplit(s mapreduce.Split) ([]byte, error) {
	return encodeFresh(func(dst []byte) ([]byte, error) { return AppendSplit(dst, s) })
}

// DecodeSplit decodes a split frame. Its records are materialized into
// independent memory; the frame may be recycled afterwards.
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

// DecodeSplitLines decodes a split frame whose records are all strings —
// a text split — as lines: zero-copy strings appended to lines[:0], a slice
// the caller owns and hands back for the next split, so that a warm decode
// allocates nothing and boxes no line. The split's ID aliases the frame too;
// both are valid only while frame stays alive and unmodified, as
// DecodeSplitZeroCopy's records are. It accepts the frames
// DecodeSplitZeroCopy accepts, and yields the strings it would; a split with
// a record of another type is ErrNotLines, which only says the frame is to
// be decoded by DecodeSplitZeroCopy instead.
func DecodeSplitLines(frame []byte, lines []string) (string, []string, error) {
	rawID, view, err := openSplit(frame)
	if err == nil {
		lines, err = view.lines(lines[:0])
	}
	if err != nil {
		return "", lines[:0], err
	}
	return unsafeString(rawID), lines, nil
}

// openSplit validates a split frame and returns its ID's bytes and a view
// over its records.
func openSplit(frame []byte) ([]byte, bodyView, error) {
	body, err := openFlatKind(frame, kindSplit, "split")
	if err != nil {
		return nil, bodyView{}, err
	}
	if len(body) < 4 {
		return nil, bodyView{}, fmt.Errorf("%w: split body too short", ErrCorrupt)
	}
	idLen := int(binary.LittleEndian.Uint32(body))
	if idLen < 0 || 4+idLen > len(body) {
		return nil, bodyView{}, fmt.Errorf("%w: split id overruns", ErrCorrupt)
	}
	view, err := valuesView(body[4+idLen:])
	return body[4 : 4+idLen], view, err
}

func decodeSplit(frame []byte, zeroCopy bool) (mapreduce.Split, error) {
	rawID, view, err := openSplit(frame)
	if err != nil {
		return mapreduce.Split{}, err
	}
	var records []any
	if zeroCopy {
		records, err = view.values()
	} else {
		records, err = view.materializeValues()
	}
	if err != nil {
		return mapreduce.Split{}, err
	}
	return mapreduce.Split{ID: string(rawID), Records: records}, nil
}
