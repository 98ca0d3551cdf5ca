package persist

import (
	"encoding/binary"
	"fmt"
	"time"

	"slider/internal/mapreduce"
)

// This file is what a byte-stream transport (internal/dist) needs of the
// frame beyond StartFrame/FinishFrame/OpenFrame: where a frame read off a
// socket ends, and the one body shape that exists only in flight — a map
// task's result. (A transport's small structured values — a ping's answer,
// a stats snapshot — ride AppendValue's value frames; codec.go.)

// FramePrefixLen is how much of a frame FrameSize reads: the header.
const FramePrefixLen = flatHeaderLen

// MaxFrameLen is the longest frame FrameSize accepts. The header's length
// field is 64 bits wide and arrives before the checksum can vouch for it,
// so a reader that trusted it would buffer whatever a flipped bit or a
// hostile peer names; the largest frames a stream carries are one split
// and one split's map output, and a flat body's own offsets are 32 bits.
// 256 MiB is far above either and far below what hurts.
const MaxFrameLen = 1 << 28

// FrameSize returns the length, header included, of the frame that starts
// with prefix, which holds at least FramePrefixLen bytes. Only the magic
// and the length are looked at: the checksum is the decoder's to verify
// once the whole frame is there.
func FrameSize(prefix []byte) (int, error) {
	if len(prefix) < FramePrefixLen {
		return 0, fmt.Errorf("%w: %d bytes hold no frame header", ErrCorrupt, len(prefix))
	}
	if !isFlatFrame(prefix) {
		return 0, fmt.Errorf("%w: no frame magic in %q", ErrCorrupt, prefix[:4])
	}
	length := binary.LittleEndian.Uint64(prefix[5:13])
	if length > MaxFrameLen-flatHeaderLen {
		return 0, fmt.Errorf("%w: frame of %d bytes is over the %d limit", ErrCorrupt, length, MaxFrameLen)
	}
	return flatHeaderLen + int(length), nil
}

// AppendMapResult appends one map task's result as a single frame:
//
//	u32 idLen | id | i64 records | i64 bytes | i64 costNs |
//	u32 parts | parts × i64 partBytes | flat payload set of parts payloads
//
// so the counts and sizes the runtime takes over from the task travel
// under the same checksum as the payloads they describe.
func AppendMapResult(dst []byte, r mapreduce.MapResult) ([]byte, error) {
	if len(r.PartBytes) != len(r.Parts) {
		return dst, fmt.Errorf("persist: encode map result %s: %d sizes for %d partitions", r.SplitID, len(r.PartBytes), len(r.Parts))
	}
	return appendFramed(dst, kindMapResult, "map result", func(out []byte) ([]byte, error) {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(r.SplitID)))
		out = append(out, r.SplitID...)
		out = binary.LittleEndian.AppendUint64(out, uint64(r.Records))
		out = binary.LittleEndian.AppendUint64(out, uint64(r.Bytes))
		out = binary.LittleEndian.AppendUint64(out, uint64(r.Cost))
		out = binary.LittleEndian.AppendUint32(out, uint32(len(r.PartBytes)))
		for _, b := range r.PartBytes {
			out = binary.LittleEndian.AppendUint64(out, uint64(b))
		}
		return appendSetBody(out, r.Parts)
	})
}

// DecodeMapResult decodes a map-result frame into a result that shares
// nothing with frame: what it allocates is the result's own slices and,
// per non-empty partition, the payload's key arena and entries — the leaf
// the window keeps.
func DecodeMapResult(frame []byte) (mapreduce.MapResult, error) {
	body, err := openFlatKind(frame, kindMapResult, "map result")
	if err != nil {
		return mapreduce.MapResult{}, err
	}
	short := func(what string) (mapreduce.MapResult, error) {
		return mapreduce.MapResult{}, fmt.Errorf("%w: map result %s overruns", ErrCorrupt, what)
	}
	if len(body) < 4 {
		return short("id length")
	}
	idLen := uint64(binary.LittleEndian.Uint32(body))
	body = body[4:]
	const fixed = 3*8 + 4
	if idLen+fixed > uint64(len(body)) {
		return short("id")
	}
	r := mapreduce.MapResult{
		SplitID: string(body[:idLen]),
		Records: int64(binary.LittleEndian.Uint64(body[idLen:])),
		Bytes:   int64(binary.LittleEndian.Uint64(body[idLen+8:])),
		Cost:    time.Duration(binary.LittleEndian.Uint64(body[idLen+16:])),
	}
	parts := uint64(binary.LittleEndian.Uint32(body[idLen+24:]))
	body = body[idLen+fixed:]
	if parts*8 > uint64(len(body)) {
		return short("partition sizes")
	}
	r.PartBytes = make([]int64, parts)
	for i := range r.PartBytes {
		r.PartBytes[i] = int64(binary.LittleEndian.Uint64(body[8*i:]))
	}
	if r.Parts, err = decodeSetBody(body[8*parts:]); err != nil {
		return mapreduce.MapResult{}, err
	}
	if len(r.Parts) != len(r.PartBytes) {
		return mapreduce.MapResult{}, fmt.Errorf("%w: map result has %d payloads and %d sizes", ErrCorrupt, len(r.Parts), len(r.PartBytes))
	}
	return r, nil
}
