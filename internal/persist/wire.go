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
// hostile peer names; the largest frames a stream carries are one map
// task's split — a range of up to four of a bucket's splits, see sliderrt's
// rangeSplits — and that task's map output, and a flat body's own offsets
// are 32 bits. 256 MiB is far above either and far below what hurts.
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
// under the same checksum as the payloads they describe. A worker writes
// the same bytes without building the result (AppendTaskOutput); this is
// the reference that writer is held to, and what a test that plays a
// worker frames results with.
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

// AppendTaskOutput appends a map task's output as the frame AppendMapResult
// writes for the MapResult RunMapTask would have returned — byte for byte,
// but for the cost, which is out's — reading the partitions where the
// task's scratch holds them (mapreduce.WriteMapTask) instead of payloads
// built for this one read. The sizes are reserved and patched once the
// partitions are written, each the sum of its entries' TaskPart.Bytes — the
// rule the payloads' PartBytes are summed by. A declared sum's partition is
// written in one pass (appendSumBody); any other by appendKeyedBody, the
// routine that writes a payload's body. On error dst comes back as it was.
func AppendTaskOutput(dst []byte, o *mapreduce.TaskOutput) ([]byte, error) {
	return appendFramed(dst, kindMapResult, "map result", func(out []byte) ([]byte, error) {
		n := o.NumPartitions()
		out = binary.LittleEndian.AppendUint32(out, uint32(len(o.SplitID)))
		out = append(out, o.SplitID...)
		out = binary.LittleEndian.AppendUint64(out, uint64(o.Records))
		bytesOff := len(out)
		out = binary.LittleEndian.AppendUint64(out, 0)
		out = binary.LittleEndian.AppendUint64(out, uint64(o.Cost))
		out = binary.LittleEndian.AppendUint32(out, uint32(n))
		partBytesOff := len(out)
		out = append(out, make([]byte, 8*n)...)
		out = binary.LittleEndian.AppendUint32(out, uint32(n))
		var total int64
		for p := range n {
			part := o.Part(p)
			lenOff := len(out)
			out = binary.LittleEndian.AppendUint32(out, 0)
			if o.Declared() {
				out = appendSumBody(out, part)
			} else {
				var err error
				if out, err = appendKeyedBody(out, part); err != nil {
					return out, err
				}
			}
			binary.LittleEndian.PutUint32(out[lenOff:], uint32(len(out)-lenOff-4))
			var size int64
			for i := range part.Len() {
				size += part.Bytes(i)
			}
			binary.LittleEndian.PutUint64(out[partBytesOff+8*p:], uint64(size))
			total += size
		}
		binary.LittleEndian.PutUint64(out[bytesOff:], uint64(total))
		return out, nil
	})
}

// DecodeMapResult decodes a map-result frame into a result that shares
// nothing with frame: what it allocates is the result's own slices and,
// per non-empty partition, the payload's key arena and entries — the leaf
// the window keeps.
//
// The counts and sizes are the sender's claims, checksum or not, and the
// runtime's space accounting takes the sizes over unchecked: a frame whose
// records or sizes are negative, or whose partition sizes do not add up to
// its total, is refused. Both writers always frame sizes that agree.
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
	if r.Records < 0 || r.Bytes < 0 {
		return mapreduce.MapResult{}, fmt.Errorf("%w: map result of %d records and %d bytes", ErrCorrupt, r.Records, r.Bytes)
	}
	parts := uint64(binary.LittleEndian.Uint32(body[idLen+24:]))
	body = body[idLen+fixed:]
	if parts*8 > uint64(len(body)) {
		return short("partition sizes")
	}
	r.PartBytes = make([]int64, parts)
	left := r.Bytes // what the partitions not yet read must add up to
	for i := range r.PartBytes {
		b := int64(binary.LittleEndian.Uint64(body[8*i:]))
		if b < 0 || b > left {
			return mapreduce.MapResult{}, fmt.Errorf("%w: map result partition %d of %d bytes in a total of %d", ErrCorrupt, i, b, r.Bytes)
		}
		r.PartBytes[i], left = b, left-b
	}
	if left != 0 {
		return mapreduce.MapResult{}, fmt.Errorf("%w: map result partitions add up to %d bytes, its total is %d", ErrCorrupt, r.Bytes-left, r.Bytes)
	}
	if r.Parts, err = decodeSetBody(body[8*parts:]); err != nil {
		return mapreduce.MapResult{}, err
	}
	if len(r.Parts) != len(r.PartBytes) {
		return mapreduce.MapResult{}, fmt.Errorf("%w: map result has %d payloads and %d sizes", ErrCorrupt, len(r.Parts), len(r.PartBytes))
	}
	return r, nil
}
