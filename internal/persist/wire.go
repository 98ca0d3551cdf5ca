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
//	u32 idLen | id | i64 records | i64 costNs | flat payload set of the parts
//
// so the count and cost the runtime takes over from the task travel under
// the same checksum as the payloads they describe. No size travels: the
// decoder measures the payloads it builds (DecodeMapResult), so what a
// result's sizes say cannot differ from what its payloads hold. A worker
// writes the same bytes without building the result (AppendTaskOutput);
// this is the reference that writer is held to, and what a test that plays
// a worker frames results with.
func AppendMapResult(dst []byte, r mapreduce.MapResult) ([]byte, error) {
	return appendFramed(dst, kindMapResult, "map result", func(out []byte) ([]byte, error) {
		return appendSetBody(appendMapResultHead(out, r.SplitID, r.Records, r.Cost), r.Parts)
	})
}

// appendMapResultHead appends what a map-result body holds before its
// payload set.
func appendMapResultHead(dst []byte, id string, records int64, cost time.Duration) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(id)))
	dst = append(dst, id...)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(records))
	return binary.LittleEndian.AppendUint64(dst, uint64(cost))
}

// AppendTaskOutput appends a map task's output as the frame AppendMapResult
// writes for the MapResult RunMapTask would have returned — byte for byte,
// but for the cost, which is out's — reading the partitions where the
// task's scratch holds them (mapreduce.WriteMapTask) instead of payloads
// built for this one read. Each partition's body length is reserved and
// patched once the partition is written. A declared sum's partition is
// written in one pass (appendSumBody); any other by appendKeyedBody, the
// routine that writes a payload's body. On error dst comes back as it was.
func AppendTaskOutput(dst []byte, o *mapreduce.TaskOutput) ([]byte, error) {
	return appendFramed(dst, kindMapResult, "map result", func(out []byte) ([]byte, error) {
		n := o.NumPartitions()
		out = appendMapResultHead(out, o.SplitID, o.Records, o.Cost)
		out = binary.LittleEndian.AppendUint32(out, uint32(n))
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
		}
		return out, nil
	})
}

// DecodeMapResult decodes a map-result frame into a result that shares
// nothing with frame: what it allocates is the result's own slices and,
// per non-empty partition, the payload's key arena and entries — the leaf
// the window keeps. Each partition's size is measured here, as the payload
// is created (mapreduce.PayloadBytes), the rule a map task's cut sizes by.
//
// The record count is the sender's claim, checksum or not: a negative one
// is refused. A frame of the map-result layout that carried sizes (kind 4)
// is refused by its kind.
func DecodeMapResult(frame []byte) (mapreduce.MapResult, error) {
	body, err := openFlatKind(frame, kindMapResult, "map result")
	if err != nil {
		return mapreduce.MapResult{}, err
	}
	if len(body) < 4 {
		return mapreduce.MapResult{}, fmt.Errorf("%w: map result id length overruns", ErrCorrupt)
	}
	idLen := uint64(binary.LittleEndian.Uint32(body))
	body = body[4:]
	const fixed = 2 * 8
	if idLen+fixed > uint64(len(body)) {
		return mapreduce.MapResult{}, fmt.Errorf("%w: map result id overruns", ErrCorrupt)
	}
	r := mapreduce.MapResult{
		SplitID: string(body[:idLen]),
		Records: int64(binary.LittleEndian.Uint64(body[idLen:])),
		Cost:    time.Duration(binary.LittleEndian.Uint64(body[idLen+8:])),
	}
	if r.Records < 0 {
		return mapreduce.MapResult{}, fmt.Errorf("%w: map result of %d records", ErrCorrupt, r.Records)
	}
	if r.Parts, err = decodeSetBody(body[idLen+fixed:]); err != nil {
		return mapreduce.MapResult{}, err
	}
	r.PartBytes = make([]int64, len(r.Parts))
	for p, part := range r.Parts {
		r.PartBytes[p] = mapreduce.PayloadBytes(part)
	}
	return r, nil
}
