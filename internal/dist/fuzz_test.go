package dist

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"slider/internal/mapreduce"
	"slider/internal/metrics"
	"slider/internal/persist"
)

// The two fuzz targets feed one end's decoders whatever bytes the other
// end could send and hold them to the wire's two promises: nothing panics,
// and a length or count read off the socket buys no allocation — what an
// end allocates is bounded by the bytes that actually arrived, times a
// small constant, plus a constant (its buffers, a map task's scratch, the
// gob decoder's compiled types).
//
// A mutated byte almost never survives a crc32, so each target runs its
// input two ways: as it is — headers, magics, lengths and truncation — and
// reframed, cut into chunks that are each given a valid header, which puts
// the mutations behind the checksum where the body decoders read them: the
// envelopes, splits, map results and gob values (a ping's, a stats poll's
// and a trace's answer) under their kinds. Every whole message among the
// seeds is also seeded in its chunked form, so the mutations start from
// streams that parse.

const (
	fuzzBytesPerByte = 128     // map output and decoded entries per input byte
	fuzzBytesFlat    = 1 << 18 // buffers, scratch, the job, gob's type machinery
)

// framed appends a frame of the given kind around body, whatever body is.
func framed(dst []byte, kind byte, body []byte) []byte {
	dst = persist.StartFrame(dst, kind)
	start := len(dst)
	return persist.FinishFrame(append(dst, body...), start)
}

// reframed cuts data into chunks — kind selector, 16-bit length, body — and
// frames each under the kind selected.
func reframed(data []byte, kinds []byte) []byte {
	var out []byte
	for len(data) >= 3 {
		kind := kinds[int(data[0])%len(kinds)]
		n := int(binary.LittleEndian.Uint16(data[1:]))
		data = data[3:]
		if n > len(data) {
			n = len(data)
		}
		out = framed(out, kind, data[:n])
		data = data[n:]
	}
	return out
}

// chunked is reframed's inverse on a stream of whole frames of the given
// kinds: the input that reframes to stream.
func chunked(t testing.TB, stream []byte, kinds []byte) []byte {
	t.Helper()
	var out []byte
	for len(stream) > 0 {
		size, err := persist.FrameSize(stream)
		if err != nil {
			t.Fatal(err)
		}
		kind, body, err := persist.OpenFrame(stream[:size])
		if err != nil {
			t.Fatal(err)
		}
		sel := bytes.IndexByte(kinds, kind)
		if sel < 0 || len(body) > math.MaxUint16 {
			t.Fatalf("a frame of kind %d and %d bytes does not chunk under kinds %v", kind, len(body), kinds)
		}
		out = append(out, byte(sel))
		out = binary.LittleEndian.AppendUint16(out, uint16(len(body)))
		out = append(out, body...)
		stream = stream[size:]
	}
	return out
}

// frameKind is the kind of the frame stream starts with: persist keeps the
// kinds of its own body shapes to itself.
func frameKind(t testing.TB, stream []byte) byte {
	size, err := persist.FrameSize(stream)
	if err != nil {
		t.Fatal(err)
	}
	kind, _, err := persist.OpenFrame(stream[:size])
	if err != nil {
		t.Fatal(err)
	}
	return kind
}

// valueKind is the kind of persist's value frames.
func valueKind(t testing.TB) byte {
	frame, err := persist.AppendValue(nil, PingReply{})
	if err != nil {
		t.Fatal(err)
	}
	return frameKind(t, frame)
}

// fuzzRecord puts a split's records in the gob column.
type fuzzRecord struct {
	Line string
	N    int
}

func FuzzWireRequest(f *testing.F) {
	reg := &Registry{}
	if err := reg.Register("dist-wordcount", testJob); err != nil {
		f.Fatal(err)
	}
	w, err := NewWorker("fuzz", "127.0.0.1:0", reg)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { w.Close() })
	w.SetObs(NewWorkerObs())

	traced := mapCall(f, true)
	splitKind := frameKind(f, traced[len(appendCall(nil, firstCall(opMap), "dist-wordcount", "rpc x")):])
	kinds := []byte{kindCall, splitKind, kindReply, valueKind(f)}
	// A batch of one split whose record is no native scalar: the gob column.
	persist.RegisterType(fuzzRecord{})
	oneSplit := firstCall(opMap)
	oneSplit.items = 1
	gobSplit, err := persist.AppendSplit(appendCall(nil, oneSplit, "dist-wordcount", ""),
		mapreduce.Split{ID: "structured", Records: []any{fuzzRecord{Line: "a b", N: 1}}})
	if err != nil {
		f.Fatal(err)
	}
	pingStats := append(appendCall(nil, firstCall(opPing), "", ""), appendCall(nil, firstCall(opStats), "", "")...)
	for _, msg := range [][]byte{traced, mapCall(f, false), gobSplit, pingStats} {
		f.Add(msg, false)
		f.Add(chunked(f, msg, kinds), true)
	}
	f.Add(traced[:len(traced)/2], false)
	f.Add([]byte("GET / HTTP/1.1\r\nHost: worker\r\n\r\n"), false)
	f.Add(appendCall(nil, firstCall(opMap), "no-such-job", ""), false)
	f.Add([]byte{0, 40, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 2, 0, 0, 0}, true)
	// A split whose one record's gob message claims the length byte count
	// that does not fit an int8: the record is framed as the []byte 0x80,
	// and its tag, the body's only byte 8, becomes the gob column's 9.
	badSplit, err := persist.EncodeSplit(mapreduce.Split{ID: "g", Records: []any{[]byte{0x80}}})
	if err != nil {
		f.Fatal(err)
	}
	_, body, err := persist.OpenFrame(badSplit)
	if err != nil {
		f.Fatal(err)
	}
	body = append([]byte(nil), body...)
	body[bytes.IndexByte(body, 8)] = 9
	f.Add(framed(appendCall(nil, oneSplit, "dist-wordcount", ""), splitKind, body), false)

	f.Fuzz(func(t *testing.T, data []byte, reframe bool) {
		if reframe {
			data = reframed(data, kinds)
		}
		limit := float64(len(data)*fuzzBytesPerByte + fuzzBytesFlat)
		if _, n := perRun(1, func() { w.serve(&loopConn{in: data}) }); n > limit {
			t.Fatalf("the worker allocated %.0f bytes over %d bytes of input (limit %.0f)", n, len(data), limit)
		}
	})
}

// firstCall is the envelope of a call of the given operation, the first on
// its connection.
func firstCall(op byte) call { return call{id: 1, op: op} }

func FuzzWireReply(f *testing.F) {
	job, splits := testJob(), textSplits(0, 2)
	// What a worker answers to the calls the target makes: a traced map
	// batch of the two splits, a ping, a stats poll.
	mapReply := appendReply(nil, 1, statusOK, 3, "w0", "")
	for _, s := range splits {
		res, err := mapreduce.RunMapTask(job, s)
		if err != nil {
			f.Fatal(err)
		}
		if mapReply, err = persist.AppendMapResult(mapReply, res); err != nil {
			f.Fatal(err)
		}
	}
	span := metrics.NewTracer(1).StartSlide(1, "batch")
	span.Child("split 0").End()
	span.End()
	withSpans, err := persist.AppendValue(append([]byte(nil), mapReply...), metrics.ExportWireSpans(span))
	if err != nil {
		f.Fatal(err)
	}
	ping, err := persist.AppendValue(appendReply(nil, 1, statusOK, 1, "w0", ""), PingReply{Worker: "w0", Jobs: []string{"j"}})
	if err != nil {
		f.Fatal(err)
	}
	stats, err := persist.AppendValue(appendReply(nil, 1, statusOK, 1, "w0", ""), metrics.NodeStats{Node: "w0", Served: 3})
	if err != nil {
		f.Fatal(err)
	}
	kinds := []byte{kindReply, frameKind(f, mapReply[len(appendReply(nil, 1, statusOK, 3, "w0", "")):]), kindCall, valueKind(f)}
	for _, msg := range [][]byte{withSpans, ping, stats} {
		f.Add(msg, false)
		f.Add(chunked(f, msg, kinds), true)
	}
	f.Add(mapReply, false)
	f.Add(withSpans[:len(withSpans)-7], false)
	// Map replies that check out frame by frame but do not answer the
	// splits sent, their results changed under valid checksums: sizes that
	// do not add up, partitions shifted by one — every key where Partition
	// does not put it — and a record more than the split holds. The pool
	// must not take them over.
	for _, lie := range []func(*mapreduce.MapResult){
		func(r *mapreduce.MapResult) { r.PartBytes[0]++ },
		func(r *mapreduce.MapResult) {
			r.Parts = append(r.Parts[1:], r.Parts[0])
			r.PartBytes = append(r.PartBytes[1:], r.PartBytes[0])
		},
		func(r *mapreduce.MapResult) { r.Records++ },
	} {
		lying := appendReply(nil, 1, statusOK, 2, "w0", "")
		for _, s := range splits {
			res, err := mapreduce.RunMapTask(job, s)
			if err != nil {
				f.Fatal(err)
			}
			lie(&res)
			if lying, err = persist.AppendMapResult(lying, res); err != nil {
				f.Fatal(err)
			}
		}
		f.Add(lying, false)
	}
	// A value whose gob message claims the length byte count that does not
	// fit an int8.
	f.Add(framed(appendReply(nil, 1, statusOK, 1, "w0", ""), valueKind(f), []byte{0x80}), false)
	f.Add(appendReply(nil, 1, statusJobError, 0, "w0", "job \"j\" panicked"), false)
	f.Add(appendReply(nil, 0, statusCorruptRequest, 0, "w0", "checksum mismatch"), false)
	f.Add([]byte("HTTP/1.1 400 Bad Request\r\n\r\n"), false)
	f.Add([]byte{1, 30, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0}, true)

	p := loopPool(job.Name)
	f.Fuzz(func(t *testing.T, data []byte, reframe bool) {
		if reframe {
			data = reframed(data, kinds)
		}
		limit := float64(len(data)*fuzzBytesPerByte + fuzzBytesFlat)
		_, n := perRun(1, func() {
			// A pool with one worker whose connection answers with data.
			worker := &poolWorker{addr: "fuzz", conn: newWireConn(&loopConn{in: data})}
			p.workers = []*poolWorker{worker}
			o := batchOutcome{a: &batchAssign{w: worker, conn: worker.conn, indices: []int{0, 1}}}
			p.runBatch(&o, call{op: opMap, items: 2, traced: true}, "rpc fuzz", &mapRun{job: job, splits: splits})
			if len(o.results) > 2 || (o.err == nil && len(o.results) != 2) {
				t.Fatalf("%d results and err %v for a batch of two", len(o.results), o.err)
			}
			for k, r := range o.results {
				if r.Records != int64(len(splits[k].Records)) {
					t.Fatalf("result %s taken with %d records for a split of %d", r.SplitID, r.Records, len(splits[k].Records))
				}
				for part, payload := range r.Parts {
					for _, e := range payload {
						if mapreduce.Partition(e.Key, len(r.Parts)) != part {
							t.Fatalf("result %s taken with key %q in partition %d", r.SplitID, e.Key, part)
						}
					}
				}
				sum := int64(0)
				for _, b := range r.PartBytes {
					if b < 0 {
						t.Fatalf("result %s taken with a partition of %d bytes", r.SplitID, b)
					}
					sum += b
				}
				if r.Records < 0 || sum != r.Bytes {
					t.Fatalf("result %s taken with %d records and partitions of %d bytes in a total of %d", r.SplitID, r.Records, sum, r.Bytes)
				}
			}
			var pr PingReply
			_ = newWireConn(&loopConn{in: data}).value(opPing, 0, &pr)
			var ns metrics.NodeStats
			_ = newWireConn(&loopConn{in: data}).value(opStats, 0, &ns)
		})
		if n > limit {
			t.Fatalf("the pool allocated %.0f bytes over %d bytes of input (limit %.0f)", n, len(data), limit)
		}
	})
}
