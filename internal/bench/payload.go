package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"slider/internal/apps"
	"slider/internal/mapreduce"
	"slider/internal/memo"
	"slider/internal/persist"
	"slider/internal/sliderrt"
	"slider/internal/workload"
)

// The payload experiment measures the flat columnar payload codec
// (internal/flatenc, frame version sld2) against the legacy whole-value
// gob codec (sld1) it replaced on the byte-shaped paths: dist framing and
// checkpoints. Two views: a micro head-to-head of encode/decode cost
// across payload sizes (the gob rows call the gob encoder directly — no
// writer produces sld1 any more), and the end-to-end wordcount slide loop,
// which runs no codec at all: its "map:"/"part:" memo entries hold sizes
// and placement, not encoded payloads, so the row shows what a slide
// allocates once nothing on it is serialised.

// PayloadCodecCell is one (codec, payload size) micro measurement.
type PayloadCodecCell struct {
	Codec             string  `json:"codec"`
	Entries           int     `json:"entries"`
	FrameBytes        int     `json:"frameBytes"`
	EncodeNsPerOp     float64 `json:"encodeNsPerOp"`
	EncodeAllocsPerOp float64 `json:"encodeAllocsPerOp"`
	DecodeNsPerOp     float64 `json:"decodeNsPerOp"`
	DecodeAllocsPerOp float64 `json:"decodeAllocsPerOp"`
}

// PayloadSlideCell is the wordcount slide loop.
type PayloadSlideCell struct {
	Slides         int     `json:"slides"`
	AllocsPerSlide float64 `json:"allocsPerSlide"`
	BytesPerSlide  float64 `json:"bytesPerSlide"`
	NsPerSlide     float64 `json:"nsPerSlide"`
}

// PayloadResult is the full experiment, serialized to BENCH_payload.json.
type PayloadResult struct {
	Scale  string             `json:"scale"`
	Cells  []PayloadCodecCell `json:"cells"`
	Slides []PayloadSlideCell `json:"slides"`
	// EncodeAllocReductionPct is the steady-state allocation reduction of
	// the flat encode path vs gob at the largest measured payload size.
	EncodeAllocReductionPct float64 `json:"encodeAllocReductionPct"`
	// RoundTripAllocReductionPct compares full encode+decode (flat decode
	// into a payload vs gob decode into a map) at the largest payload size.
	RoundTripAllocReductionPct float64 `json:"roundTripAllocReductionPct"`
	DurationMs                 int64   `json:"durationMs"`
}

// payloadSizes is the entry-count axis of the micro head-to-head.
var payloadSizes = []int{4, 32, 256, 2048}

// benchPayload builds a wordcount-shaped payload: string keys, int64
// counts — the dominant shape on Slider's wire.
func benchPayload(entries int) mapreduce.Payload {
	p := make(mapreduce.Payload, entries)
	for i := range p {
		p[i] = mapreduce.Entry{Key: fmt.Sprintf("word-%04d", i), Value: int64(i*7 + 1)}
	}
	return p
}

// measureGobCodec measures the legacy sld1 path: whole-payload gob encode
// and decode of the map such frames carry.
func measureGobCodec(entries int) (PayloadCodecCell, error) {
	cell := PayloadCodecCell{Codec: "gob", Entries: entries}
	p := make(map[string]mapreduce.Value, entries)
	for _, e := range benchPayload(entries) {
		p[e.Key] = e.Value
	}
	frame, err := persist.Encode(p)
	if err != nil {
		return cell, err
	}
	cell.FrameBytes = len(frame)
	reps := microReps(entries)
	cell.EncodeAllocsPerOp = testing.AllocsPerRun(reps, func() {
		if _, err := persist.Encode(p); err != nil {
			panic(err)
		}
	})
	cell.EncodeNsPerOp = timeOp(reps, func() {
		if _, err := persist.Encode(p); err != nil {
			panic(err)
		}
	})
	decode := func() {
		var out map[string]mapreduce.Value
		if err := persist.Decode(frame, &out); err != nil {
			panic(err)
		}
	}
	cell.DecodeAllocsPerOp = testing.AllocsPerRun(reps, decode)
	cell.DecodeNsPerOp = timeOp(reps, decode)
	return cell, nil
}

// measureFlatCodec measures the sld2 path at steady state: pooled-buffer
// append encode, and decode into a fresh payload — one entry slice and
// one key arena per payload, plus whatever boxing the values need.
func measureFlatCodec(entries int) (PayloadCodecCell, error) {
	cell := PayloadCodecCell{Codec: "flat", Entries: entries}
	p := benchPayload(entries)
	frame, err := persist.EncodePayload(p)
	if err != nil {
		return cell, err
	}
	cell.FrameBytes = len(frame)
	// Steady state: one warm buffer reused across ops, like the memo and
	// dist hot paths.
	buf := make([]byte, 0, 2*len(frame))
	reps := microReps(entries)
	encode := func() {
		out, err := persist.AppendPayload(buf[:0], p)
		if err != nil {
			panic(err)
		}
		buf = out
	}
	cell.EncodeAllocsPerOp = testing.AllocsPerRun(reps, encode)
	cell.EncodeNsPerOp = timeOp(reps, encode)
	decode := func() {
		if _, err := persist.DecodePayload(frame); err != nil {
			panic(err)
		}
	}
	cell.DecodeAllocsPerOp = testing.AllocsPerRun(reps, decode)
	cell.DecodeNsPerOp = timeOp(reps, decode)
	return cell, nil
}

// microReps scales repetition counts down for big payloads.
func microReps(entries int) int {
	if entries >= 1024 {
		return 20
	}
	return 100
}

// timeOp times fn over reps runs and returns ns/op.
func timeOp(reps int, fn func()) float64 {
	start := time.Now()
	for i := 0; i < reps; i++ {
		fn()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(reps)
}

// payloadSlideWindow is the window, in one-split buckets, of the payload
// experiment's slide loop.
const payloadSlideWindow = 16

// measurePayloadSlides drives the wordcount slide loop (a window of
// `window` one-split buckets, sliding by one) and returns per-slide
// averages, measureBackend-style.
func measurePayloadSlides(s Scale, window, slides int) (PayloadSlideCell, error) {
	return measureSlideLoop(apps.WordCount(s.Partitions), workload.NewText(s.Text).Range, 1, window, slides)
}

// measureSlideLoop is measurePayloadSlides for any job over the splits gen
// yields, in buckets of bucket splits: a window of window buckets sliding by
// one.
func measureSlideLoop(job *mapreduce.Job, gen func(lo, hi int) []mapreduce.Split, bucket, window, slides int) (PayloadSlideCell, error) {
	cell := PayloadSlideCell{Slides: slides}
	cfg := sliderrt.Config{
		Mode:          sliderrt.Fixed,
		BucketSplits:  bucket,
		WindowBuckets: window,
		Memo:          memo.DefaultConfig(),
	}
	rt, err := sliderrt.New(job, cfg)
	if err != nil {
		return cell, err
	}
	if _, err := rt.Initial(gen(0, bucket*window)); err != nil {
		return cell, err
	}
	// A slide is the run and its upkeep, as the stream driver does them: the
	// measured slides then hold exactly their own upkeep, not the one the
	// warm-up left pending.
	next := bucket * window
	slide := func() error {
		if _, err := rt.Advance(bucket, gen(next, next+bucket)); err != nil {
			return err
		}
		next += bucket
		return rt.Background()
	}
	for i := 0; i < 2; i++ {
		if err := slide(); err != nil {
			return cell, err
		}
	}

	quiesce()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < slides; i++ {
		if err := slide(); err != nil {
			return cell, err
		}
	}
	elapsed := time.Since(start)
	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	n := float64(slides)
	cell.AllocsPerSlide = float64(after.Mallocs-before.Mallocs) / n
	cell.BytesPerSlide = float64(after.TotalAlloc-before.TotalAlloc) / n
	cell.NsPerSlide = float64(elapsed.Nanoseconds()) / n
	return cell, nil
}

// RunPayload measures the gob-vs-flat head-to-head and renders a text
// table.
func RunPayload(s Scale) (*PayloadResult, string, error) {
	start := time.Now()
	out := &PayloadResult{Scale: "quick"}
	if s.WindowSplits >= 60 {
		out.Scale = "full"
	}
	for _, entries := range payloadSizes {
		gob, err := measureGobCodec(entries)
		if err != nil {
			return nil, "", fmt.Errorf("payload gob n=%d: %w", entries, err)
		}
		flat, err := measureFlatCodec(entries)
		if err != nil {
			return nil, "", fmt.Errorf("payload flat n=%d: %w", entries, err)
		}
		out.Cells = append(out.Cells, gob, flat)
	}

	slides := 16
	if s.WindowSplits >= 60 {
		slides = 32
	}
	cell, err := measurePayloadSlides(s, payloadSlideWindow, slides)
	if err != nil {
		return nil, "", fmt.Errorf("payload slides: %w", err)
	}
	out.Slides = append(out.Slides, cell)

	// Reduction figures at the largest payload size.
	biggest := payloadSizes[len(payloadSizes)-1]
	var gobBig, flatBig PayloadCodecCell
	for _, c := range out.Cells {
		if c.Entries != biggest {
			continue
		}
		switch c.Codec {
		case "gob":
			gobBig = c
		case "flat":
			flatBig = c
		}
	}
	if ga := gobBig.EncodeAllocsPerOp; ga > 0 {
		out.EncodeAllocReductionPct = 100 * (1 - flatBig.EncodeAllocsPerOp/ga)
	}
	if ga := gobBig.EncodeAllocsPerOp + gobBig.DecodeAllocsPerOp; ga > 0 {
		fa := flatBig.EncodeAllocsPerOp + flatBig.DecodeAllocsPerOp
		out.RoundTripAllocReductionPct = 100 * (1 - fa/ga)
	}
	out.DurationMs = time.Since(start).Milliseconds()

	var sb strings.Builder
	sb.WriteString("Payload codec: gob (sld1) vs flat (sld2), wordcount-shaped payloads\n")
	sb.WriteString("entries  codec              bytes   enc-ns  enc-allocs    dec-ns  dec-allocs\n")
	for _, c := range out.Cells {
		fmt.Fprintf(&sb, "%7d  %-16s %7d %8.0f  %10.1f  %8.0f  %10.1f\n",
			c.Entries, c.Codec, c.FrameBytes, c.EncodeNsPerOp, c.EncodeAllocsPerOp,
			c.DecodeNsPerOp, c.DecodeAllocsPerOp)
	}
	sb.WriteString("\nwordcount slide loop (no codec on it: memo entries hold sizes, not bytes)\n")
	sb.WriteString("slides  allocs/slide      ns/slide\n")
	for _, c := range out.Slides {
		fmt.Fprintf(&sb, "%6d  %12.0f  %12.0f\n", c.Slides, c.AllocsPerSlide, c.NsPerSlide)
	}
	fmt.Fprintf(&sb, "\nflat vs gob at %d entries: encode allocs −%.1f%%, round trip −%.1f%%\n",
		biggest, out.EncodeAllocReductionPct, out.RoundTripAllocReductionPct)
	return out, sb.String(), nil
}

// WritePayloadJSON runs the head-to-head and writes BENCH_payload.json
// to w.
func WritePayloadJSON(w io.Writer, s Scale) error {
	res, _, err := RunPayload(s)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}
