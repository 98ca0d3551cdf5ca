package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"slider/internal/apps"
	"slider/internal/memo"
	"slider/internal/sliderrt"
	"slider/internal/workload"
)

// The outoforder experiment measures the finger-tree backend's bulk
// operations: advancing the window by K buckets in one bulk
// evict-and-insert (one treap split plus one O(K) build-and-join,
// c·(K + log w) combines) against the same K buckets applied as K
// sequential single-bucket slides (K root paths, c·K·log w combines).
// Both sides serve byte-identical windows and end in the same state;
// the gap is the log factor the FiBA bulk algorithms delete, and it
// widens with K. Results serialize to BENCH_ooo.json.

// OOOCell is one K measurement: a single K-bucket bulk advance vs K
// sequential single-bucket slides over the same window.
type OOOCell struct {
	K             int     `json:"k"`
	WindowBuckets int     `json:"windowBuckets"`
	BulkMerges    int64   `json:"bulkMerges"`
	SeqMerges     int64   `json:"seqMerges"`
	BulkNs        int64   `json:"bulkNs"`
	SeqNs         int64   `json:"seqNs"`
	MergeRatio    float64 `json:"mergeRatio"` // seq/bulk: >1 means bulk wins
}

// OOOResult is the full bulk-vs-sequential sweep, serialized to
// BENCH_ooo.json.
type OOOResult struct {
	Scale      string    `json:"scale"`
	App        string    `json:"app"`
	Cells      []OOOCell `json:"cells"`
	DurationMs int64     `json:"durationMs"`
}

// oooWindowBuckets is the window width the sweep runs at: wide enough
// that the largest K still leaves a live window and the log factor is
// visible.
const oooWindowBuckets = 512

// oooKs is the bulk-width axis.
var oooKs = []int{4, 32, 256}

// newOOORuntime builds a finger-tree runtime over the first window
// buckets of the workload text (one split per bucket, so trace buckets
// and splits coincide).
func newOOORuntime(s Scale, text *workload.Text, window int) (*sliderrt.Runtime, error) {
	cfg := sliderrt.Config{
		Mode:          sliderrt.Fixed,
		Backend:       sliderrt.BackendFingerTree,
		BucketSplits:  1,
		WindowBuckets: window,
		Memo:          memo.DefaultConfig(),
	}
	rt, err := sliderrt.New(apps.WordCount(s.Partitions), cfg)
	if err != nil {
		return nil, err
	}
	if _, err := rt.Initial(text.Range(0, window)); err != nil {
		return nil, err
	}
	return rt, nil
}

// measureOOO runs one K cell: both runtimes consume the same K fresh
// buckets, one in a single bulk advance, one bucket at a time.
func measureOOO(s Scale, k int) (OOOCell, error) {
	cell := OOOCell{K: k, WindowBuckets: oooWindowBuckets}
	text := workload.NewText(s.Text)

	bulkRT, err := newOOORuntime(s, text, oooWindowBuckets)
	if err != nil {
		return cell, err
	}
	seqRT, err := newOOORuntime(s, text, oooWindowBuckets)
	if err != nil {
		return cell, err
	}

	start := time.Now()
	res, err := bulkRT.Advance(k, text.Range(oooWindowBuckets, oooWindowBuckets+k))
	if err != nil {
		return cell, fmt.Errorf("bulk advance k=%d: %w", k, err)
	}
	cell.BulkNs = time.Since(start).Nanoseconds()
	cell.BulkMerges = res.TreeStats.Merges + res.TreeStatsBackground.Merges

	start = time.Now()
	for i := 0; i < k; i++ {
		res, err := seqRT.Advance(1, text.Range(oooWindowBuckets+i, oooWindowBuckets+i+1))
		if err != nil {
			return cell, fmt.Errorf("sequential slide %d/%d: %w", i+1, k, err)
		}
		cell.SeqMerges += res.TreeStats.Merges + res.TreeStatsBackground.Merges
	}
	cell.SeqNs = time.Since(start).Nanoseconds()

	if cell.BulkMerges > 0 {
		cell.MergeRatio = float64(cell.SeqMerges) / float64(cell.BulkMerges)
	}
	return cell, nil
}

// RunOutOfOrder measures the bulk-vs-sequential sweep and renders a
// text table.
func RunOutOfOrder(s Scale) (*OOOResult, string, error) {
	start := time.Now()
	out := &OOOResult{Scale: "quick", App: "wordcount"}
	if s.WindowSplits >= 60 {
		out.Scale = "full"
	}
	for _, k := range oooKs {
		cell, err := measureOOO(s, k)
		if err != nil {
			return nil, "", fmt.Errorf("outoforder k=%d: %w", k, err)
		}
		out.Cells = append(out.Cells, cell)
	}
	out.DurationMs = time.Since(start).Milliseconds()

	var sb strings.Builder
	sb.WriteString("Out-of-order: bulk K-bucket advance vs K sequential slides (finger tree, wordcount)\n")
	fmt.Fprintf(&sb, "window=%d buckets\n", oooWindowBuckets)
	sb.WriteString("     K   bulk-merges    seq-merges   ratio      bulk-ns        seq-ns\n")
	for _, c := range out.Cells {
		fmt.Fprintf(&sb, "%6d   %11d  %12d  %6.1fx  %11d  %12d\n",
			c.K, c.BulkMerges, c.SeqMerges, c.MergeRatio, c.BulkNs, c.SeqNs)
	}
	return out, sb.String(), nil
}

// WriteOOOJSON runs the sweep and writes BENCH_ooo.json to w.
func WriteOOOJSON(w io.Writer, s Scale) error {
	res, _, err := RunOutOfOrder(s)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}
