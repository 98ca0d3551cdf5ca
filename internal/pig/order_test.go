package pig

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"slider/internal/mapreduce"
	"slider/internal/sliderrt"
)

// mixedKeySplits returns n splits of rows (k, id) whose key column mixes
// numbers and strings, among them strings that read as numbers ("9") or
// start like one ("1z"): the keys a merge orders differently from a sort
// when numbers and strings are compared as strings.
func mixedKeySplits(seed int64, from, n int) []mapreduce.Split {
	rng := rand.New(rand.NewSource(seed + int64(from)))
	splits := make([]mapreduce.Split, n)
	for s := range splits {
		var rows []Row
		for r := 0; r < 6; r++ {
			var key Value
			switch rng.Intn(4) {
			case 0:
				key = float64(rng.Intn(120))
			case 1:
				key = float64(rng.Intn(40)) + 0.5
			case 2:
				key = strconv.Itoa(rng.Intn(120)) + "z"
			default:
				key = strconv.Itoa(rng.Intn(120))
			}
			rows = append(rows, Row{key, fmt.Sprintf("r%d.%d", from+s, r)})
		}
		splits[s] = rowsToSplit(fmt.Sprintf("m%d", from+s), rows)
	}
	return splits
}

// TestOrderIsTotalOverMixedKinds runs ORDER and ORDER … LIMIT, ascending and
// descending, over a key column that mixes numbers and strings through the
// runtime — every window mode, parallelism 1, 4 and 8 — and holds each
// window's rows to pig.RunScratch's. The tree merges the window's one-row
// lists in groupings a from-scratch run never uses, so the rows agree only
// if rowLess is a total order: numbers before strings, each kind as before.
func TestOrderIsTotalOverMixedKinds(t *testing.T) {
	for _, order := range []string{"ORDER raw BY k", "ORDER raw BY k DESC"} {
		for _, limit := range []string{"", "top = LIMIT ordered 7;\n"} {
			out := "ordered"
			if limit != "" {
				out = "top"
			}
			src := "raw = LOAD 'mixed' AS (k, id);\nordered = " + order + ";\n" + limit + "STORE " + out + " INTO 'o';\n"
			plan := compileTest(t, src, nil)
			for _, mode := range []sliderrt.Mode{sliderrt.Fixed, sliderrt.Variable, sliderrt.Append} {
				for _, par := range []int{1, 4, 8} {
					name := fmt.Sprintf("%s/limit=%v/%v/par=%d", order, limit != "", mode, par)
					cfg := sliderrt.Config{Mode: mode, Parallelism: par, Memo: pipelineMemo()}
					if mode == sliderrt.Fixed {
						cfg.BucketSplits, cfg.WindowBuckets = 1, 6
					}
					pl, err := NewPipeline(plan, PipelineConfig{Config: cfg})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					window := mixedKeySplits(11, 0, 6)
					res, err := pl.Initial(window)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					next := len(window)
					for step := 0; ; step++ {
						want, _, err := RunScratch(plan, window, nil)
						if err != nil {
							t.Fatal(err)
						}
						if !sameRows(res.Rows, want) {
							t.Fatalf("%s, step %d: rows\n%v\nfrom scratch\n%v", name, step, res.Rows, want)
						}
						if step == 4 {
							break
						}
						drop, add := 1, 1
						switch mode {
						case sliderrt.Variable:
							drop, add = step%3, 2
						case sliderrt.Append:
							drop = 0
						}
						more := mixedKeySplits(11, next, add)
						next += add
						if res, err = pl.Advance(drop, more); err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						window = append(window[drop:], more...)
					}
				}
			}
		}
	}
}
