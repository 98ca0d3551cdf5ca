package core

// reduceOrdered folds items into a single payload left to right, counting
// its len(items)−1 merges into total. It reports false for an empty slice.
func reduceOrdered[T any](merge MergeFunc[T], items []T, total *Stats) (T, bool) {
	if len(items) == 0 {
		var zero T
		return zero, false
	}
	acc := items[0]
	for _, it := range items[1:] {
		acc = merge(acc, it)
		total.Merges++
	}
	return acc, true
}

// KMergeFunc combines any number of payloads in a single pass, preserving
// left-to-right window order. It must be equivalent to folding an
// associative binary merge over the items (the combiner's multi-argument
// associativity).
type KMergeFunc[T any] func(items []T) T

// kMergeLeafWidth is the number of items batched into one K-way merge at
// the leaf level of ReduceOrderedK. Batch boundaries fix combiner-call
// counts and value association, which checkpoints and the pinned work
// counters depend on.
const kMergeLeafWidth = 64

// ReduceOrderedK folds items into a single payload through K-way merges:
// the leaf level batches fixed-width runs of kMergeLeafWidth items into
// one kmerge call each, and the surviving batch roots are folded the same
// way until one payload remains. For the common fold-up sizes (new splits
// of a slide, bucket widths) this is a single kmerge call — one pass, one
// output allocation — where a pairwise reduction allocates an intermediate
// payload per merge. It reports false for an empty slice; a single item is
// returned as-is.
func ReduceOrderedK[T any](kmerge KMergeFunc[T], items []T) (T, bool) {
	switch len(items) {
	case 0:
		var zero T
		return zero, false
	case 1:
		return items[0], true
	}
	for len(items) > kMergeLeafWidth {
		out := make([]T, 0, (len(items)+kMergeLeafWidth-1)/kMergeLeafWidth)
		for lo := 0; lo < len(items); lo += kMergeLeafWidth {
			if hi := min(lo+kMergeLeafWidth, len(items)); hi-lo == 1 {
				out = append(out, items[lo])
			} else {
				out = append(out, kmerge(items[lo:hi]))
			}
		}
		items = out
	}
	return kmerge(items), true
}
