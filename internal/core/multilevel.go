package core

// MultiLevel implements the later-stage machinery of the paper's
// multi-level trees (§5). Stages after the first in a pipelined query see
// input changes at arbitrary positions, not at window ends, so they
// cannot use the sliding-window trees; instead each stage
//
//  1. addresses its inputs by content fingerprint, reusing the memoized
//     computation (e.g. a map task's output) for any input whose
//     fingerprint is unchanged since the previous run, and
//  2. aggregates the per-input results through per-partition strawman
//     trees whose leaf identities are those fingerprints — so unchanged
//     input pairs reuse their combined subtrees, and changes propagate
//     along O(log n) paths.
//
// The memo is generational: entries not referenced by the current run are
// dropped, bounding state to the live inputs.
//
// MultiLevel is not safe for concurrent use.
type MultiLevel[T any] struct {
	parts int
	memo  map[uint64][]T
	straw []*StrawmanTree[T]
	stats MultiLevelStats
}

// MultiLevelStats counts one or more runs' reuse behaviour.
type MultiLevelStats struct {
	// InputsComputed counts inputs whose compute function ran.
	InputsComputed int64
	// InputsReused counts inputs served from the fingerprint memo.
	InputsReused int64
}

// NewMultiLevel returns an empty multi-level stage aggregating into
// `partitions` strawman trees with the given merge function.
func NewMultiLevel[T any](merge MergeFunc[T], partitions int) *MultiLevel[T] {
	if partitions < 1 {
		partitions = 1
	}
	m := &MultiLevel[T]{
		parts: partitions,
		memo:  make(map[uint64][]T),
		straw: make([]*StrawmanTree[T], partitions),
	}
	for i := range m.straw {
		m.straw[i] = NewStrawman(merge)
	}
	return m
}

// Run executes one stage pass over content-addressed inputs. fps[i] is
// input i's content fingerprint; compute(i) produces input i's
// per-partition payloads (len == Partitions()) and runs only for
// fingerprints absent from the memo. It returns each partition's root
// payload (ok reports presence).
func (m *MultiLevel[T]) Run(fps []uint64, compute func(i int) ([]T, error)) ([]T, []bool, error) {
	nextMemo := make(map[uint64][]T, len(fps))
	leaves := make([][]Item[T], m.parts)
	for i, fp := range fps {
		payloads, ok := m.memo[fp]
		if !ok {
			payloads, ok = nextMemo[fp]
		}
		if ok {
			m.stats.InputsReused++
		} else {
			var err error
			payloads, err = compute(i)
			if err != nil {
				return nil, nil, err
			}
			if len(payloads) != m.parts {
				return nil, nil, ErrPartitionMismatch
			}
			m.stats.InputsComputed++
		}
		nextMemo[fp] = payloads
		for p := 0; p < m.parts; p++ {
			leaves[p] = append(leaves[p], Item[T]{ID: fp, Payload: payloads[p]})
		}
	}
	m.memo = nextMemo

	roots := make([]T, m.parts)
	ok := make([]bool, m.parts)
	for p := 0; p < m.parts; p++ {
		m.straw[p].Build(leaves[p])
		roots[p], ok[p] = m.straw[p].Root()
	}
	return roots, ok, nil
}

// Stats returns the cumulative reuse counters.
func (m *MultiLevel[T]) Stats() MultiLevelStats { return m.stats }

// TreeStats sums the underlying strawman trees' work counters.
func (m *MultiLevel[T]) TreeStats() Stats {
	var total Stats
	for _, t := range m.straw {
		total.add(t.Stats())
	}
	return total
}

// MemoEntries returns the number of memoized inputs retained.
func (m *MultiLevel[T]) MemoEntries() int { return len(m.memo) }
