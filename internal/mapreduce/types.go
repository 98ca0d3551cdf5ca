// Package mapreduce implements the data-parallel substrate that Slider
// builds on: jobs expressed as Map / Combine / Reduce functions over input
// splits, a hash partitioner, and a parallel in-process executor that
// measures real per-task costs.
//
// The programming model follows the paper (§2): a job is an ordinary,
// non-incremental MapReduce program whose Combiner is associative (and,
// for fixed-width windows, commutative). Slider interposes a contraction
// phase between shuffle and reduce; the payloads flowing through that
// phase are the per-partition key→value sets produced by map tasks, held
// sorted by key (see Payload).
package mapreduce

import (
	"errors"
	"fmt"
)

// Record is one input record of a split. Applications choose the concrete
// type (a text line, a point, a log entry, ...).
type Record = any

// Value is an intermediate or final value associated with a key.
type Value = any

// Emit is the callback map functions use to produce key/value pairs. It is
// valid during the Map call it was passed to, on the goroutine making that
// call, and nowhere else: a call after the map task has returned is dropped.
type Emit func(key string, value Value)

// Sizer lets application value types report their approximate in-memory
// size so the memoization layer can account for space (Figure 13c).
type Sizer interface {
	SizeBytes() int64
}

// Fingerprinter lets application value types provide a content fingerprint
// used by multi-level change detection (§5). Types that do not implement
// it are fingerprinted structurally by Fingerprint.
type Fingerprinter interface {
	Fingerprint() uint64
}

// Job describes a non-incremental data-parallel computation.
//
// Combine must be associative: Combine(k, [a, Combine(k, [b, c])]) must
// equal Combine(k, [Combine(k, [a, b]), c]), and a call with more values
// must equal their left fold. Jobs used with fixed-width
// (rotating) windows must additionally set Commutative and guarantee
// order-insensitivity, as required by §4.1.
type Job struct {
	// Name identifies the job in reports.
	Name string
	// Partitions is the number of reduce partitions (R). Defaults to 1.
	Partitions int
	// Map processes one record, emitting intermediate key/value pairs.
	Map func(rec Record, emit Emit) error
	// Combine folds two or more values for a key into one, equal to the
	// left fold: Combine(k, [a, b, c]) is Combine(k, [Combine(k, [a, b]), c]).
	// The runtime hands a key's values over together wherever it has them
	// together — a map task's emits, a bucket of three or more splits — so
	// every element counts, not the first two. It must not mutate its
	// inputs: payloads are shared between contraction-tree nodes across
	// runs. The values slice itself is only valid for the
	// duration of the call — callers hand in scratch they overwrite for
	// the next key — so Combine must not retain it, nor return it or a
	// sub-slice of it (the values it holds may be kept). CheckJob
	// enforces this (ErrRetainsArgs).
	Combine func(key string, values []Value) Value
	// Reduce produces the final per-key output from the combined
	// value(s) at the contraction-tree root. Like Combine's, its values
	// slice is only valid for the duration of the call and must not be
	// retained or returned.
	Reduce func(key string, values []Value) Value
	// SizeOf overrides the default value size estimate (optional).
	SizeOf func(v Value) int64
	// Commutative declares that Combine is order-insensitive.
	Commutative bool
}

// Validate checks that the job is well formed.
func (j *Job) Validate() error {
	switch {
	case j == nil:
		return errors.New("mapreduce: nil job")
	case j.Map == nil:
		return fmt.Errorf("mapreduce: job %q has no Map", j.Name)
	case j.Combine == nil:
		return fmt.Errorf("mapreduce: job %q has no Combine", j.Name)
	case j.Reduce == nil:
		return fmt.Errorf("mapreduce: job %q has no Reduce", j.Name)
	case j.Partitions < 0:
		return fmt.Errorf("mapreduce: job %q has negative partitions", j.Name)
	}
	return nil
}

// NumPartitions returns the effective reduce partition count.
func (j *Job) NumPartitions() int {
	if j.Partitions <= 0 {
		return 1
	}
	return j.Partitions
}

// Split is one unit of map-side work. Splits carry a stable identity: the
// memoization layer reuses a map task's output whenever a split with the
// same ID reappears in the window (paper §2: "reuse the results of Map
// tasks operating on old but live data").
type Split struct {
	// ID is the split's stable, globally unique identity.
	ID string
	// Records are the input records handled by one map task.
	Records []Record
}

// Output is the final result of a job: key → reduced value.
type Output map[string]Value
