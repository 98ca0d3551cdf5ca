package mapreduce

import (
	"errors"
	"fmt"
	"math"
	"reflect"
)

// Contract violations reported by CheckJob.
var (
	// ErrNotAssociative means Combine((a,b),c) ≠ Combine(a,(b,c)), or that
	// Combine(a,b,c) is not their left fold Combine((a,b),c).
	ErrNotAssociative = errors.New("mapreduce: combiner is not associative")
	// ErrNotCommutative means Combine(a,b) ≠ Combine(b,a) although the
	// job declares Commutative (required for Fixed windows, §4.1).
	ErrNotCommutative = errors.New("mapreduce: combiner is not commutative")
	// ErrMutatesInput means Combine changed one of its arguments;
	// payloads are shared between contraction-tree nodes across runs,
	// so mutation corrupts memoized state.
	ErrMutatesInput = errors.New("mapreduce: combiner mutates its inputs")
	// ErrAliasesInput means Combine returned a value sharing mutable
	// state (the same map, slice, or pointer) with one of its inputs.
	// A payload lives on in several aggregates; a result aliasing one
	// lets a later write through either corrupt memoized state.
	ErrAliasesInput = errors.New("mapreduce: combiner returns a value aliasing an input")
	// ErrRetainsArgs means Combine or Reduce kept (or returned) its values
	// argument slice. The slice is scratch the caller overwrites for the
	// next key — one pair per merge, one arena per K-way merge — so a
	// retained slice changes under the value that holds it.
	ErrRetainsArgs = errors.New("mapreduce: function retains its values argument slice")
)

// CheckJob property-tests a job's combiner contract against real sample
// data: it maps the sample splits and then checks, on every key with at
// least three values, that Combine is associative — over two values and
// over three handed over in one call, which must equal their left fold —,
// commutative (when the job declares it), does not mutate its inputs, and
// does not return a value aliasing an input; and that neither Combine nor
// Reduce retains its values argument slice (the result must fingerprint the
// same after the slice is overwritten). Values are compared by Fingerprint with a
// relative tolerance for floats (contraction trees re-associate float
// arithmetic by design).
//
// Run it once in a test against representative inputs before trusting a
// new job to the incremental runtime:
//
//	if err := mapreduce.CheckJob(job, sampleSplits); err != nil {
//	    t.Fatal(err)
//	}
func CheckJob(job *Job, samples []Split) error {
	if err := job.Validate(); err != nil {
		return err
	}
	// Gather per-key value sequences from real map output.
	values := make(map[string][]Value)
	emit := func(key string, value Value) {
		if len(values[key]) < 8 {
			values[key] = append(values[key], value)
		}
	}
	for _, split := range samples {
		for _, rec := range split.Records {
			if err := job.Map(rec, emit); err != nil {
				return fmt.Errorf("map on sample split %s: %w", split.ID, err)
			}
		}
	}
	checked := 0
	for key, vs := range values {
		if len(vs) < 3 {
			continue
		}
		checked++
		a, b, c := pickDistinct(vs)

		// Non-mutation: fingerprints before and after.
		fpA, fpB := Fingerprint(a), Fingerprint(b)
		ab := job.Combine(key, []Value{a, b})
		if Fingerprint(a) != fpA || Fingerprint(b) != fpB {
			return fmt.Errorf("%w (key %q)", ErrMutatesInput, key)
		}

		// Non-retention: the argument slice is the caller's scratch.
		if retainsArgs(job.Combine, key, []Value{a, b}, []Value{b, c}) {
			return fmt.Errorf("%w: Combine (key %q)", ErrRetainsArgs, key)
		}
		if retainsArgs(job.Reduce, key, []Value{a, b}, []Value{b, c}) ||
			retainsArgs(job.Reduce, key, []Value{ab}, []Value{c}) {
			return fmt.Errorf("%w: Reduce (key %q)", ErrRetainsArgs, key)
		}

		// Alias-freedom: the result must not share storage with an input.
		if aliases(ab, a) || aliases(ab, b) {
			return fmt.Errorf("%w (key %q)", ErrAliasesInput, key)
		}

		// More than two values: the runtime hands a key's values over
		// together — a bucket fold-up of three or more splits
		// (MergeOrderedK), a map task's fold — so the call must equal the
		// left fold of binary ones, under the same rules. A combiner that
		// folds left to right meets this exactly, floats included, so it
		// is held before the re-association below.
		left := job.Combine(key, []Value{ab, c})
		fpC := Fingerprint(c)
		abc := job.Combine(key, []Value{a, b, c})
		if Fingerprint(a) != fpA || Fingerprint(b) != fpB || Fingerprint(c) != fpC {
			return fmt.Errorf("%w (key %q, three values)", ErrMutatesInput, key)
		}
		if retainsArgs(job.Combine, key, []Value{a, b, c}, []Value{c, a, b}) {
			return fmt.Errorf("%w: Combine (key %q, three values)", ErrRetainsArgs, key)
		}
		if !valuesEquivalent(abc, left) {
			return fmt.Errorf("%w (key %q): three values in one call differ from their left fold", ErrNotAssociative, key)
		}

		// Associativity: (a⊕b)⊕c == a⊕(b⊕c).
		right := job.Combine(key, []Value{a, job.Combine(key, []Value{b, c})})
		if !valuesEquivalent(left, right) {
			return fmt.Errorf("%w (key %q)", ErrNotAssociative, key)
		}

		// Commutativity, when declared.
		if job.Commutative {
			ba := job.Combine(key, []Value{b, a})
			if !valuesEquivalent(ab, ba) {
				return fmt.Errorf("%w (key %q)", ErrNotCommutative, key)
			}
		}
	}
	if checked == 0 {
		return fmt.Errorf("mapreduce: samples produced no key with ≥3 values; provide more data")
	}
	return nil
}

// retainsArgs calls fn (a Combine or a Reduce) on args, then overwrites
// args with next — what the caller's scratch holds by the following key —
// and reports whether the result changed with it.
func retainsArgs(fn func(string, []Value) Value, key string, args, next []Value) bool {
	out := fn(key, args)
	fp := Fingerprint(out)
	copy(args, next)
	return Fingerprint(out) != fp
}

// aliases reports whether two values share mutable storage: the same
// map, the same pointer, or slices over the same backing array. Scalar
// kinds (numbers, strings, booleans) are copied by value and can never
// alias.
func aliases(out, in Value) bool {
	ov, iv := reflect.ValueOf(out), reflect.ValueOf(in)
	if !ov.IsValid() || !iv.IsValid() || ov.Kind() != iv.Kind() {
		return false
	}
	switch ov.Kind() {
	case reflect.Map, reflect.Pointer, reflect.Chan, reflect.UnsafePointer:
		return ov.Pointer() == iv.Pointer()
	case reflect.Slice:
		// Same backing array (element 0 address) counts as aliasing even
		// if lengths differ; empty slices share no storage.
		return ov.Len() > 0 && iv.Len() > 0 && ov.Pointer() == iv.Pointer()
	default:
		return false
	}
}

// pickDistinct selects three values preferring pairwise-distinct ones
// (identical values trivially commute, hiding violations).
func pickDistinct(vs []Value) (Value, Value, Value) {
	picked := []Value{vs[0]}
	seen := map[uint64]bool{Fingerprint(vs[0]): true}
	for _, v := range vs[1:] {
		if len(picked) == 3 {
			break
		}
		if fp := Fingerprint(v); !seen[fp] {
			seen[fp] = true
			picked = append(picked, v)
		}
	}
	for i := 1; len(picked) < 3; i++ {
		picked = append(picked, vs[i])
	}
	return picked[0], picked[1], picked[2]
}

// valuesEquivalent compares combiner outputs, tolerating float
// re-association error.
func valuesEquivalent(a, b Value) bool {
	switch x := a.(type) {
	case float64:
		y, ok := b.(float64)
		return ok && floatsClose(x, y)
	case []float64:
		y, ok := b.([]float64)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if !floatsClose(x[i], y[i]) {
				return false
			}
		}
		return true
	default:
		return Fingerprint(a) == Fingerprint(b)
	}
}

func floatsClose(x, y float64) bool {
	scale := math.Max(1, math.Max(math.Abs(x), math.Abs(y)))
	return math.Abs(x-y) <= 1e-9*scale
}
