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
	// ErrReduceNotFold means a declared Reduce gave another output for a
	// key's values than for their Combine: Reduce(k, [a, b, c]) differs from
	// Reduce(k, [Combine(k, [a, b, c])]), or the two-value form does. The
	// runtime reduces a key's window from one, two or more roots, so a
	// Reduce that is no lower of the fold outputs something that depends
	// on how the window happened to be grouped.
	ErrReduceNotFold = errors.New("mapreduce: Reduce of several values differs from Reduce of their Combine")
	// ErrNotSum means the job declares SumInt64 but Map emitted a value
	// that is no int64, or Combine is not the wrapping int64 sum: the map
	// task would compute something other than what Combine does.
	ErrNotSum = errors.New("mapreduce: job declares SumInt64 but is no int64 sum")
	// ErrMapLine means the job declares MapLine but, on a string record,
	// MapLine emitted other pairs than Map — another key, another value,
	// another order, one more or one fewer — or failed otherwise: a worker
	// that maps the split as lines would compute something else.
	ErrMapLine = errors.New("mapreduce: MapLine does not map a line as Map does")
)

// checkMapLine holds a job's MapLine to its Map on every string record of
// the samples: the same pairs in the same order, values by Fingerprint, and
// the same error.
func checkMapLine(job *Job, samples []Split) error {
	var byMap, byLine []Entry
	collect := func(into *[]Entry) Emit {
		return func(key string, value Value) { *into = append(*into, Entry{key, value}) }
	}
	for _, split := range samples {
		for _, rec := range split.Records {
			line, ok := rec.(string)
			if !ok {
				continue
			}
			byMap, byLine = byMap[:0], byLine[:0]
			mapErr := job.Map(line, collect(&byMap))
			lineErr := job.MapLine(line, collect(&byLine))
			if fmt.Sprint(mapErr) != fmt.Sprint(lineErr) {
				return fmt.Errorf("%w: on %q Map fails with %v, MapLine with %v", ErrMapLine, line, mapErr, lineErr)
			}
			if len(byMap) != len(byLine) {
				return fmt.Errorf("%w: on %q Map emits %d pairs, MapLine %d", ErrMapLine, line, len(byMap), len(byLine))
			}
			for i, m := range byMap {
				if l := byLine[i]; m.Key != l.Key || Fingerprint(m.Value) != Fingerprint(l.Value) {
					return fmt.Errorf("%w: on %q pair %d is %q: %v by Map, %q: %v by MapLine", ErrMapLine, line, i, m.Key, m.Value, l.Key, l.Value)
				}
			}
		}
	}
	return nil
}

// sumCases are the value lists a declared sum's Combine is held to: one to
// four values, zero, negatives and sums that wrap past MaxInt64 and MinInt64.
var sumCases = [][]int64{
	{0}, {7}, {-7}, {math.MaxInt64}, {math.MinInt64},
	{0, 0}, {3, -3}, {-5, -9}, {math.MaxInt64, 1}, {math.MinInt64, -1},
	{1, 2, 3}, {-1, 0, 1}, {math.MaxInt64, math.MaxInt64, 2},
	{1, 1, 1, 1}, {math.MinInt64, -1, 5, 0}, {math.MaxInt64, 1, math.MaxInt64, 1},
}

// checkSum holds a declared job's Combine, on key, to the wrapping int64
// sum of every sumCases list. A Combine that panics on int64 values is no
// such sum either.
func checkSum(job *Job, key string) (err error) {
	var vs []int64
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: Combine(%q, %v) panicked: %v", ErrNotSum, key, vs, r)
		}
	}()
	for _, vs = range sumCases {
		args := make([]Value, len(vs))
		var want int64
		for i, v := range vs {
			args[i], want = v, want+v
		}
		if got := job.Combine(key, args); got != Value(want) {
			return fmt.Errorf("%w: Combine(%q, %v) = %v (%T), want %d", ErrNotSum, key, vs, got, got, want)
		}
	}
	return nil
}

// CheckJob property-tests a job's combiner contract against real sample
// data: it maps the sample splits and then checks, on every key with at
// least three values, that Combine is associative — over two values and
// over three handed over in one call, which must equal their left fold —,
// commutative (when the job declares it), does not mutate its inputs, and
// does not return a value aliasing an input; that neither Combine nor a
// declared Reduce retains its values argument slice (the result must
// fingerprint the same after the slice is overwritten); and that a declared
// Reduce lowers the fold: over two or three values it equals Reduce over
// their Combine (ErrReduceNotFold). Values are compared field by field with a
// relative tolerance for floats, wherever they sit in the value (contraction
// trees re-associate float arithmetic by design), or by Fingerprint where
// the type defines one. A job that declares SumInt64 must emit only int64
// values, and its Combine must return their wrapping sum, on every sampled
// key, for lists of one to four values that include zero, negatives and
// overflow (ErrNotSum). A job that declares MapLine must map every string
// record of the samples by it as by Map (ErrMapLine).
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
	if job.MapLine != nil {
		if err := checkMapLine(job, samples); err != nil {
			return err
		}
	}
	// Gather per-key value sequences from real map output.
	values := make(map[string][]Value)
	var notSum error
	emit := func(key string, value Value) {
		if _, ok := value.(int64); job.SumInt64 && !ok && notSum == nil {
			notSum = fmt.Errorf("%w: Map emitted a %T value (key %q)", ErrNotSum, value, key)
		}
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
	if notSum != nil {
		return notSum
	}
	if job.SumInt64 {
		for key := range values {
			if err := checkSum(job, key); err != nil {
				return err
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

		// A declared Reduce, held once the Combine it lowers is.
		if job.Reduce != nil {
			if err := checkReduce(job, key, a, b, c); err != nil {
				return err
			}
		}
	}
	if checked == 0 {
		return fmt.Errorf("mapreduce: samples produced no key with ≥3 values; provide more data")
	}
	return nil
}

// checkReduce holds a declared Reduce, on one key's three values, to the
// slice rule and to the fold: Reduce over the values, two or three, equals
// Reduce over their Combine. A job that declares none reduces by the fold,
// which meets both by construction.
func checkReduce(job *Job, key string, a, b, c Value) error {
	if retainsArgs(job.Reduce, key, []Value{a, b}, []Value{b, c}) ||
		retainsArgs(job.Reduce, key, []Value{job.Combine(key, []Value{a, b})}, []Value{c}) {
		return fmt.Errorf("%w: Reduce (key %q)", ErrRetainsArgs, key)
	}
	for _, vs := range [][]Value{{a, b}, {a, b, c}} {
		whole := job.Reduce(key, vs)
		folded := job.Reduce(key, []Value{job.Combine(key, vs)})
		if !valuesEquivalent(whole, folded) {
			return fmt.Errorf("%w (key %q, %d values): %v, of their Combine %v", ErrReduceNotFold, key, len(vs), whole, folded)
		}
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

// valuesEquivalent compares combiner and reducer outputs, tolerating float
// re-association error: values of the same shape whose floats are close and
// whose every other field, element and map entry is equal — the floats
// inside an accumulator struct (K-Means' sums) as much as a bare float64 —
// and values of a Fingerprinter type whose fingerprints are equal.
func valuesEquivalent(a, b Value) bool {
	if _, ok := a.(Fingerprinter); ok && Fingerprint(a) == Fingerprint(b) {
		return true
	}
	return closeValues(reflect.ValueOf(a), reflect.ValueOf(b))
}

// closeValues walks two values in step: floats by floatsClose, everything
// else exactly.
func closeValues(a, b reflect.Value) bool {
	if !a.IsValid() || !b.IsValid() || a.Type() != b.Type() {
		return !a.IsValid() && !b.IsValid()
	}
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		return floatsClose(a.Float(), b.Float())
	case reflect.Pointer, reflect.Interface:
		return a.IsNil() && b.IsNil() || !a.IsNil() && !b.IsNil() && closeValues(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := range a.NumField() {
			if !closeValues(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := range a.Len() {
			if !closeValues(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.Len() != b.Len() {
			return false
		}
		for it := a.MapRange(); it.Next(); {
			if !closeValues(it.Value(), b.MapIndex(it.Key())) {
				return false
			}
		}
		return true
	case reflect.Func:
		return a.IsNil() && b.IsNil()
	}
	return a.Equal(b)
}

func floatsClose(x, y float64) bool {
	scale := math.Max(1, math.Max(math.Abs(x), math.Abs(y)))
	return math.Abs(x-y) <= 1e-9*scale
}
