package mapreduce

import (
	"errors"
	"strings"
	"testing"
)

func checkSamples() []Split {
	return []Split{
		{ID: "c0", Records: []Record{"a a a b b c", "a b c c c"}},
	}
}

func TestCheckJobAcceptsLawfulJob(t *testing.T) {
	if err := CheckJob(sumJob(2), checkSamples()); err != nil {
		t.Fatal(err)
	}
}

func TestCheckJobDetectsNonAssociativity(t *testing.T) {
	job := sumJob(1)
	// Subtraction: associativity fails.
	job.Combine = func(_ string, values []Value) Value {
		acc := values[0].(int64)
		for _, v := range values[1:] {
			acc -= v.(int64)
		}
		return acc
	}
	if err := CheckJob(job, checkSamples()); !errors.Is(err, ErrNotAssociative) {
		t.Fatalf("err = %v, want ErrNotAssociative", err)
	}
}

// TestCheckJobDetectsBinaryOnlyCombiner: the runtime calls Combine with all of
// a key's values at once — a bucket fold-up of three or more splits, a map
// task's fold — so a combiner that reads its first two arguments and drops
// the rest loses data although every binary law holds for it.
func TestCheckJobDetectsBinaryOnlyCombiner(t *testing.T) {
	job := sumJob(1)
	job.Combine = func(_ string, values []Value) Value {
		return values[0].(int64) + values[1].(int64)
	}
	if err := CheckJob(job, checkSamples()); !errors.Is(err, ErrNotAssociative) {
		t.Fatalf("err = %v, want ErrNotAssociative", err)
	}

	// A collecting combiner that is lawful on two values and hands back its
	// argument slice when it gets more and finds nothing to flatten.
	retaining := &Job{
		Name: "collect",
		Map: func(rec Record, emit Emit) error {
			for _, w := range strings.Fields(rec.(string)) {
				emit("k", w)
			}
			return nil
		},
		Combine: func(_ string, values []Value) Value {
			flat, flattened := make([]Value, 0, len(values)), false
			for _, v := range values {
				if list, ok := v.([]Value); ok {
					flat, flattened = append(flat, list...), true
				} else {
					flat = append(flat, v)
				}
			}
			if len(values) > 2 && !flattened {
				return values
			}
			return flat
		},
		Reduce: func(_ string, values []Value) Value { return len(values) },
	}
	if err := CheckJob(retaining, checkSamples()); !errors.Is(err, ErrRetainsArgs) {
		t.Fatalf("err = %v, want ErrRetainsArgs", err)
	}
}

func TestCheckJobDetectsNonCommutativity(t *testing.T) {
	job := &Job{
		Name: "concat",
		Map: func(rec Record, emit Emit) error {
			for _, w := range strings.Fields(rec.(string)) {
				emit("k", w)
			}
			return nil
		},
		// String concatenation: associative but not commutative.
		Combine: func(_ string, values []Value) Value {
			var sb strings.Builder
			for _, v := range values {
				sb.WriteString(v.(string))
			}
			return sb.String()
		},
		Reduce:      func(_ string, values []Value) Value { return values[0] },
		Commutative: true, // falsely declared
	}
	if err := CheckJob(job, checkSamples()); !errors.Is(err, ErrNotCommutative) {
		t.Fatalf("err = %v, want ErrNotCommutative", err)
	}
	// Without the false declaration the job is acceptable.
	job.Commutative = false
	if err := CheckJob(job, checkSamples()); err != nil {
		t.Fatal(err)
	}
}

func TestCheckJobDetectsMutation(t *testing.T) {
	job := &Job{
		Name: "mutator",
		Map: func(rec Record, emit Emit) error {
			for range strings.Fields(rec.(string)) {
				emit("k", []int64{1})
			}
			return nil
		},
		Combine: func(_ string, values []Value) Value {
			// Mutates its first argument — forbidden.
			acc := values[0].([]int64)
			for _, v := range values[1:] {
				acc[0] += v.([]int64)[0]
			}
			return acc
		},
		Reduce: func(_ string, values []Value) Value { return values[0] },
	}
	if err := CheckJob(job, checkSamples()); !errors.Is(err, ErrMutatesInput) {
		t.Fatalf("err = %v, want ErrMutatesInput", err)
	}
}

func TestCheckJobToleratesFloatReassociation(t *testing.T) {
	job := &Job{
		Name: "fsum",
		Map: func(rec Record, emit Emit) error {
			for i, w := range strings.Fields(rec.(string)) {
				emit("k", float64(len(w))+float64(i)*0.1)
			}
			return nil
		},
		Combine: func(_ string, values []Value) Value {
			var sum float64
			for _, v := range values {
				sum += v.(float64)
			}
			return sum
		},
		Reduce:      func(_ string, values []Value) Value { return values[0] },
		Commutative: true,
	}
	if err := CheckJob(job, checkSamples()); err != nil {
		t.Fatalf("float sum rejected: %v", err)
	}
}

func TestCheckJobNeedsData(t *testing.T) {
	if err := CheckJob(sumJob(1), nil); err == nil {
		t.Fatal("no-sample check passed")
	}
	if err := CheckJob(sumJob(1), []Split{{ID: "x", Records: []Record{"solo"}}}); err == nil {
		t.Fatal("insufficient-values check passed")
	}
}

func TestCheckJobDetectsAliasing(t *testing.T) {
	job := &Job{
		Name: "aliaser",
		Map: func(rec Record, emit Emit) error {
			for i := range strings.Fields(rec.(string)) {
				emit("k", []int64{int64(i)})
			}
			return nil
		},
		Combine: func(_ string, values []Value) Value {
			// Returns its first argument unchanged — pure, but the result
			// aliases the input, which the combiner contract forbids.
			return values[0]
		},
		Reduce: func(_ string, values []Value) Value { return values[0] },
	}
	if err := CheckJob(job, checkSamples()); !errors.Is(err, ErrAliasesInput) {
		t.Fatalf("err = %v, want ErrAliasesInput", err)
	}
}

// TestCheckJobDetectsRetainedArgs covers the contract the runtime's
// scratch slices rely on: the values slice handed to Combine and Reduce is
// overwritten for the next key, so neither may keep or return it.
func TestCheckJobDetectsRetainedArgs(t *testing.T) {
	// A "collect" combiner that flattens lists but hands back the argument
	// slice itself when nothing needs flattening.
	retainingCombiner := &Job{
		Name: "collect",
		Map: func(rec Record, emit Emit) error {
			for _, w := range strings.Fields(rec.(string)) {
				emit("k", w)
			}
			return nil
		},
		Combine: func(_ string, values []Value) Value {
			flat := values
			for i, v := range values {
				if list, ok := v.([]Value); ok {
					flat = append(append(append([]Value(nil), values[:i]...), list...), values[i+1:]...)
					break
				}
			}
			return flat // aliases the argument slice when no element was a list
		},
		Reduce: func(_ string, values []Value) Value { return len(values) },
	}
	if err := CheckJob(retainingCombiner, checkSamples()); !errors.Is(err, ErrRetainsArgs) {
		t.Fatalf("retaining combiner: err = %v, want ErrRetainsArgs", err)
	}

	// A lawful combiner under a reducer that returns its argument slice.
	retainingReducer := sumJob(1)
	retainingReducer.Reduce = func(_ string, values []Value) Value { return values }
	err := CheckJob(retainingReducer, checkSamples())
	if !errors.Is(err, ErrRetainsArgs) || !strings.Contains(err.Error(), "Reduce") {
		t.Fatalf("retaining reducer: err = %v, want ErrRetainsArgs naming Reduce", err)
	}

	// Copying the values out is fine.
	copying := sumJob(1)
	copying.Reduce = func(_ string, values []Value) Value { return append([]Value(nil), values...) }
	if err := CheckJob(copying, checkSamples()); err != nil {
		t.Fatalf("copying reducer rejected: %v", err)
	}
}
