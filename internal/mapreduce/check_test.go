package mapreduce

import (
	"errors"
	"math"
	"slices"
	"strconv"
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
		Commutative: true,
	}
	if err := CheckJob(job, checkSamples()); err != nil {
		t.Fatalf("float sum rejected: %v", err)
	}
}

// TestCheckJobToleratesNonFiniteFloats: a float sum is as lawful with an
// infinity or a NaN among its values as without — every order of adding
// them gives the same infinity, or NaN — and the equivalence it is held
// to tells an infinity from anything else.
func TestCheckJobToleratesNonFiniteFloats(t *testing.T) {
	for _, special := range []string{"+Inf", "-Inf", "NaN"} {
		job := &Job{
			Name: "fsum",
			Map: func(rec Record, emit Emit) error {
				for _, w := range strings.Fields(rec.(string)) {
					v, err := strconv.ParseFloat(w, 64)
					if err != nil {
						return err
					}
					emit("k", v)
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
			Commutative: true,
		}
		samples := []Split{{ID: "f", Records: []Record{special + " 0.1 0.2", "0.3 1e300"}}}
		if err := CheckJob(job, samples); err != nil {
			t.Errorf("float sum with %s rejected: %v", special, err)
		}
	}
	for _, pair := range [][2]float64{
		{math.Inf(1), math.MaxFloat64}, {math.Inf(1), math.Inf(-1)}, {math.Inf(-1), 0}, {math.NaN(), 1}, {math.NaN(), math.Inf(1)},
	} {
		if ValuesEquivalent(pair[0], pair[1]) || ValuesEquivalent(pair[1], pair[0]) {
			t.Errorf("%v and %v are equivalent", pair[0], pair[1])
		}
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
	copying.Reduce = func(key string, values []Value) Value {
		return copying.Combine(key, append([]Value(nil), values...))
	}
	if err := CheckJob(copying, checkSamples()); err != nil {
		t.Fatalf("copying reducer rejected: %v", err)
	}
}

// TestCheckJobHoldsReduceToTheFold: a declared Reduce must give for a key's
// values what it gives for their Combine — a lower of the fold, like a mean —
// since the runtime reduces a window from one, two or more roots; a job
// that declares none reduces by the fold and meets it by construction.
func TestCheckJobHoldsReduceToTheFold(t *testing.T) {
	undeclared := sumJob(1)
	undeclared.Reduce = nil
	half := sumJob(1)
	half.Reduce = func(key string, values []Value) Value {
		return float64(half.Combine(key, values).(int64)) / 2
	}
	for _, job := range []*Job{undeclared, half} {
		if err := CheckJob(job, checkSamples()); err != nil {
			t.Fatalf("lawful Reduce rejected: %v", err)
		}
	}
	for name, reduce := range map[string]func(string, []Value) Value{
		"first value": func(_ string, values []Value) Value { return values[0] },
		"count":       func(_ string, values []Value) Value { return int64(len(values)) },
		"last two": func(_ string, values []Value) Value {
			return values[len(values)-1].(int64) + values[max(0, len(values)-2)].(int64)
		},
	} {
		job := sumJob(1)
		job.Reduce = reduce
		if err := CheckJob(job, checkSamples()); !errors.Is(err, ErrReduceNotFold) {
			t.Fatalf("%s: err = %v, want ErrReduceNotFold", name, err)
		}
	}
}

// TestCheckJobComparesFloatsInsideValues: the float tolerance reaches floats
// inside a struct behind a pointer (an accumulator), while every other field
// is compared exactly.
func TestCheckJobComparesFloatsInsideValues(t *testing.T) {
	type acc struct {
		Sum   []float64
		Count int64
	}
	a := &acc{Sum: []float64{0.1 + 0.2, 1}, Count: 3}
	if !ValuesEquivalent(a, &acc{Sum: []float64{0.3, 1}, Count: 3}) {
		t.Fatal("sums a rounding apart are not equivalent")
	}
	for _, b := range []*acc{{Sum: []float64{0.3, 1}, Count: 4}, {Sum: []float64{0.31, 1}, Count: 3}, {Sum: []float64{0.3}, Count: 3}, nil} {
		if ValuesEquivalent(a, b) {
			t.Fatalf("%v and %v are equivalent", a, b)
		}
	}
}

// TestCheckJobAcceptsDeclaredSum: a job whose Combine is the wrapping int64
// sum passes with SumInt64 declared.
func TestCheckJobAcceptsDeclaredSum(t *testing.T) {
	job := sumJob(2)
	job.SumInt64 = true
	if err := CheckJob(job, checkSamples()); err != nil {
		t.Fatal(err)
	}
}

// TestCheckJobRefusesDeclaredMax: max is associative and commutative, and
// equals the sum wherever every value is 1 — as on the samples — but not on
// the generated lists.
func TestCheckJobRefusesDeclaredMax(t *testing.T) {
	job := sumJob(2)
	job.SumInt64 = true
	job.Combine = func(_ string, values []Value) Value {
		m := values[0].(int64)
		for _, v := range values[1:] {
			m = max(m, v.(int64))
		}
		return m
	}
	if err := CheckJob(job, checkSamples()); !errors.Is(err, ErrNotSum) {
		t.Fatalf("err = %v, want ErrNotSum", err)
	}
}

// TestCheckJobRefusesDeclaredFloats: a float sum declared as an int64 sum is
// refused on its first sample value, before its Combine meets an int64.
func TestCheckJobRefusesDeclaredFloats(t *testing.T) {
	job := sumJob(2)
	job.SumInt64 = true
	job.Map = func(rec Record, emit Emit) error {
		for _, w := range strings.Fields(rec.(string)) {
			emit(w, 1.0)
		}
		return nil
	}
	job.Combine = func(_ string, values []Value) Value {
		var sum float64
		for _, v := range values {
			sum += v.(float64)
		}
		return sum
	}
	err := CheckJob(job, checkSamples())
	if !errors.Is(err, ErrNotSum) || !strings.Contains(err.Error(), "float64") {
		t.Fatalf("err = %v, want ErrNotSum naming float64", err)
	}
}

// TestCheckJobRefusesDeclaredNonWrappingSums: a sum that saturates instead
// of wrapping, one that hands back another integer type, and one that
// panics on values it was not shown are no wrapping int64 sum.
func TestCheckJobRefusesDeclaredNonWrappingSums(t *testing.T) {
	for name, combine := range map[string]func(string, []Value) Value{
		"saturating": func(_ string, values []Value) Value {
			var sum int64
			for _, v := range values {
				n := v.(int64)
				switch {
				case n > 0 && sum > math.MaxInt64-n:
					sum = math.MaxInt64
				case n < 0 && sum < math.MinInt64-n:
					sum = math.MinInt64
				default:
					sum += n
				}
			}
			return sum
		},
		"int": func(_ string, values []Value) Value {
			var sum int
			for _, v := range values {
				sum += int(v.(int64))
			}
			return sum
		},
		"positive only": func(_ string, values []Value) Value {
			var sum int64
			for _, v := range values {
				if v.(int64) < 0 {
					panic("negative count")
				}
				sum += v.(int64)
			}
			return sum
		},
	} {
		job := sumJob(2)
		job.SumInt64 = true
		job.Combine = combine
		if err := CheckJob(job, checkSamples()); !errors.Is(err, ErrNotSum) {
			t.Fatalf("%s: err = %v, want ErrNotSum", name, err)
		}
	}
}

// TestCheckJobHoldsMapLineToMap: a MapLine that maps a line as Map does
// passes, and three that lie are refused as ErrMapLine — one drops the
// line's last word, one emits the words in reverse, one counts each word
// twice.
func TestCheckJobHoldsMapLineToMap(t *testing.T) {
	fields := func(line string, emit Emit, value int64, reverse bool, drop int) {
		ws := strings.Fields(line)
		ws = ws[:len(ws)-drop]
		if reverse {
			slices.Reverse(ws)
		}
		for _, w := range ws {
			emit(w, value)
		}
	}
	honest := sumJob(2)
	honest.MapLine = func(line string, emit Emit) error {
		fields(line, emit, 1, false, 0)
		return nil
	}
	if err := CheckJob(honest, checkSamples()); err != nil {
		t.Fatalf("an honest MapLine is refused: %v", err)
	}
	for name, mapLine := range map[string]func(string, Emit) error{
		"drops the last word": func(line string, emit Emit) error {
			fields(line, emit, 1, false, 1)
			return nil
		},
		"reorders": func(line string, emit Emit) error {
			fields(line, emit, 1, true, 0)
			return nil
		},
		"changes a value": func(line string, emit Emit) error {
			fields(line, emit, 2, false, 0)
			return nil
		},
	} {
		job := sumJob(2)
		job.MapLine = mapLine
		if err := CheckJob(job, checkSamples()); !errors.Is(err, ErrMapLine) {
			t.Errorf("a MapLine that %s: err = %v, want ErrMapLine", name, err)
		}
	}
}
