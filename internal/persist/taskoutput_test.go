package persist

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"slider/internal/apps"
	"slider/internal/israce"
	"slider/internal/mapreduce"
	"slider/internal/workload"
)

// framesOfTask writes split's map output behind prefix both ways: from the
// task's sorted index (AppendTaskOutput in WriteMapTask's writer), and as
// the reference, AppendMapResult of RunMapTask's result, whose partition
// sizes are first held to a PayloadBytes walk of its payloads — the cut
// sizes an entry by the one rule, valueBytes, that the walk applies — and
// to the sizes its frame decodes with (decodedSizesHold). The view's cost
// is set to the result's, the one field the two may differ in. A task that
// fails must fail alike both ways and never reach the writer; an encoding
// that fails must fail alike and leave the buffer as it was. err is the
// failure, if any.
//
// A job that declares MapLine, over a split of strings, is written a third
// way, as a worker writes a text split: the split framed (AppendSplit),
// decoded as lines (DecodeSplitLines) and mapped by WriteLineTask. That
// frame must be got's, byte for byte, or fail alike.
func framesOfTask(t testing.TB, job *mapreduce.Job, split mapreduce.Split, prefix string) (got, want []byte, err error) {
	t.Helper()
	res, runErr := mapreduce.RunMapTask(job, split)
	var encErr error
	if runErr == nil {
		for p, part := range res.Parts {
			if walk := mapreduce.PayloadBytes(part); res.PartBytes[p] != walk {
				t.Fatalf("%s: partition %d carries %d bytes, a walk of its payload says %d", split.ID, p, res.PartBytes[p], walk)
			}
		}
		if want, encErr = AppendMapResult([]byte(prefix), res); encErr == nil {
			decodedSizesHold(t, want[len(prefix):], res.PartBytes)
		}
	}
	got = []byte(prefix)
	wrote := false
	writer := func(got *[]byte, wrote *bool) func(*mapreduce.TaskOutput) error {
		return func(out *mapreduce.TaskOutput) (err error) {
			*wrote = true
			out.Cost = res.Cost
			*got, err = AppendTaskOutput(*got, out)
			return err
		}
	}
	writeErr := mapreduce.WriteMapTask(job, split, writer(&got, &wrote))
	if lines, ok := splitLines(t, split); ok && job.MapLine != nil {
		byLines, wroteLines := []byte(prefix), false
		linesErr := mapreduce.WriteLineTask(job, split.ID, lines, writer(&byLines, &wroteLines))
		if fmt.Sprint(linesErr) != fmt.Sprint(writeErr) || wroteLines != wrote || !bytes.Equal(byLines, got) {
			t.Fatalf("%s: mapped as lines the task fails with %v and writes %d bytes; as records with %v and %d bytes",
				split.ID, linesErr, len(byLines), writeErr, len(got))
		}
	}
	switch {
	case runErr != nil:
		if wrote || fmt.Sprint(writeErr) != fmt.Sprint(runErr) {
			t.Fatalf("%s: RunMapTask failed with %v; WriteMapTask with %v, having called its writer: %v", split.ID, runErr, writeErr, wrote)
		}
		return got, nil, runErr
	case encErr != nil:
		if fmt.Sprint(writeErr) != fmt.Sprint(encErr) || string(got) != prefix {
			t.Fatalf("%s: AppendMapResult failed with %v; the writer with %v, leaving %d bytes behind the prefix", split.ID, encErr, writeErr, len(got)-len(prefix))
		}
		return got, nil, encErr
	case writeErr != nil:
		t.Fatalf("%s: the reference wrote its frame and the writer failed: %v", split.ID, writeErr)
	}
	return got, want, nil
}

// splitLines is what a worker maps when split arrives as text: the split
// framed and decoded as lines. ok is false when a record is no string.
func splitLines(t testing.TB, split mapreduce.Split) (lines []string, ok bool) {
	frame, err := EncodeSplit(split)
	if err != nil {
		return nil, false // a record gob refuses: no frame to decode
	}
	id, lines, err := DecodeSplitLines(frame, nil)
	switch {
	case errors.Is(err, ErrNotLines):
		return nil, false
	case err != nil || id != split.ID:
		t.Fatalf("%s: a text split decodes as lines to ID %q, err %v", split.ID, id, err)
	}
	return lines, true
}

// unregistered is a value gob refuses behind an interface: nobody
// registered it.
type unregistered struct{ N int }

// tally is a count that reports its own size (mapreduce.Sizer), one that
// moves with the count: a partition's size is the sum of its values' sizes,
// not their number times one size.
type tally int64

func (t tally) SizeBytes() int64 { return 3 + int64(t)%7 }

func sumTallies(_ string, values []mapreduce.Value) mapreduce.Value {
	var n tally
	for _, v := range values {
		n += v.(tally)
	}
	return n
}

// entriesJob emits the entries a record lists; a key's values are combined
// by combine, and its SumInt64 is declared.
func entriesJob(partitions int, declared bool, combine func(string, []mapreduce.Value) mapreduce.Value) *mapreduce.Job {
	return &mapreduce.Job{
		Name:       "entries",
		Partitions: partitions,
		Map: func(rec mapreduce.Record, emit mapreduce.Emit) error {
			for _, e := range rec.([]mapreduce.Entry) {
				emit(e.Key, e.Value)
			}
			return nil
		},
		Combine:  combine,
		Reduce:   combine,
		SumInt64: declared,
	}
}

func sumValues(_ string, values []mapreduce.Value) mapreduce.Value {
	var n int64
	for _, v := range values {
		n += v.(int64)
	}
	return n
}

// lastValue keeps a key's last value: associative, and any type will do.
func lastValue(_ string, values []mapreduce.Value) mapreduce.Value { return values[len(values)-1] }

// entriesSplit emits every key count times, values drawn by value, the
// emits shuffled and cut into records of up to seven.
func entriesSplit(rng *rand.Rand, id string, keys []string, count int, value func(i int) mapreduce.Value) mapreduce.Split {
	var emits []mapreduce.Entry
	for _, k := range keys {
		for i := 0; i < count; i++ {
			emits = append(emits, mapreduce.Entry{Key: k, Value: value(i)})
		}
	}
	rng.Shuffle(len(emits), func(i, j int) { emits[i], emits[j] = emits[j], emits[i] })
	split := mapreduce.Split{ID: id}
	for len(emits) > 0 {
		n := min(1+rng.Intn(7), len(emits))
		split.Records = append(split.Records, emits[:n:n])
		emits = emits[n:]
	}
	return split
}

// TestTaskOutputFrameMatchesMapResult: the frame a worker writes from the
// task's sorted index is, byte for byte and behind what its buffer already
// holds, the frame AppendMapResult writes for RunMapTask's result — for
// declared sums and undeclared jobs alike, over an empty split, one record,
// keys on both sides of the eight-byte prefix and keys sharing it,
// partitions below and above the radix sort's cutover, values that size
// themselves (a Sizer), every native value type and a gob-escaped struct
// (K-Means); and a declared task that emits another value fails as
// RunMapTask does, writing nothing.
func TestTaskOutputFrameMatchesMapResult(t *testing.T) {
	RegisterType(&apps.CentroidAcc{})
	RegisterType(tally(0))
	rng := rand.New(rand.NewSource(44))
	short := []string{"", "a", "ab", "abc", "abcd", "abcdefg", "\x00", "\xff\xfe"}
	long := []string{"abcdefgh", "abcdefgh\x00", "abcdefghi", "abcdefghij", "abcdefgi", "\xff\xff\xff\xff\xff\xff\xff\xff\xff"}
	var shared, many []string
	for i := 0; i < 40; i++ {
		shared = append(shared, fmt.Sprintf("prefix-0%d", i))
	}
	for i := 0; i < 1000; i++ {
		many = append(many, fmt.Sprintf("w%d", i*7919%100000))
	}
	big := func(i int) mapreduce.Value { return int64(i)<<40 + 300 } // totals no small-int box holds
	one := func(int) mapreduce.Value { return int64(1) }
	mixed := func(i int) mapreduce.Value {
		return []mapreduce.Value{int64(i), int(-i), uint64(i), float64(i) / 3, i%2 == 0, fmt.Sprint(i), []byte{byte(i)}, nil, []float64{float64(i)}, map[string]int64{"n": int64(i)}}[i%10]
	}
	tallies := func(i int) mapreduce.Value { return tally(i*i + 1) }
	points := mapreduce.Split{ID: "points"}
	for i := 0; i < 500; i++ {
		points.Records = append(points.Records, []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()})
	}
	type tcase struct {
		label string
		job   *mapreduce.Job
		split mapreduce.Split
		fails bool // the task or its encoding fails
	}
	var cases []tcase
	for _, declared := range []bool{false, true} {
		name := fmt.Sprintf("declared %v", declared)
		ints := func(label string, partitions int, split mapreduce.Split) {
			cases = append(cases, tcase{label: name + ", " + label, job: entriesJob(partitions, declared, sumValues), split: split})
		}
		ints("empty split", 3, mapreduce.Split{ID: "empty"})
		ints("a record that emits nothing", 2, mapreduce.Split{ID: "silent", Records: []mapreduce.Record{[]mapreduce.Entry(nil)}})
		ints("one record", 4, mapreduce.Split{ID: "one", Records: []mapreduce.Record{[]mapreduce.Entry{{Key: "only", Value: int64(7)}}}})
		ints("short keys", 3, entriesSplit(rng, "short", short, 3, big))
		ints("long keys", 3, entriesSplit(rng, "long", long, 2, big))
		ints("shared prefix", 2, entriesSplit(rng, "shared", shared, 5, one))
		ints("above the radix cutover", 2, entriesSplit(rng, "radix", many, 2, big))
		ints("below the radix cutover", 16, entriesSplit(rng, "no-radix", many, 2, one))
	}
	cases = append(cases,
		tcase{label: "every value type", job: entriesJob(3, false, lastValue), split: entriesSplit(rng, "mixed", append(append(short, long...), shared...), 3, mixed)},
		tcase{label: "Sizer values", job: entriesJob(5, false, sumTallies), split: entriesSplit(rng, "sized", append(short, long...), 4, tallies)},
		tcase{label: "Sizer values, above the radix cutover", job: entriesJob(2, false, sumTallies), split: entriesSplit(rng, "sized-radix", many, 3, tallies)},
		tcase{label: "K-Means", job: apps.KMeans(3, 16, 4, 1), split: points},
		tcase{label: "declared, a float emitted", job: entriesJob(3, true, sumValues), fails: true, split: mapreduce.Split{ID: "not-a-sum", Records: []mapreduce.Record{
			[]mapreduce.Entry{{Key: "a", Value: int64(1)}, {Key: "b", Value: 2.5}, {Key: "a", Value: int64(2)}},
		}}},
		tcase{label: "a value gob refuses", job: entriesJob(2, false, lastValue), fails: true,
			split: entriesSplit(rng, "unencodable", short, 1, func(int) mapreduce.Value { return unregistered{1} })},
	)
	// Text splits, which a job that declares MapLine has mapped as lines too
	// (framesOfTask): every line job of apps over a range of four splits,
	// an empty split, an empty line, an undeclared job emitting every value
	// type, a MapLine that fails, and a record that is no string.
	text := workload.NewText(workload.TextConfig{Seed: 49, LinesPerSplit: 50, WordsPerLine: 12, Vocabulary: 2000, ZipfS: 1.2})
	textRange := text.Split(0)
	for i := 1; i < 4; i++ {
		textRange.Records = append(textRange.Records, text.Split(i).Records...)
	}
	for _, job := range []*mapreduce.Job{apps.WordCount(4), apps.StreamWordCount(3), apps.HCT(2), apps.Matrix(5), apps.SubStr(4)} {
		cases = append(cases, tcase{label: job.Name + " over lines", job: job, split: textRange})
	}
	failing := wordsJob(false)
	failing.Map = func(rec mapreduce.Record, emit mapreduce.Emit) error { return failing.MapLine(rec.(string), emit) }
	failing.MapLine = func(line string, emit mapreduce.Emit) error {
		if strings.Contains(line, "stop") {
			return errors.New("a line says stop")
		}
		return fuzzWords(false)(line, emit)
	}
	cases = append(cases,
		tcase{label: "an empty text split", job: apps.WordCount(3), split: mapreduce.Split{ID: "no-lines", Records: []mapreduce.Record{}}},
		tcase{label: "an empty line", job: apps.WordCount(3), split: mapreduce.Split{ID: "blank", Records: []mapreduce.Record{""}}},
		tcase{label: "undeclared, every value type, over lines", job: wordsJob(false), split: mapreduce.Split{ID: "typed", Records: []mapreduce.Record{
			"ab0 ab1 ab2 ab3 ab4 ab5 ab6 ab7", "abcdefghijklmnopqrstuvwxyz0 abcdefghijklmnopqrstuvwxyz1", "\x00\x00 \xff\xff",
		}}},
		tcase{label: "declared, over lines", job: wordsJob(true), split: textRange},
		tcase{label: "a MapLine that fails", job: failing, fails: true, split: mapreduce.Split{ID: "stops", Records: []mapreduce.Record{"go on", "now stop", "never read"}}},
		tcase{label: "a record that is no string", job: apps.WordCount(2), fails: true, split: mapreduce.Split{ID: "not-text", Records: []mapreduce.Record{"a line", 7}}},
	)
	for _, c := range cases {
		got, want, err := framesOfTask(t, c.job, c.split, "behind a message")
		if (err != nil) != c.fails {
			t.Fatalf("%s: err = %v, want a failure: %v", c.label, err, c.fails)
		}
		if err != nil {
			continue
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: the frame written from the task's view differs from AppendMapResult's (%d and %d bytes)", c.label, len(got), len(want))
		}
	}
}

// TestTaskOutputAllocs pins what a worker's map task costs besides its
// Map: a warm declared task — four partitions, written into a warm buffer —
// allocates the emit closure and the variable that kills it, and nothing
// per pair, per key or per partition: the same at ten emits as at a hundred
// thousand. (RunMapTask's payloads, their key arena and the result's
// slices are what it does not build.)
func TestTaskOutputAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("the race detector drops pooled scratch at random")
	}
	keys := make([]string, 20000)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%05d", i*7919%len(keys))
	}
	job := &mapreduce.Job{
		Name:       "no-allocs",
		Partitions: 4,
		Map: func(rec mapreduce.Record, emit mapreduce.Emit) error {
			for i, n := 0, rec.(int); i < n; i++ {
				emit(keys[(i*31)%len(keys)%(n/3+1)], int64(i&0xff)) // a box of a byte allocates nothing
			}
			return nil
		},
		Combine:  sumValues,
		Reduce:   sumValues,
		SumInt64: true,
	}
	var buf []byte
	write := func(split mapreduce.Split) {
		err := mapreduce.WriteMapTask(job, split, func(out *mapreduce.TaskOutput) (err error) {
			buf, err = AppendTaskOutput(buf[:0], out)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	var first float64
	for i, pairs := range []int{10, 1000, 100000} {
		split := mapreduce.Split{ID: "range", Records: []mapreduce.Record{pairs}}
		write(split) // grows the scratch and the buffer to this size
		allocs := testing.AllocsPerRun(20, func() { write(split) })
		t.Logf("%d pairs: %.1f allocs", pairs, allocs)
		if i == 0 {
			first = allocs
		}
		if allocs != first || allocs > 2 {
			t.Errorf("%d emitted pairs: a warm task writing its frame makes %.1f allocations, at 10 pairs %.1f; want the same, at most 2",
				pairs, allocs, first)
		}
	}
}

// fuzzWords maps a line as FuzzTaskOutput's jobs do: its space-separated
// words are emitted under the word less its last byte — keys that repeat,
// nest as prefixes and include the empty key — with a value of any type the
// flat body carries drawn from the word (undeclared), or as an int64 that
// wraps when summed (declared).
func fuzzWords(declared bool) func(line string, emit mapreduce.Emit) error {
	return func(line string, emit mapreduce.Emit) error {
		for _, w := range strings.Split(line, " ") {
			switch {
			case w == "":
			case declared:
				emit(w[:len(w)-1], int64(w[len(w)-1])<<56)
			default:
				off := 0
				emit(w[:len(w)-1], valueFromBytes([]byte(w), &off))
			}
		}
		return nil
	}
}

// wordsJob maps lines by fuzzWords, and declares it as its MapLine.
func wordsJob(declared bool) *mapreduce.Job {
	mapLine := fuzzWords(declared)
	job := &mapreduce.Job{
		Name:    "fuzz",
		Map:     func(rec mapreduce.Record, emit mapreduce.Emit) error { return mapLine(rec.(string), emit) },
		MapLine: mapLine,
		Combine: lastValue,
		Reduce:  lastValue,
	}
	if declared {
		job.Name, job.Combine, job.Reduce, job.SumInt64 = "fuzz-sum", sumValues, sumValues, true
	}
	return job
}

// FuzzTaskOutput holds AppendTaskOutput to AppendMapResult(RunMapTask) over
// arbitrary lines, as FuzzMapTask holds RunMapTask to its reference, on both
// of a worker's routes (framesOfTask): the records mapped by Map, and the
// split framed, decoded as lines and mapped by MapLine. The jobs are
// wordsJob's, declared and not.
func FuzzTaskOutput(f *testing.F) {
	f.Add([]byte("a ab abc\nab ab\n"), uint8(4))
	f.Add([]byte("word-0001x word-0001y word-0002x\n\xff\xffz \xffz z"), uint8(3))
	f.Add([]byte("ab\x00x ab\x00\x00x abx\nabcdefghi abcdefgh\x00 abcdefghij"), uint8(7))
	var radix bytes.Buffer
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&radix, "k%03d%c ", i*37%400, 'a'+byte(i%26))
	}
	f.Add(radix.Bytes(), uint8(1))
	f.Add([]byte{}, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, partitions uint8) {
		split := mapreduce.Split{ID: "fuzz"}
		for _, line := range strings.Split(string(data), "\n") {
			split.Records = append(split.Records, line)
		}
		for _, declared := range []bool{false, true} {
			job := wordsJob(declared)
			job.Partitions = int(partitions % 9)
			got, want, err := framesOfTask(t, job, split, "")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: the frame written from the task's view differs from AppendMapResult's", job.Name)
			}
		}
		// Whatever the bytes, a frame that decodes is sized by its payloads.
		frame, err := appendFramed(nil, kindMapResult, "map result", func(out []byte) ([]byte, error) { return append(out, data...), nil })
		if err != nil {
			t.Fatal(err)
		}
		decodedSizesHold(t, frame, nil)
	})
}

// decodedSizesHold fails the test unless a map-result frame that decodes
// has each partition sized as a PayloadBytes walk of it, and Bytes their
// sum; and, given the sizes the task measured as it cut its payloads
// (local), those sizes too. A frame that does not decode holds nothing.
func decodedSizesHold(t testing.TB, frame []byte, local []int64) {
	t.Helper()
	r, err := DecodeMapResult(frame)
	if err != nil {
		return
	}
	if local != nil && !slices.Equal(r.PartBytes, local) {
		t.Fatalf("%s: decoded with partitions of %v bytes, the task cut them at %v", r.SplitID, r.PartBytes, local)
	}
	if len(r.PartBytes) != len(r.Parts) {
		t.Fatalf("%s: %d sizes for %d partitions", r.SplitID, len(r.PartBytes), len(r.Parts))
	}
	var sum int64
	for p, part := range r.Parts {
		if walk := mapreduce.PayloadBytes(part); r.PartBytes[p] != walk {
			t.Fatalf("%s: partition %d decoded with %d bytes, a walk of its payload says %d", r.SplitID, p, r.PartBytes[p], walk)
		}
		sum += r.PartBytes[p]
	}
	if r.Bytes() != sum {
		t.Fatalf("%s: Bytes is %d, its partitions sum to %d", r.SplitID, r.Bytes(), sum)
	}
}

// BenchmarkMapTaskFrame is a worker's map task over the benchmark's
// wordcount range — 800 twelve-word lines drawn Zipf(1.2) from 20 000 words,
// four partitions, the declared sum the workers serve — framed into a warm
// buffer two ways: "payloads" cuts RunMapTask's payloads and encodes them
// (AppendMapResult), "view" writes the frame from the task's sorted index
// (AppendTaskOutput), as dist's workers do.
func BenchmarkMapTaskFrame(b *testing.B) {
	job := apps.WordCount(4)
	text := workload.NewText(workload.TextConfig{Seed: 7, LinesPerSplit: 200, WordsPerLine: 12, Vocabulary: 20000, ZipfS: 1.2})
	splits := make([]mapreduce.Split, 16)
	for i := range splits {
		splits[i] = text.Split(4 * i)
		for j := 1; j < 4; j++ {
			splits[i].Records = append(splits[i].Records, text.Split(4*i+j).Records...)
		}
	}
	var buf []byte
	b.Run("payloads", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := mapreduce.RunMapTask(job, splits[i%len(splits)])
			if err != nil {
				b.Fatal(err)
			}
			if buf, err = AppendMapResult(buf[:0], res); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("view", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			err := mapreduce.WriteMapTask(job, splits[i%len(splits)], func(out *mapreduce.TaskOutput) (err error) {
				buf, err = AppendTaskOutput(buf[:0], out)
				return err
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}
