package apps

import (
	"slices"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	"slider/internal/israce"
	"slider/internal/mapreduce"
	"slider/internal/workload"
)

// FuzzWords holds the scanner to strings.Fields: the same fields, in the
// same order, for any bytes.
func FuzzWords(f *testing.F) {
	for _, s := range []string{
		"", " ", "a", "  a  b\t\tc\n", "\t\nlead and trail \r\n",
		"a\vb\fc", "nul\x00inside \x00", "\x00",
		"a\u0085b", "a\u00a0b", "x\u2028y\u2029z", "\u3000full\u3000width\u3000",
		"\xff\xfe", "ab\xff cd", "trunc\xe2\x80", "\xe2\x80 \xe3", "\u200bzero-width is no space",
	} {
		f.Add(s)
	}
	// Around the eight-byte step, which starts on a field's second byte:
	// a field that ends at its seventh, eighth or ninth byte, or at the end
	// of the line; a space at its first and its last byte; U+3000 just
	// after a whole step; and every byte the step must stop at and find no
	// space in, inside a field.
	for _, s := range []string{
		"abcdefg z", "abcdefgh z", "abcdefghi z", "abcdefgh", "abcdefghi", "abcdefghijklmnopq r",
		"a bcdefghij", "abcdefgh ijklmnopq", "abcdefghi\u3000next", "abcdefghijklmnopq\u3000",
	} {
		f.Add(s)
	}
	inside := []byte{0x21, 0x7f, 0x80}
	for c := byte(0x00); c <= 0x1f; c++ {
		if c < 0x09 || c > 0x0d {
			inside = append(inside, c)
		}
	}
	for _, c := range inside {
		f.Add("abc" + string(c) + "defghijk lmn")
	}
	f.Fuzz(func(t *testing.T, s string) {
		var got []string
		words(s, func(w string) { got = append(got, w) })
		if want := strings.Fields(s); !slices.Equal(got, want) {
			t.Fatalf("words(%q) = %q, strings.Fields = %q", s, got, want)
		}
	})
}

// TestWordsAllocFree: a wordcount line job splits and emits without
// allocating — no slice of fields, no closure on the heap, and the count 1
// boxes without allocating.
func TestWordsAllocFree(t *testing.T) {
	if israce.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	job := WordCount(4)
	line := mapreduce.Record("the quick brown fox jumps over the lazy dog and runs away")
	if n := len(strings.Fields(line.(string))); n != 12 {
		t.Fatalf("the line has %d words, want 12", n)
	}
	drop := func(string, mapreduce.Value) {}
	allocs := testing.AllocsPerRun(100, func() {
		if err := job.Map(line, drop); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("WordCount's map allocates %.1f times per 12-word line, want 0", allocs)
	}
}

// fieldsJobs is every line job built on strings.Fields, keyed by job name:
// the reference TestLineJobsMatchFields holds the scanner's jobs to.
func fieldsJobs(partitions int) map[string]*mapreduce.Job {
	job := func(name string, mapLine func(line string, emit mapreduce.Emit)) *mapreduce.Job {
		return lineJob(name, partitions, mapLine)
	}
	return map[string]*mapreduce.Job{
		"wordcount": job("wordcount", func(line string, emit mapreduce.Emit) {
			for _, w := range strings.Fields(line) {
				emit(w, int64(1))
			}
		}),
		"stream-wordcount": job("stream-wordcount", func(line string, emit mapreduce.Emit) {
			for _, w := range strings.Fields(line) {
				if w = strings.Trim(w, ".,;:!?\"'()[]"); w != "" {
					emit(strings.ToLower(w), int64(1))
				}
			}
		}),
		"HCT": job("HCT", func(line string, emit mapreduce.Emit) {
			for _, w := range strings.Fields(line) {
				_, first := utf8.DecodeRuneInString(w)
				emit("len:"+strconv.Itoa(len(w)), int64(1))
				emit("first:"+w[:first], int64(1))
			}
		}),
		"Matrix": job("Matrix", func(line string, emit mapreduce.Emit) {
			words := strings.Fields(line)
			for i := range words {
				for j := i + 1; j < len(words) && j <= i+2; j++ {
					a, b := words[i], words[j]
					if a > b {
						a, b = b, a
					}
					emit(a+"|"+b, int64(1))
				}
			}
		}),
		"subStr": job("subStr", func(line string, emit mapreduce.Emit) {
			for _, w := range strings.Fields(line) {
				for i := 0; i+4 <= len(w); i++ {
					emit(w[i:i+4], int64(1))
				}
			}
		}),
	}
}

// TestLineJobsMatchFields: every line job computes, key by key, what the
// same job computes on strings.Fields, over generated text and over a
// corpus of Unicode spaces, punctuation and mixed case.
func TestLineJobsMatchFields(t *testing.T) {
	const partitions = 3
	text := workload.NewText(workload.TextConfig{Seed: 5, LinesPerSplit: 30, WordsPerLine: 12, Vocabulary: 300})
	corpus := mapreduce.Split{ID: "unicode", Records: []mapreduce.Record{
		"", "   ", "Hello, World! hello world.", "wait ... what !!",
		"\tTabs\tand\nnewlines\r\nmixed \v\f in",
		"no\u00a0break\u00a0space and\u0085next line\u2028separator",
		"\u3000Ideographic\u3000space\u3000", "(quoted) \"Words\" [bracketed]; 'single'",
		"ÄÖÜ äöü Straße STRASSE", "\xff\xfe bad \xe2\x80 bytes\x00nul",
		"a a a a a a", "abcdefgh abcdefgh ABCDEFGH",
	}}
	splits := append(text.Range(0, 4), corpus)
	ref := fieldsJobs(partitions)
	for _, job := range []*mapreduce.Job{
		WordCount(partitions), StreamWordCount(partitions), HCT(partitions), Matrix(partitions), SubStr(partitions),
	} {
		want, err := mapreduce.RunScratch(ref[job.Name], splits, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := runScratch(t, job, splits)
		if len(got) == 0 {
			t.Fatalf("%s: empty output", job.Name)
		}
		assertSameOutput(t, job.Name, got, want)
	}
}

// TestStreamWordCountSkipsPunctuation: a token of punctuation alone trims
// to nothing and is no word, so the empty string is never a key.
func TestStreamWordCountSkipsPunctuation(t *testing.T) {
	splits := []mapreduce.Split{{ID: "s0", Records: []mapreduce.Record{"wait ... what !!", "(Wait) WHAT?"}}}
	got := runScratch(t, StreamWordCount(2), splits)
	assertSameOutput(t, "stream-wordcount", got, mapreduce.Output{"wait": int64(2), "what": int64(2)})
}

// TestHCTKeysFirstRune: a word's initial character is its first rune, not
// its first byte — every key of HCT's output is valid UTF-8, and words that
// start with the same two-byte letter are counted under that letter.
func TestHCTKeysFirstRune(t *testing.T) {
	splits := []mapreduce.Split{{ID: "s0", Records: []mapreduce.Record{"élan été über Ñandú öl", "\xffbad ok"}}}
	got := runScratch(t, HCT(2), splits)
	for key := range got {
		if !utf8.ValidString(key) && key != "first:\xff" {
			t.Errorf("HCT key %q is not valid UTF-8", key)
		}
	}
	for key, want := range map[string]int64{"first:é": 2, "first:ü": 1, "first:Ñ": 1, "first:ö": 1, "first:\xff": 1, "first:o": 1} {
		if got[key] != want {
			t.Errorf("HCT[%q] = %v, want %d", key, got[key], want)
		}
	}
}

// TestLineJobsDeclareSum: every line job declares its int64 sum and its
// MapLine, and CheckJob holds each to both declarations on text and on the
// Unicode corpus.
func TestLineJobsDeclareSum(t *testing.T) {
	text := workload.NewText(workload.TextConfig{Seed: 9, LinesPerSplit: 20, WordsPerLine: 12, Vocabulary: 50})
	samples := append(text.Range(0, 2), mapreduce.Split{ID: "unicode", Records: []mapreduce.Record{
		"ÄÖÜ äöü Straße STRASSE Straße", "\u3000Ideographic\u3000space\u3000", "a a a b b b",
	}})
	for _, job := range []*mapreduce.Job{
		WordCount(3), StreamWordCount(3), HCT(3), Matrix(3), SubStr(3),
	} {
		if !job.SumInt64 {
			t.Errorf("%s does not declare SumInt64", job.Name)
		}
		if job.MapLine == nil {
			t.Errorf("%s does not declare MapLine", job.Name)
		}
		if err := mapreduce.CheckJob(job, samples); err != nil {
			t.Errorf("%s: %v", job.Name, err)
		}
	}
}
