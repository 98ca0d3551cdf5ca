package apps

import (
	"slices"
	"strconv"
	"strings"
	"testing"

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
				emit("len:"+strconv.Itoa(len(w)), int64(1))
				emit("first:"+w[:1], int64(1))
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
