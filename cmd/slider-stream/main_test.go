package main

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"slider"
)

// lines is n input lines over a small vocabulary.
func lines(n int) io.Reader {
	return strings.NewReader(strings.Repeat("lorem ipsum dolor sit amet\nconsectetur adipiscing elit lorem\n", n/2))
}

// TestRunPrintsWindows pipes lines through the driver in process: the
// initial window and every slide after it print their top words, and the
// periodic stats line names the backend the runtime resolved to.
func TestRunPrintsWindows(t *testing.T) {
	var out bytes.Buffer
	args := []string{"-split", "2", "-window", "4", "-slide", "2", "-top", "1", "-stats", "2"}
	if err := run(args, lines(16), &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	// 16 lines = 8 splits: the window of 4, then two slides of 2.
	for _, want := range []string{"window #1 [splits 0..4)", "window #3 [splits 4..8)", "lorem", "backend=daba"} {
		if !strings.Contains(got, want) {
			t.Fatalf("output lacks %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "window #4") {
		t.Fatalf("more windows than the input holds:\n%s", got)
	}
}

func TestRunShortInput(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-split", "2", "-window", "4", "-slide", "2"}, lines(2), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "before the first window filled") {
		t.Fatalf("output = %q", out.String())
	}
}

// TestRunBackendFlag: every advertised name parses; one the window cannot
// run on is refused by the runtime, an unknown one by the parser with the
// generated list of names, and append-only windows take -slide 0.
func TestRunBackendFlag(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // substring of the stats line; "" = ErrBadBackend
	}{
		{[]string{"-backend", "rotating"}, "backend=rotating"},
		{[]string{"-backend", "strawman"}, "backend=strawman"},
		{[]string{"-lateness", "2"}, "backend=fingertree"},
		{[]string{"-slide", "0"}, "backend=coalescing"},
		{[]string{"-backend", "folding"}, ""},
		{[]string{"-backend", "daba", "-lateness", "2"}, ""},
	} {
		var out bytes.Buffer
		args := append([]string{"-split", "2", "-window", "4", "-slide", "2", "-stats", "1"}, tc.args...)
		err := run(args, lines(16), &out)
		switch {
		case tc.want == "":
			if !errors.Is(err, slider.ErrBadBackend) {
				t.Errorf("%v: err = %v, want ErrBadBackend", tc.args, err)
			}
		case err != nil:
			t.Errorf("%v: %v", tc.args, err)
		case !strings.Contains(out.String(), tc.want):
			t.Errorf("%v: output lacks %q:\n%s", tc.args, tc.want, out.String())
		}
	}
	err := run([]string{"-backend", "btree"}, lines(2), io.Discard)
	if err == nil {
		t.Fatal("unknown backend accepted")
	}
	for _, k := range slider.Kinds() {
		if !strings.Contains(err.Error(), k.String()) {
			t.Fatalf("error %q does not list %v", err, k)
		}
	}
}

// TestRunRejectsBadFlags: the live-switch flag is gone with the feature,
// and a window the slide does not divide never starts.
func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-switch-policy", "p95:high=20ms"}, lines(2), io.Discard); err == nil {
		t.Fatal("-switch-policy accepted")
	}
	if err := run([]string{"-window", "5", "-slide", "2"}, lines(2), io.Discard); err == nil {
		t.Fatal("window not a multiple of the slide accepted")
	}
	if err := run([]string{"-workers", "127.0.0.1:1"}, lines(2), io.Discard); err == nil {
		t.Fatal("dead worker pool accepted")
	}
}
