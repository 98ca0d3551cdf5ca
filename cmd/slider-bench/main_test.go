package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSelectedExperiment(t *testing.T) {
	out := filepath.Join(t.TempDir(), "res.txt")
	if err := run([]string{"-scale", "quick", "-exp", "fig12", "-out", out}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "Figure 12") {
		t.Fatalf("output missing experiment:\n%s", data)
	}
}

func TestRunJSONRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick JSON run")
	}
	jsonPath := filepath.Join(t.TempDir(), "res.json")
	out := filepath.Join(t.TempDir(), "res.txt")
	if err := run([]string{"-scale", "quick", "-exp", "fig12", "-out", out, "-json", jsonPath}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if decoded["scale"] != "quick" {
		t.Fatalf("scale = %v", decoded["scale"])
	}
}

func TestRunRejectsBadScale(t *testing.T) {
	if err := run([]string{"-scale", "huge"}); err == nil {
		t.Fatal("bad scale accepted")
	}
}

// TestRunRejectsUnknownExperiment: a name that is not an experiment — a
// typo, or one that has been retired — fails the run and lists the valid
// names, instead of running nothing and succeeding.
func TestRunRejectsUnknownExperiment(t *testing.T) {
	out := filepath.Join(t.TempDir(), "res.txt")
	for _, exp := range []string{"bogus", "fig12,backends"} {
		err := run([]string{"-scale", "quick", "-exp", exp, "-out", out})
		if err == nil {
			t.Fatalf("-exp %s accepted", exp)
		}
		if !strings.Contains(err.Error(), "fig12") || !strings.Contains(err.Error(), "ablation") {
			t.Fatalf("-exp %s: error does not list the experiments: %v", exp, err)
		}
	}
}
