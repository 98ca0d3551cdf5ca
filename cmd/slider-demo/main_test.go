package main

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"slider"
)

func TestRunSmallWindow(t *testing.T) {
	if err := run([]string{"-mode", "F", "-window", "4", "-delta", "2", "-slides", "1"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunAppendWithSplitProcessing(t *testing.T) {
	if err := run([]string{"-mode", "A", "-window", "3", "-delta", "1", "-slides", "1", "-split"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunVariable(t *testing.T) {
	if err := run([]string{"-mode", "V", "-window", "4", "-delta", "1", "-slides", "1"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-mode", "Z"}); err == nil {
		t.Fatal("bad mode accepted")
	}
	if err := run([]string{"-mode", "F", "-window", "5", "-delta", "2"}); err == nil {
		t.Fatal("non-divisible fixed window accepted")
	}
	if err := run([]string{"-workers", "127.0.0.1:1"}); err == nil {
		t.Fatal("dead worker pool accepted")
	}
}

// TestEveryAdvertisedBackend runs every name the -backend flag advertises
// in every mode: a pair the resolution matrix allows runs one slide (run
// checks it against recomputation from scratch), any other fails with
// ErrBadBackend — no name is advertised that nothing can construct.
func TestEveryAdvertisedBackend(t *testing.T) {
	legal := map[string][]slider.Backend{
		"A": {slider.BackendCoalescing, slider.BackendStrawman},
		"F": {slider.BackendDaba, slider.BackendRotating, slider.BackendFingerTree, slider.BackendStrawman},
		"V": {slider.BackendFolding, slider.BackendRandomizedFolding, slider.BackendStrawman},
	}
	for mode, allowed := range legal {
		for _, backend := range slider.Kinds() {
			err := run([]string{"-mode", mode, "-backend", backend.String(), "-window", "4", "-delta", "2", "-slides", "1"})
			if slices.Contains(allowed, backend) {
				if err != nil {
					t.Errorf("-mode %s -backend %v: %v", mode, backend, err)
				}
			} else if !errors.Is(err, slider.ErrBadBackend) {
				t.Errorf("-mode %s -backend %v: err = %v, want ErrBadBackend", mode, backend, err)
			}
		}
	}
	if err := run([]string{"-backend", "btree"}); err == nil || !strings.Contains(err.Error(), slider.BackendFingerTree.String()) {
		t.Errorf("unknown backend: err = %v, want the list of names", err)
	}
}
