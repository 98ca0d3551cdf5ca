//go:build !linux

package main

import (
	"errors"
	"time"
)

// processCPU needs Linux's per-process CPU-time clocks; the benchmark
// builds elsewhere but does not run.
func processCPU(pid int) (time.Duration, error) {
	return 0, errors.New("the benchmark's CPU clock needs Linux")
}
