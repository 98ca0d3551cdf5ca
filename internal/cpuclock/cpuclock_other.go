//go:build !linux

package cpuclock

import (
	"errors"
	"time"
)

// Process needs Linux's per-process CPU-time clocks.
func Process(pid int) (time.Duration, error) {
	return 0, errors.New("cpuclock: per-process CPU clocks need Linux")
}
