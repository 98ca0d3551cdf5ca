// Package cpuclock reads per-process CPU-time clocks: what a process has
// consumed, not what the wall says has passed. On a shared host the two
// differ by whatever the hypervisor and the neighbours take, which is why
// timing tests that must hold a few-percent bound measure on this clock.
// (benchmark/ carries its own copy of this function; it is not to be
// edited while it anchors the benchmark's history.)
package cpuclock

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// Process returns the CPU time process pid has consumed so far, user and
// system, over all its threads; pid 0 is this process. It reads the
// process's CPU-time clock (clock_getcpuclockid(3)), which counts in
// nanoseconds and does not advance while the process waits for a CPU.
func Process(pid int) (time.Duration, error) {
	const cpuclockSched = 2 // also CLOCK_PROCESS_CPUTIME_ID
	id := cpuclockSched
	if pid != 0 {
		id = ^pid<<3 | cpuclockSched
	}
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(id), uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("CPU clock of process %d: %w", pid, errno)
	}
	return time.Duration(ts.Nano()), nil
}
