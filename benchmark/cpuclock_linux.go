package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// processCPU returns the CPU time process pid has consumed so far, user
// and system, over all its threads; pid 0 is this process. It reads the
// process's CPU-time clock (clock_getcpuclockid(3)), which counts in
// nanoseconds and does not advance while the process waits for a CPU.
func processCPU(pid int) (time.Duration, error) {
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
