package cpuclock

import (
	"os"
	"runtime"
	"testing"
	"time"
)

// TestProcessAdvancesWithWorkNotWithSleep: the clock counts what the
// process burns — by its own pid as well as by pid 0 — and stands still
// while it sleeps.
func TestProcessAdvancesWithWorkNotWithSleep(t *testing.T) {
	if runtime.GOOS != "linux" {
		if _, err := Process(0); err == nil {
			t.Fatal("no error off Linux")
		}
		return
	}
	read := func(pid int) time.Duration {
		d, err := Process(pid)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	begin := read(0)
	for deadline := time.Now().Add(5 * time.Second); read(os.Getpid())-begin < 5*time.Millisecond; {
		if time.Now().After(deadline) {
			t.Fatalf("5 s of spinning advanced the clock by %v", read(0)-begin)
		}
	}
	begin = read(0)
	time.Sleep(50 * time.Millisecond)
	if slept := read(0) - begin; slept > 25*time.Millisecond {
		t.Errorf("50 ms of sleep advanced the clock by %v", slept)
	}
}
