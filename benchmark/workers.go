package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// workers is a set of running map workers.
type workers struct {
	addrs []string
	pids  []int        // of workers that are processes of their own, for the benchmark's clock
	died  <-chan error // receives when a worker ends before stop
	stop  func()       // ends every worker and waits for it; idempotent
}

// spawnFunc starts n workers. The benchmark starts cmd/slider-worker child
// processes; the tier-1 test starts dist.Worker values in-process.
type spawnFunc func(n int) (*workers, error)

// buildWorker compiles cmd/slider-worker into outDir, before any timer
// starts, and returns the binary's path.
func buildWorker(ctx context.Context, root, outDir string) (string, error) {
	bin := filepath.Join(outDir, "slider-worker")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/slider-worker")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/slider-worker: %v\n%s", err, out)
	}
	return bin, nil
}

// spawnChildren returns a spawnFunc that starts the worker binary on free
// loopback ports and reads each served address from the child's stdout.
func spawnChildren(bin string) spawnFunc {
	return func(n int) (*workers, error) {
		died := make(chan error, n) // one send per child
		var cmds []*exec.Cmd
		var waits []chan struct{}
		var stopped atomic.Bool
		stop := func() {
			if stopped.Swap(true) {
				return
			}
			for _, c := range cmds {
				_ = c.Process.Signal(syscall.SIGTERM) // a child that has already ended is the goal
			}
			for i, done := range waits {
				select {
				case <-done:
				case <-time.After(5 * time.Second):
					_ = cmds[i].Process.Kill()
					<-done
				}
			}
		}
		ws := &workers{died: died, stop: stop}
		for i := 0; i < n; i++ {
			cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-name", fmt.Sprintf("bench-%d", i))
			cmd.Stderr = os.Stderr
			stdout, err := cmd.StdoutPipe()
			if err != nil {
				stop()
				return nil, err
			}
			if err := cmd.Start(); err != nil {
				stop()
				return nil, fmt.Errorf("start worker: %w", err)
			}
			// The first stdout line ends in the served address:
			//   slider-worker "bench-0" serving [...] on 127.0.0.1:40123
			line, readErr := bufio.NewReader(stdout).ReadString('\n')
			done := make(chan struct{})
			go func() {
				err := cmd.Wait() // closes the stdout pipe; later output is dropped
				if !stopped.Load() {
					died <- fmt.Errorf("worker %d ended early: %v", i, err)
				}
				close(done)
			}()
			cmds = append(cmds, cmd)
			ws.pids = append(ws.pids, cmd.Process.Pid)
			waits = append(waits, done)
			fields := strings.Fields(line)
			if readErr != nil || len(fields) < 2 || fields[len(fields)-2] != "on" {
				stop()
				return nil, fmt.Errorf("worker %d: no served address in %q (err=%v)", i, line, readErr)
			}
			ws.addrs = append(ws.addrs, fields[len(fields)-1])
		}
		return ws, nil
	}
}
