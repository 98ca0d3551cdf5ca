package dist

import (
	"io"
	"math/rand"
	"net"
	"time"

	"slider/internal/metrics"
)

// loopConn is a connection with no peer: reads drain in, writes collect in
// out. It lets a test drive one end's decoder with exact bytes and count
// what that end alone allocates.
type loopConn struct {
	in  []byte
	out []byte
}

func (c *loopConn) Read(p []byte) (int, error) {
	if len(c.in) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.in)
	c.in = c.in[n:]
	return n, nil
}

func (c *loopConn) Write(p []byte) (int, error) {
	c.out = append(c.out, p...)
	return len(p), nil
}

// loopPool is a pool with no workers, no deadline and no background loops,
// for driving runBatch over a loopConn.
func loopPool(jobName string) *Pool {
	cfg := PoolConfig{TaskTimeout: -1, HealthInterval: -1, StatsInterval: -1, Seed: 1}
	cfg.normalize()
	return &Pool{jobName: jobName, cfg: cfg, faults: &metrics.FaultRecorder{}, rng: rand.New(rand.NewSource(1))}
}

func (c *loopConn) Close() error                     { return nil }
func (c *loopConn) LocalAddr() net.Addr              { return nil }
func (c *loopConn) RemoteAddr() net.Addr             { return nil }
func (c *loopConn) SetDeadline(time.Time) error      { return nil }
func (c *loopConn) SetReadDeadline(time.Time) error  { return nil }
func (c *loopConn) SetWriteDeadline(time.Time) error { return nil }
