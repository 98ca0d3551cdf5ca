package dist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"net"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"slider/internal/apps"
	"slider/internal/mapreduce"
	"slider/internal/persist"
	"slider/internal/sliderrt"
	"slider/internal/workload"
)

// matchesLocal fails the test unless remote is what the job's map tasks
// produce in-process, split for split and payload for payload, every
// partition of the same size.
func matchesLocal(t *testing.T, job *mapreduce.Job, splits []mapreduce.Split, remote []mapreduce.MapResult) {
	t.Helper()
	local, err := mapreduce.Executor{}.RunMap(job, splits)
	if err != nil {
		t.Fatal(err)
	}
	if len(remote) != len(local) {
		t.Fatalf("%d results for %d splits", len(remote), len(local))
	}
	for i := range local {
		if remote[i].SplitID != local[i].SplitID || remote[i].Records != local[i].Records || remote[i].Bytes() != local[i].Bytes() ||
			!slices.Equal(remote[i].PartBytes, local[i].PartBytes) {
			t.Fatalf("result %d = %s/%d records/%d bytes %v, local %s/%d/%d %v", i, remote[i].SplitID, remote[i].Records, remote[i].Bytes(), remote[i].PartBytes,
				local[i].SplitID, local[i].Records, local[i].Bytes(), local[i].PartBytes)
		}
		for p := range local[i].Parts {
			if mapreduce.FingerprintPayload(remote[i].Parts[p]) != mapreduce.FingerprintPayload(local[i].Parts[p]) {
				t.Fatalf("payload %d/%d differs from local execution", i, p)
			}
		}
	}
}

// flipProxy listens on loopback and relays every connection to target,
// frame by frame. The first split frame that passes on its way to the
// worker has one byte of its body flipped: a request corrupted in flight.
func flipProxy(t *testing.T, target string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var flipped atomic.Bool
	go func() {
		for {
			client, err := ln.Accept()
			if err != nil {
				return
			}
			server, err := net.Dial("tcp", target)
			if err != nil {
				client.Close()
				continue
			}
			go func() {
				_, _ = io.Copy(client, server) // ends when either side hangs up
				client.Close()
			}()
			go func() {
				defer server.Close()
				in := newWireConn(client)
				for {
					frame, err := in.next()
					if err != nil {
						return
					}
					if _, err := persist.DecodeSplit(frame); err == nil && flipped.CompareAndSwap(false, true) {
						frame[len(frame)-3] ^= 0x10
					}
					if _, err := server.Write(frame); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestCorruptRequestRetriedElsewhere: a split frame damaged on its way to
// the worker is caught by the worker's checksum, reported back as a
// corrupt request — not as the job's failure — counted, and the batch
// re-executed; the results match a local execution.
func TestCorruptRequestRetriedElsewhere(t *testing.T) {
	workers, addrs, _ := newCluster(t, 2)
	workers[0].SetObs(NewWorkerObs())
	pool, err := NewPoolConfig("dist-wordcount", []string{flipProxy(t, addrs[0]), addrs[1]}, PoolConfig{
		BackoffBase: 2 * time.Millisecond,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	splits := textSplits(0, 6)
	remote, err := pool.RunMap(testJob(), splits)
	if err != nil {
		t.Fatalf("a request corrupted in flight failed the batch: %v", err)
	}
	matchesLocal(t, testJob(), splits, remote)
	if st := pool.FaultStats(); st.CorruptFrames == 0 || st.Retries == 0 {
		t.Fatalf("corrupt frames = %d, retries = %d, want both counted", st.CorruptFrames, st.Retries)
	}
	if n := workers[0].Obs().Faults.Snapshot().CorruptFrames; n != 1 {
		t.Fatalf("the worker counted %d corrupt request frames, want 1", n)
	}
}

// stubWorker serves the wire by hand on a loopback listener: pings are
// answered as a worker answers them, map calls by mapCall, which is handed
// the connection (the call's envelope read, its items not) and writes the
// reply.
func stubWorker(t *testing.T, mapCall func(c *wireConn, env call) error) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				c := newWireConn(conn)
				for {
					frame, err := c.next()
					if err != nil {
						return
					}
					env, err := decodeCall(frame)
					if err != nil {
						return
					}
					if env.op == opPing {
						c.wbuf = appendReply(c.wbuf[:0], env.id, statusOK, 1, "stub", "")
						c.wbuf, _ = persist.AppendValue(c.wbuf, PingReply{Worker: "stub"})
						err = c.flush()
					} else {
						err = mapCall(c, env)
					}
					if err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestSwappedResultsCaught: results are attributed by position, so each
// one's split id is checked against the split it answers. A worker that
// returns two results in the wrong order is treated as one that returned a
// corrupt result: counted, failed, its batch re-executed elsewhere.
func TestSwappedResultsCaught(t *testing.T) {
	job := testJob()
	swapping := stubWorker(t, func(c *wireConn, env call) error {
		var frames [][]byte
		for i := uint32(0); i < env.items; i++ {
			frame, err := c.next()
			if err != nil {
				return err
			}
			split, err := persist.DecodeSplit(frame)
			if err != nil {
				return err
			}
			res, err := mapreduce.RunMapTask(job, split)
			if err != nil {
				return err
			}
			out, err := persist.AppendMapResult(nil, res)
			if err != nil {
				return err
			}
			frames = append(frames, out)
		}
		if len(frames) >= 2 {
			frames[0], frames[1] = frames[1], frames[0]
		}
		c.wbuf = appendReply(c.wbuf[:0], env.id, statusOK, env.items, "stub", "")
		for _, f := range frames {
			c.wbuf = append(c.wbuf, f...)
		}
		return c.flush()
	})
	_, addrs, _ := newCluster(t, 1)
	pool, err := NewPoolConfig("dist-wordcount", []string{swapping, addrs[0]}, PoolConfig{
		BackoffBase:      2 * time.Millisecond,
		BreakerThreshold: 1, // the stub is not asked twice
		BreakerCooldown:  10 * time.Second,
		HealthInterval:   -1,
		Seed:             1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	splits := textSplits(0, 6)
	remote, err := pool.RunMap(job, splits)
	if err != nil {
		t.Fatal(err)
	}
	matchesLocal(t, job, splits, remote)
	if st := pool.FaultStats(); st.CorruptFrames == 0 || st.Retries == 0 {
		t.Fatalf("corrupt frames = %d, retries = %d: the swapped results went unnoticed", st.CorruptFrames, st.Retries)
	}
}

// TestMisroutedKeysCaught: a result is checked against what the driver
// knows, not only against its checksum. A worker that puts odd splits'
// keys one partition over — another partitioner, or a hostile peer — is
// treated as one that returned a corrupt result: counted, failed, its
// batch re-executed elsewhere, and the answer is the local one.
func TestMisroutedKeysCaught(t *testing.T) {
	job := testJob()
	shifting := stubWorker(t, func(c *wireConn, env call) error {
		c.wbuf = appendReply(c.wbuf[:0], env.id, statusOK, env.items, "stub", "")
		for i := uint32(0); i < env.items; i++ {
			frame, err := c.next()
			if err != nil {
				return err
			}
			split, err := persist.DecodeSplit(frame)
			if err != nil {
				return err
			}
			res, err := mapreduce.RunMapTask(job, split)
			if err != nil {
				return err
			}
			if i%2 == 1 {
				res.Parts = append(res.Parts[1:], res.Parts[0])
			}
			if c.wbuf, err = persist.AppendMapResult(c.wbuf, res); err != nil {
				return err
			}
		}
		return c.flush()
	})
	_, addrs, _ := newCluster(t, 1)
	pool, err := NewPoolConfig("dist-wordcount", []string{shifting, addrs[0]}, PoolConfig{
		BackoffBase:      2 * time.Millisecond,
		BreakerThreshold: 1, // the stub is not asked twice
		BreakerCooldown:  10 * time.Second,
		HealthInterval:   -1,
		Seed:             1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	splits := textSplits(0, 6)
	remote, err := pool.RunMap(job, splits)
	if err != nil {
		t.Fatal(err)
	}
	matchesLocal(t, job, splits, remote)
	if st := pool.FaultStats(); st.CorruptFrames == 0 || st.Retries == 0 {
		t.Fatalf("corrupt frames = %d, retries = %d: the misrouted keys went unnoticed", st.CorruptFrames, st.Retries)
	}
}

// TestMisorderedReplyRetriedElsewhere: a payload whose keys are not
// strictly ascending is corrupt on arrival (persist.DecodeMapResult), not
// sorted by the driver. A worker that reverses every partition it returns
// is treated as one that returned a corrupt result: counted, failed, its
// batch re-executed elsewhere, and every slide of a runtime over the pool
// equals the from-scratch answer.
func TestMisorderedReplyRetriedElsewhere(t *testing.T) {
	job := testJob()
	reversing := stubWorker(t, func(c *wireConn, env call) error {
		c.wbuf = appendReply(c.wbuf[:0], env.id, statusOK, env.items, "stub", "")
		for i := uint32(0); i < env.items; i++ {
			frame, err := c.next()
			if err != nil {
				return err
			}
			split, err := persist.DecodeSplit(frame)
			if err != nil {
				return err
			}
			res, err := mapreduce.RunMapTask(job, split)
			if err != nil {
				return err
			}
			for _, part := range res.Parts {
				slices.Reverse(part)
			}
			if c.wbuf, err = persist.AppendMapResult(c.wbuf, res); err != nil {
				return err
			}
		}
		return c.flush()
	})
	_, addrs, _ := newCluster(t, 1)
	pool, err := NewPoolConfig("dist-wordcount", []string{reversing, addrs[0]}, PoolConfig{
		BackoffBase:      2 * time.Millisecond,
		BreakerThreshold: 1, // the stub is not asked twice
		BreakerCooldown:  10 * time.Second,
		HealthInterval:   -1,
		Seed:             1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	rt, err := sliderrt.New(job, sliderrt.Config{Mode: sliderrt.Fixed, BucketSplits: 2, WindowBuckets: 3, MapRunner: pool})
	if err != nil {
		t.Fatal(err)
	}
	window := textSplits(0, 6)
	res, err := rt.Initial(window)
	for slide := 0; ; slide++ {
		if err != nil {
			t.Fatalf("slide %d: %v", slide, err)
		}
		want, err := mapreduce.RunScratch(job, window, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Output, want) {
			t.Fatalf("slide %d: output %v, from scratch %v", slide, res.Output, want)
		}
		if slide == 2 {
			break
		}
		add := textSplits(6+2*slide, 8+2*slide)
		window = append(window[2:], add...)
		res, err = rt.Advance(2, add)
	}
	if st := pool.FaultStats(); st.CorruptFrames == 0 || st.Retries == 0 {
		t.Fatalf("corrupt frames = %d, retries = %d: the misordered payloads went unnoticed", st.CorruptFrames, st.Retries)
	}
}

// TestForeignPeerNamedNotHung: a peer that speaks something else gets an
// error that names the protocol, at either end, instead of a hang.
func TestForeignPeerNamedNotHung(t *testing.T) {
	// A server that is not a worker answers a ping with bytes that are no
	// frame.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			_, _ = conn.Read(make([]byte, 512))
			_, _ = conn.Write([]byte("HTTP/1.1 400 Bad Request\r\nConnection: close\r\n\r\n"))
			conn.Close()
		}
	}()
	if _, err := Ping(ln.Addr().String()); !errors.Is(err, errProtocol) {
		t.Fatalf("ping of a web server: err = %v, want the protocol named", err)
	}
	if _, err := NewPool("j", []string{ln.Addr().String()}); !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("pool over a web server: err = %v, want ErrNoWorkers", err)
	}

	// A client that is not a pool is told so in a reply frame, and hung up on.
	_, addrs, _ := newCluster(t, 1)
	conn, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /metrics HTTP/1.1\r\nHost: worker\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	answer, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("the worker did not hang up on a foreign client: %v", err)
	}
	rep, err := decodeReply(answer)
	if err != nil || rep.status != statusRefused || !strings.Contains(string(rep.text), "sld2") {
		t.Fatalf("answer to a foreign client = %+v (%q), err %v; want a refusal naming the protocol", rep, rep.text, err)
	}
	if _, err := Ping(addrs[0]); err != nil {
		t.Fatalf("ping after the foreign client: %v", err)
	}
}

// TestSld1FrameIsAForeignPeer: the wire knows one header. sld1 — the
// header value frames had before every frame took sld2 — is refused as a
// foreign peer's: in answer to a connection's first call, and as the
// first bytes a worker reads.
func TestSld1FrameIsAForeignPeer(t *testing.T) {
	value, err := persist.Encode(PingReply{Worker: "old"})
	if err != nil {
		t.Fatal(err)
	}
	body := value[persist.FramePrefixLen:]
	old := append([]byte("sld1"), binary.LittleEndian.AppendUint64(nil, uint64(len(body)))...)
	old = binary.LittleEndian.AppendUint32(old, crc32.ChecksumIEEE(body))
	old = append(old, body...)

	var pr PingReply
	if err := newWireConn(&loopConn{in: old}).value(opPing, 0, &pr); !errors.Is(err, errProtocol) {
		t.Fatalf("a ping answered with an sld1 frame: err = %v, want errProtocol", err)
	}

	w, err := NewWorker("w0", "127.0.0.1:0", &Registry{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	lc := &loopConn{in: old}
	w.serve(lc)
	rep, err := decodeReply(lc.out)
	if err != nil || rep.status != statusRefused {
		t.Fatalf("a worker sent an sld1 frame answered %+v, %v; want a refusal", rep, err)
	}
}

// benchJob is the four-partition wordcount of the repository's benchmark.
func benchJob() *mapreduce.Job {
	job := testJob()
	job.Partitions = 4
	return job
}

// benchSplits returns n splits of the shape the benchmark ships: 200 lines
// of 12 Zipf words over a 20 000-word vocabulary.
func benchSplits(n int) []mapreduce.Split {
	text := workload.NewText(workload.TextConfig{Seed: 1, LinesPerSplit: 200, WordsPerLine: 12, Vocabulary: 20000, ZipfS: 1.2})
	splits := make([]mapreduce.Split, n)
	for i := range splits {
		splits[i] = text.Split(i)
	}
	return splits
}

// perRun is what fn allocates a call, averaged over runs.
func perRun(runs int, fn func()) (allocs, bytes float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs), float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestPoolRunMapAllocs: on the pool's side a warm RunMap of eight
// benchmark-shaped splits over two workers allocates what decoding the
// eight results allocates — two allocations per non-empty partition and
// each result's own slices, the leaves the window keeps — plus a small
// constant for the round (its goroutines, its channel, its assignment). No
// frame per split, no copy of the reply. The workers here answer with
// results framed beforehand and allocate nothing, so the process's count is
// the pool's; under net/rpc + gob the same call cost the pool about 380 KB
// more.
func TestPoolRunMapAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are nondeterministic under the race detector")
	}
	job, splits := benchJob(), benchSplits(8)
	framed := make(map[string][]byte, len(splits)) // split id → its result's frame
	for _, s := range splits {
		res, err := mapreduce.RunMapTask(job, s)
		if err != nil {
			t.Fatal(err)
		}
		if framed[s.ID], err = persist.AppendMapResult(nil, res); err != nil {
			t.Fatal(err)
		}
	}
	answer := func(c *wireConn, env call) error {
		c.wbuf = appendReply(c.wbuf[:0], env.id, statusOK, env.items, "stub", "")
		for i := uint32(0); i < env.items; i++ {
			frame, err := c.next()
			if err != nil {
				return err
			}
			_, body, err := persist.OpenFrame(frame)
			if err != nil {
				return err
			}
			id := body[4 : 4+binary.LittleEndian.Uint32(body)]
			c.wbuf = append(c.wbuf, framed[string(id)]...)
		}
		return c.flush()
	}
	pool, err := NewPoolConfig(job.Name, []string{stubWorker(t, answer), stubWorker(t, answer)},
		PoolConfig{HealthInterval: -1, StatsInterval: -1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	const runs = 20
	leafAllocs, leafBytes := perRun(runs, func() {
		for _, frame := range framed {
			if _, err := persist.DecodeMapResult(frame); err != nil {
				t.Fatal(err)
			}
		}
	})
	run := func() {
		if _, err := pool.RunMap(job, splits); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		run() // buffers grow to the batch
	}
	allocs, bytes := perRun(runs, run)
	t.Logf("RunMap %.0f allocs / %.0f B a call on the pool's side; its decoded results %.0f / %.0f", allocs, bytes, leafAllocs, leafBytes)
	const roundAllocs, roundBytes = 40, 8 << 10
	if over := allocs - leafAllocs; over > roundAllocs {
		t.Errorf("RunMap makes %.0f allocations beyond its decoded results, want at most %d", over, roundAllocs)
	}
	if over := bytes - leafBytes; over > roundBytes {
		t.Errorf("RunMap allocates %.0f bytes beyond its decoded results, want at most %d: a frame or a reply is being copied", over, roundBytes)
	}
}

// waitFor polls cond until it holds or the time is up.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPoolCloseUnblocksRunMap: Close is a cancellation point. A RunMap
// waiting for a worker that will not answer for five seconds returns as
// soon as another goroutine closes the pool.
func TestPoolCloseUnblocksRunMap(t *testing.T) {
	workers, addrs, _ := newCluster(t, 1)
	pool, err := NewPoolConfig("dist-wordcount", addrs, PoolConfig{HealthInterval: -1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	workers[0].Faults().InjectDelay(5 * time.Second)
	errC := make(chan error, 1)
	go func() {
		_, err := pool.RunMap(testJob(), textSplits(0, 2))
		errC <- err
	}()
	waitFor(t, "the batch to be computed and held back", func() bool { return workers[0].Served() == 2 })
	closed := time.Now()
	pool.Close()
	select {
	case err := <-errC:
		if !errors.Is(err, ErrNoWorkers) {
			t.Fatalf("RunMap on a closed pool: err = %v, want ErrNoWorkers", err)
		}
		if took := time.Since(closed); took > time.Second {
			t.Fatalf("RunMap returned %v after Close", took)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("Close did not unblock RunMap")
	}
}

// TestDeadlineLeavesNoGoroutine: the deadline is the socket's, so a call
// that expires leaves nothing behind — no timer, no abandoned call, no
// reader. Once RunMap has returned and the expired connection is closed,
// the process runs the goroutines it ran before, less the worker's handler
// of that connection.
func TestDeadlineLeavesNoGoroutine(t *testing.T) {
	workers, addrs, _ := newCluster(t, 2)
	pool, err := NewPoolConfig("dist-wordcount", addrs, PoolConfig{
		TaskTimeout:      40 * time.Millisecond,
		BackoffBase:      2 * time.Millisecond,
		BreakerThreshold: 1, // the expired worker is not redialled
		BreakerCooldown:  10 * time.Second,
		HealthInterval:   -1,
		StatsInterval:    -1,
		Seed:             1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if _, err := pool.RunMap(testJob(), textSplits(0, 2)); err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	workers[0].Faults().InjectDelay(200 * time.Millisecond)
	splits := textSplits(2, 6)
	remote, err := pool.RunMap(testJob(), splits)
	if err != nil {
		t.Fatal(err)
	}
	matchesLocal(t, testJob(), splits, remote)
	st := pool.FaultStats()
	if st.DeadlinesExpired != 1 || st.Retries == 0 {
		t.Fatalf("deadlines expired = %d, retries = %d, want the delayed batch expired and re-executed", st.DeadlinesExpired, st.Retries)
	}
	if pool.LiveWorkers() != 1 {
		t.Fatalf("live workers = %d, want the expired one down", pool.LiveWorkers())
	}
	// The delayed handler wakes, finds its connection closed and ends.
	waitFor(t, "the expired call's goroutines to end", func() bool { return runtime.NumGoroutine() <= baseline-1 })
}

// TestWireConnGrowsWithArrival: the read buffer is sized by what has
// arrived, never by what a header claims.
func TestWireConnGrowsWithArrival(t *testing.T) {
	big := mapreduce.Split{ID: "big", Records: []mapreduce.Record{strings.Repeat("x", 100<<10)}}
	frame, err := persist.EncodeSplit(big)
	if err != nil {
		t.Fatal(err)
	}
	small, err := persist.EncodeSplit(textSplits(0, 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	// Whole frames, larger than the buffer's first size and smaller, come
	// out as they went in, across compaction and growth.
	stream := bytes.Join([][]byte{small, frame, small, small, frame}, nil)
	c := newWireConn(&loopConn{in: stream})
	for i, want := range [][]byte{small, frame, small, small, frame} {
		got, err := c.next()
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("frame %d: %d bytes, err %v; want %d bytes", i, len(got), err, len(want))
		}
	}
	if _, err := c.next(); err != io.EOF {
		t.Fatalf("after the last frame: err = %v, want io.EOF", err)
	}
	// A connection does not keep what one outsized message took.
	huge, err := persist.EncodeSplit(mapreduce.Split{ID: "huge", Records: []mapreduce.Record{strings.Repeat("y", wireBufKeep+wireBufKeep/2)}})
	if err != nil {
		t.Fatal(err)
	}
	lc := &loopConn{in: bytes.Join([][]byte{huge, small}, nil)}
	c = newWireConn(lc)
	for i, want := range [][]byte{huge, small} {
		if got, err := c.next(); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("frame %d after an outsized one: %d bytes, err %v", i, len(got), err)
		}
	}
	c.wbuf = append(c.wbuf, huge...)
	if err := c.flush(); err != nil || !bytes.Equal(lc.out, huge) {
		t.Fatalf("flush of an outsized message: err %v, %d bytes written", err, len(lc.out))
	}
	if _, err := c.next(); err != io.EOF { // the wait for the next message lets go of the read buffer
		t.Fatalf("after the last frame: err = %v, want io.EOF", err)
	}
	if len(c.rbuf) > wireBufKeep || cap(c.wbuf) > wireBufKeep {
		t.Fatalf("buffers kept after an outsized message: read %d, write %d bytes", len(c.rbuf), cap(c.wbuf))
	}
	// A header that claims a quarter of a gigabyte, and sixty bytes behind
	// it. TotalAlloc counts what every goroutine of the process allocates,
	// another test's included, so the read is measured five times and the
	// least of them is what it allocated.
	claim := append([]byte(nil), frame[:60]...)
	claim[5], claim[6], claim[7], claim[8] = 0, 0, 0, 0x0f
	least := uint64(math.MaxUint64)
	for range 5 {
		c = newWireConn(&loopConn{in: claim})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err = c.next()
		runtime.ReadMemStats(&after)
		if err != io.ErrUnexpectedEOF {
			t.Fatalf("truncated frame: err = %v, want io.ErrUnexpectedEOF", err)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > 2*wireBufInit {
		t.Fatalf("%d bytes allocated waiting for a frame of which 60 arrived (the least of five reads; at most %d)", least, 2*wireBufInit)
	}
	over := append([]byte(nil), frame[:60]...)
	over[12] = 0x7f
	if _, err := newWireConn(&loopConn{in: over}).next(); !errors.Is(err, persist.ErrCorrupt) {
		t.Fatalf("frame over the cap: err = %v, want ErrCorrupt", err)
	}
}

// BenchmarkPoolRunMap is the transport end to end in one process: a batch
// of eight benchmark-shaped splits over two workers on loopback, the map
// tasks included. Its profiles are the ones DESIGN.md §9 quotes.
func BenchmarkPoolRunMap(b *testing.B) {
	job, splits := benchJob(), benchSplits(8)
	reg := &Registry{}
	if err := reg.Register(job.Name, benchJob); err != nil {
		b.Fatal(err)
	}
	var addrs []string
	for i := 0; i < 2; i++ {
		w, err := NewWorker("bench", "127.0.0.1:0", reg)
		if err != nil {
			b.Fatal(err)
		}
		defer w.Close()
		addrs = append(addrs, w.Addr())
	}
	pool, err := NewPoolConfig(job.Name, addrs, PoolConfig{HealthInterval: -1, StatsInterval: -1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer pool.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pool.RunMap(job, splits); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeMapResult is what the pool spends on one reply frame
// besides the wire: persist's BenchmarkMapTaskFrame range — 800 twelve-word
// lines drawn Zipf(1.2) from 20 000 words, four partitions, the declared
// wordcount — framed once as a worker frames it, then "decode" decodes it
// (persist.DecodeMapResult, each partition sized as it is built) and
// "decode+answers" also holds it to the split sent (sentSplit.answers: the
// id, the record count and every key's partition). The decoded payloads go
// back to the task stock after each round, as a bucket fold releases them.
func BenchmarkDecodeMapResult(b *testing.B) {
	job := apps.WordCount(4)
	text := workload.NewText(workload.TextConfig{Seed: 7, LinesPerSplit: 200, WordsPerLine: 12, Vocabulary: 20000, ZipfS: 1.2})
	split := text.Split(0)
	for j := 1; j < 4; j++ {
		split.Records = append(split.Records, text.Split(j).Records...)
	}
	var frame []byte
	if err := mapreduce.WriteMapTask(job, split, func(out *mapreduce.TaskOutput) (err error) {
		frame, err = persist.AppendTaskOutput(nil, out)
		return err
	}); err != nil {
		b.Fatal(err)
	}
	sent := sentSplit{split.ID, int64(len(split.Records))}
	for _, check := range []bool{false, true} {
		name := "decode"
		if check {
			name = "decode+answers"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := persist.DecodeMapResult(frame)
				if err == nil && check {
					err = sent.answers(res, job.NumPartitions())
				}
				if err != nil {
					b.Fatal(err)
				}
				for _, p := range res.Parts {
					mapreduce.ReleaseTaskPayload(p)
				}
			}
		})
	}
}
