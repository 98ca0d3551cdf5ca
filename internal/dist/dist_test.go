package dist

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"slider/internal/mapreduce"
	"slider/internal/memo"
	"slider/internal/persist"
	"slider/internal/sliderrt"
)

// testJob is the wordcount used across the dist tests, registered once
// under a unique name per registry.
func testJob() *mapreduce.Job {
	sum := func(_ string, values []mapreduce.Value) mapreduce.Value {
		var total int64
		for _, v := range values {
			total += v.(int64)
		}
		return total
	}
	return &mapreduce.Job{
		Name:       "dist-wordcount",
		Partitions: 3,
		Map: func(rec mapreduce.Record, emit mapreduce.Emit) error {
			for _, w := range strings.Fields(rec.(string)) {
				emit(w, int64(1))
			}
			return nil
		},
		Combine:     sum,
		Reduce:      sum,
		Commutative: true,
	}
}

// newCluster starts n workers sharing one registry and returns them with
// their addresses.
func newCluster(t *testing.T, n int) ([]*Worker, []string, *Registry) {
	t.Helper()
	reg := &Registry{}
	if err := reg.Register("dist-wordcount", testJob); err != nil {
		t.Fatal(err)
	}
	var workers []*Worker
	var addrs []string
	for i := 0; i < n; i++ {
		w, err := NewWorker(fmt.Sprintf("w%d", i), "127.0.0.1:0", reg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		workers = append(workers, w)
		addrs = append(addrs, w.Addr())
	}
	return workers, addrs, reg
}

func textSplits(lo, hi int) []mapreduce.Split {
	out := make([]mapreduce.Split, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, mapreduce.Split{
			ID: "d" + strconv.Itoa(i),
			Records: []mapreduce.Record{
				"alpha beta alpha",
				"beta gamma " + strconv.Itoa(i),
			},
		})
	}
	return out
}

func TestRegistry(t *testing.T) {
	reg := &Registry{}
	if err := reg.Register("", testJob); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := reg.Register("j", nil); err == nil {
		t.Fatal("nil factory accepted")
	}
	if err := reg.Register("j", testJob); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("j", testJob); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if _, err := reg.Lookup("nope"); err == nil {
		t.Fatal("unknown job looked up")
	}
	job, err := reg.Lookup("j")
	if err != nil || job.Name != "dist-wordcount" {
		t.Fatalf("lookup: %v %v", job, err)
	}
	if names := reg.Names(); len(names) != 1 || names[0] != "j" {
		t.Fatalf("names = %v", names)
	}
}

func TestPing(t *testing.T) {
	_, addrs, _ := newCluster(t, 1)
	reply, err := Ping(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	if reply.Worker != "w0" || len(reply.Jobs) != 1 {
		t.Fatalf("reply = %+v", reply)
	}
	if _, err := Ping("127.0.0.1:1"); err == nil {
		t.Fatal("ping to dead address succeeded")
	}
}

func TestPoolRunMapMatchesLocal(t *testing.T) {
	_, addrs, _ := newCluster(t, 3)
	pool, err := NewPool("dist-wordcount", addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	splits := textSplits(0, 9)
	remote, err := pool.RunMap(testJob(), splits)
	if err != nil {
		t.Fatal(err)
	}
	local, err := mapreduce.Executor{}.RunMap(testJob(), splits)
	if err != nil {
		t.Fatal(err)
	}
	if len(remote) != len(local) {
		t.Fatalf("result counts differ: %d vs %d", len(remote), len(local))
	}
	for i := range remote {
		if remote[i].SplitID != local[i].SplitID {
			t.Fatalf("result %d out of order: %s", i, remote[i].SplitID)
		}
		if remote[i].Records != local[i].Records {
			t.Fatalf("record counts differ for %s", remote[i].SplitID)
		}
		for p := range remote[i].Parts {
			if mapreduce.FingerprintPayload(remote[i].Parts[p]) !=
				mapreduce.FingerprintPayload(local[i].Parts[p]) {
				t.Fatalf("payload %d/%d differs from local execution", i, p)
			}
		}
	}
}

func TestPoolSpreadsLoad(t *testing.T) {
	workers, addrs, _ := newCluster(t, 3)
	pool, err := NewPool("dist-wordcount", addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if _, err := pool.RunMap(testJob(), textSplits(0, 9)); err != nil {
		t.Fatal(err)
	}
	for i, w := range workers {
		if w.Served() == 0 {
			t.Fatalf("worker %d served nothing", i)
		}
	}
}

func TestPoolSurvivesWorkerFailure(t *testing.T) {
	workers, addrs, _ := newCluster(t, 3)
	pool, err := NewPool("dist-wordcount", addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if _, err := pool.RunMap(testJob(), textSplits(0, 3)); err != nil {
		t.Fatal(err)
	}
	// Kill one worker; the next batch must still complete, re-executing
	// its splits on survivors.
	if err := workers[1].Close(); err != nil {
		t.Fatal(err)
	}
	results, err := pool.RunMap(testJob(), textSplits(3, 12))
	if err != nil {
		t.Fatalf("run after worker failure: %v", err)
	}
	if len(results) != 9 {
		t.Fatalf("got %d results", len(results))
	}
	if pool.Retries() == 0 {
		t.Fatal("no retries recorded despite a dead worker")
	}
	if pool.LiveWorkers() != 2 {
		t.Fatalf("live workers = %d, want 2", pool.LiveWorkers())
	}
}

func TestPoolAllWorkersDead(t *testing.T) {
	workers, addrs, _ := newCluster(t, 2)
	pool, err := NewPool("dist-wordcount", addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	for _, w := range workers {
		w.Close()
	}
	if _, err := pool.RunMap(testJob(), textSplits(0, 2)); !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("err = %v, want ErrNoWorkers", err)
	}
}

func TestPoolRejectsWrongJob(t *testing.T) {
	_, addrs, _ := newCluster(t, 1)
	pool, err := NewPool("dist-wordcount", addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	other := testJob()
	other.Name = "other"
	if _, err := pool.RunMap(other, textSplits(0, 1)); err == nil {
		t.Fatal("wrong job name accepted")
	}
}

func TestPoolNoAddresses(t *testing.T) {
	if _, err := NewPool("j", nil); err == nil {
		t.Fatal("empty address list accepted")
	}
	if _, err := NewPool("j", []string{"127.0.0.1:1"}); !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("err = %v, want ErrNoWorkers", err)
	}
}

// TestWorkerSurvivesPanickingJob: a registered job whose Map panics fails
// its batch with the worker's answer — a RemoteError, which the pool neither
// retries nor reports as partial — and the same worker answers the next
// Ping and serves the next batch.
func TestWorkerSurvivesPanickingJob(t *testing.T) {
	_, addrs, reg := newCluster(t, 1)
	panics := func() *mapreduce.Job {
		job := testJob()
		job.Name = "panics"
		job.Map = func(mapreduce.Record, mapreduce.Emit) error { panic("map blew up") }
		return job
	}
	if err := reg.Register("panics", panics); err != nil {
		t.Fatal(err)
	}
	bad, err := NewPool("panics", addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	_, err = bad.RunMap(panics(), textSplits(0, 2))
	var served *RemoteError
	if !errors.As(err, &served) || !strings.Contains(err.Error(), "map blew up") {
		t.Fatalf("err = %v, want the worker's RemoteError naming the panic", err)
	}
	var partial *IncompleteError
	if errors.As(err, &partial) || bad.Retries() != 0 {
		t.Fatalf("err = %v after %d retries, want a fatal error and no retry", err, bad.Retries())
	}
	if _, err := Ping(addrs[0]); err != nil {
		t.Fatalf("ping after the panic: %v", err)
	}
	good, err := NewPool("dist-wordcount", addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	if results, err := good.RunMap(testJob(), textSplits(0, 2)); err != nil || len(results) != 2 {
		t.Fatalf("batch after the panic: %d results, err %v", len(results), err)
	}
}

// tracked is a value the test below can see die; see trackedValue.
type tracked struct{ pad [64]byte }

// trackedValue returns a value for a Map to emit and a channel closed when
// the collector has freed it. It is its own function so that no frame of the
// test keeps the pointer.
//
//go:noinline
func trackedValue() (mapreduce.Value, <-chan struct{}) {
	freed := make(chan struct{})
	v := new(tracked)
	runtime.SetFinalizer(v, func(*tracked) { close(freed) })
	return v, freed
}

// workerMapTask runs split as the worker's handler does — its output framed
// from the task's scratch, a panic recovered — and decodes the frame.
func workerMapTask(job *mapreduce.Job, split mapreduce.Split) (mapreduce.MapResult, error) {
	var frame []byte
	err := writeMapTask(job, task{split: split}, func(out *mapreduce.TaskOutput) (err error) {
		frame, err = persist.AppendTaskOutput(nil, out)
		return err
	})
	if err != nil {
		return mapreduce.MapResult{}, err
	}
	return persist.DecodeMapResult(frame)
}

// TestFailedMapTaskLeavesNothingBehind: map tasks work in pooled scratch, and
// a worker runs task after task on one goroutine. A split whose Map panics
// half-way (recovered by writeMapTask) or returns an error is followed by a
// good split on the same goroutine: the good split's output is exact, and
// what the failed task had emitted is unreachable afterwards.
func TestFailedMapTaskLeavesNothingBehind(t *testing.T) {
	// One P, one pool slot: every task below takes the scratch the one
	// before it put back, wherever the scheduler resumes this goroutine.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	good := mapreduce.Split{ID: "good", Records: []mapreduce.Record{"beta alpha beta", "gamma alpha beta"}}
	want := make([]mapreduce.Payload, 3)
	for word, n := range map[string]int64{"alpha": 2, "beta": 3, "gamma": 1} {
		p := mapreduce.Partition(word, 3)
		want[p] = append(want[p], mapreduce.Entry{Key: word, Value: n})
	}
	for _, p := range want {
		mapreduce.SortEntries(p)
	}
	for _, failure := range []string{"panic", "error"} {
		var freed <-chan struct{}
		bad := testJob()
		bad.Combine = func(_ string, values []mapreduce.Value) mapreduce.Value { return values[0] }
		bad.Map = func(rec mapreduce.Record, emit mapreduce.Emit) error {
			// Past everything the good split will write over.
			for i := 0; i < 32; i++ {
				emit("filler-"+strconv.Itoa(i%20), new(tracked))
			}
			var v mapreduce.Value
			v, freed = trackedValue()
			emit("alpha", v)
			emit("alpha", new(tracked))
			if failure == "panic" {
				panic("map blew up half-way")
			}
			return errors.New("map gave up half-way")
		}
		if _, err := workerMapTask(bad, textSplits(0, 1)[0]); err == nil || !strings.Contains(err.Error(), "half-way") {
			t.Fatalf("%s: err = %v, want the task's failure", failure, err)
		}
		// Every round runs the good split again before it collects: a pool
		// keeps what is used between two collections, so the scratch the
		// failed task worked in stays alive, and with it whatever it holds.
		for round := 0; ; round++ {
			res, err := workerMapTask(testJob(), good)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Parts, want) {
				t.Fatalf("split after a map task that ended in %s:\n got %v\nwant %v", failure, res.Parts, want)
			}
			runtime.GC()
			select {
			case <-freed:
			case <-time.After(10 * time.Millisecond):
				if round == 50 {
					t.Fatalf("%s: a value the failed task emitted is still reachable", failure)
				}
				continue
			}
			break
		}
	}
}

func TestWorkerRejectsUnknownJob(t *testing.T) {
	_, addrs, reg := newCluster(t, 1)
	_ = reg
	pool, err := NewPool("never-registered", addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	job := testJob()
	job.Name = "never-registered"
	if _, err := pool.RunMap(job, textSplits(0, 1)); err == nil {
		t.Fatal("unknown job executed")
	}
}

// TestRuntimeWithRemoteMaps runs a full sliding-window job whose map
// phase executes on remote workers, and checks the output against
// recomputation from scratch — distributed execution must be invisible
// to correctness.
func TestRuntimeWithRemoteMaps(t *testing.T) {
	workers, addrs, _ := newCluster(t, 3)
	pool, err := NewPool("dist-wordcount", addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	memoCfg := memo.DefaultConfig()
	memoCfg.Nodes = 4
	rt, err := sliderrt.New(testJob(), sliderrt.Config{
		Mode: sliderrt.Fixed, BucketSplits: 2, WindowBuckets: 4,
		Memo:      memoCfg,
		MapRunner: pool,
	})
	if err != nil {
		t.Fatal(err)
	}
	window := textSplits(0, 8)
	if _, err := rt.Initial(window); err != nil {
		t.Fatal(err)
	}
	// Kill a worker between runs: the slide must still succeed.
	workers[0].Close()
	add := textSplits(8, 10)
	res, err := rt.Advance(2, add)
	if err != nil {
		t.Fatal(err)
	}
	window = append(window[2:], add...)
	want, err := mapreduce.RunScratch(testJob(), window, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != len(want) {
		t.Fatalf("output sizes differ: %d vs %d", len(res.Output), len(want))
	}
	for k, v := range want {
		if res.Output[k].(int64) != v.(int64) {
			t.Fatalf("key %q: %v vs %v", k, res.Output[k], v)
		}
	}
}
