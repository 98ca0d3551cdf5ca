package obs

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"slider/internal/dist"
	"slider/internal/mapreduce"
	"slider/internal/memo"
	"slider/internal/metrics"
	"slider/internal/sliderrt"
)

func obsTestJob() *mapreduce.Job {
	sum := func(_ string, values []mapreduce.Value) mapreduce.Value {
		var total int64
		for _, v := range values {
			total += v.(int64)
		}
		return total
	}
	return &mapreduce.Job{
		Name:       "obs-wordcount",
		Partitions: 2,
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

func obsTestSplits(id0, n int) []mapreduce.Split {
	words := []string{"alpha", "beta", "gamma", "delta"}
	out := make([]mapreduce.Split, n)
	for i := range out {
		recs := make([]mapreduce.Record, 3)
		for j := range recs {
			recs[j] = words[(id0+i+j)%len(words)] + " " + words[(id0+i)%len(words)]
		}
		out[i] = mapreduce.Split{ID: "o" + strconv.Itoa(id0+i), Records: recs}
	}
	return out
}

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d\n%s", url, resp.StatusCode, body)
	}
	return string(body)
}

// metricValue extracts the value of a plain (label-free suffix) sample
// line from an exposition body.
func metricValue(t *testing.T, body, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, name+" ") {
			v, err := strconv.ParseFloat(strings.TrimPrefix(line, name+" "), 64)
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, body)
	return 0
}

// TestServerEndpointsLive drives an observed runtime through healthy and
// degraded slides — remote map with the workers killed mid-stream, memo
// nodes failed — and asserts all four endpoint families serve live data:
// populated Prometheus histograms and fault counters, a degraded slide's
// span trace with its fault events, the tree snapshot, and pprof.
func TestServerEndpointsLive(t *testing.T) {
	reg := &dist.Registry{}
	if err := reg.Register("obs-wordcount", obsTestJob); err != nil {
		t.Fatal(err)
	}
	var workers []*dist.Worker
	var addrs []string
	for i := 0; i < 2; i++ {
		w, err := dist.NewWorker(fmt.Sprintf("w%d", i), "127.0.0.1:0", reg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		workers = append(workers, w)
		addrs = append(addrs, w.Addr())
	}

	so := metrics.NewSlideObs()
	pool, err := dist.NewPoolConfig("obs-wordcount", addrs, dist.PoolConfig{
		Tracer: so.Tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	faults := pool.FaultRecorder()

	memoCfg := memo.DefaultConfig()
	memoCfg.Nodes = 4
	rt, err := sliderrt.New(obsTestJob(), sliderrt.Config{
		Mode:      sliderrt.Variable,
		Memo:      memoCfg,
		MapRunner: pool,
		Obs:       so,
	})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := rt.Initial(obsTestSplits(0, 6)); err != nil {
		t.Fatal(err)
	}
	next := 6
	if _, err := rt.Advance(1, obsTestSplits(next, 1)); err != nil {
		t.Fatal(err)
	}
	next++
	// Chaos: every worker dies and every memo node fails. The next slide
	// must degrade (local map fallback + memo recomputes) yet succeed.
	for _, w := range workers {
		w.Kill()
	}
	for n := 0; n < memoCfg.Nodes; n++ {
		rt.Store().FailNode(n)
	}
	if _, err := rt.Advance(1, obsTestSplits(next, 1)); err != nil {
		t.Fatalf("degraded slide failed outright: %v", err)
	}
	next++
	// Recover the memo nodes and run two more slides: the first re-reads
	// persistent replicas (misses with read-repair), the second hits the
	// in-memory cache again — so the hit-ratio gauges are live. Map stays
	// on the local-fallback path (the workers remain dead).
	for n := 0; n < memoCfg.Nodes; n++ {
		rt.Store().RecoverNode(n)
	}
	for i := 0; i < 2; i++ {
		if _, err := rt.Advance(1, obsTestSplits(next, 1)); err != nil {
			t.Fatal(err)
		}
		next++
	}
	if rt.Store().Stats().Hits == 0 {
		t.Fatal("post-recovery slide produced no memo hits")
	}
	fs := faults.Snapshot()
	if fs.LocalFallbacks == 0 || fs.MemoRecomputes == 0 {
		t.Fatalf("chaos slide did not degrade: %s", fs)
	}

	srv, err := StartForRuntime("127.0.0.1:0", rt)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	// /metrics: populated histogram families and fault counters.
	m := get(t, base+"/metrics")
	if got := metricValue(t, m, "slider_slide_seconds_count"); got != 5 {
		t.Errorf("slider_slide_seconds_count = %v, want 5", got)
	}
	for _, phase := range []string{"map", "contract", "reduce"} {
		want := `slider_phase_seconds_count{phase="` + phase + `"} 5`
		if !strings.Contains(m, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	for _, name := range []string{"slider_memo_read_seconds_count", "slider_memo_write_seconds_count",
		"slider_rpc_batch_seconds_count", "slider_memo_hits_total"} {
		if metricValue(t, m, name) == 0 {
			t.Errorf("%s is zero", name)
		}
	}
	if !strings.Contains(m, `slider_fault_events_total{event="local-fallbacks"} `+
		strconv.FormatInt(fs.LocalFallbacks, 10)) {
		t.Errorf("/metrics missing local-fallbacks counter:\n%s", m)
	}
	if metricValue(t, m, "slider_memo_hit_ratio") <= 0 {
		t.Error("memo hit ratio not positive")
	}
	if !strings.Contains(m, `slider_slide_seconds_bucket{le="+Inf"} 5`) {
		t.Error("/metrics missing +Inf bucket")
	}

	// /debug/slides: the degraded slide's span trace with fault events.
	slides := get(t, base+"/debug/slides?n=5")
	for _, want := range []string{"slide 5", "[DEGRADED]", "faults: local-fallbacks=",
		"faults: memo-recomputes=", "map phase", "contract phase"} {
		if !strings.Contains(slides, want) {
			t.Errorf("/debug/slides missing %q:\n%s", want, slides)
		}
	}
	slowest := get(t, base+"/debug/slides?slowest=1")
	if !strings.Contains(slowest, "slowest") || !strings.Contains(slowest, "slide ") {
		t.Errorf("slowest view malformed:\n%s", slowest)
	}

	// /debug/tree: the snapshot is stale until a poll-then-slide cycle, so
	// run the last slide's upkeep, poll once, slide and run its upkeep, and
	// poll again for live data.
	if err := rt.Background(); err != nil {
		t.Fatal(err)
	}
	get(t, base+"/debug/tree")
	if _, err := rt.Advance(1, obsTestSplits(next, 1)); err != nil {
		t.Fatal(err)
	}
	if err := rt.Background(); err != nil {
		t.Fatal(err)
	}
	tree := get(t, base+"/debug/tree")
	for _, want := range []string{"variant: folding", "slide: 6", "partition 0:", "partition 1:",
		"memo:", "fingerprint:"} {
		if !strings.Contains(tree, want) {
			t.Errorf("/debug/tree missing %q:\n%s", want, tree)
		}
	}

	// The free lists' holding, as of that upkeep: the folding tree's dead
	// aggregates and the splits that left the window.
	held := rt.Stats().FreeList.Bytes()
	if got := metricValue(t, get(t, base+"/metrics"), "slider_free_list_bytes"); got != float64(held) || held == 0 {
		t.Errorf("slider_free_list_bytes = %v, the runtime's free lists hold %d bytes", got, held)
	}

	// /debug/pprof and the index.
	if p := get(t, base+"/debug/pprof/"); !strings.Contains(p, "goroutine") {
		t.Error("pprof index missing goroutine profile")
	}
	if idx := get(t, base+"/"); !strings.Contains(idx, "/debug/tree") {
		t.Error("index page missing endpoint links")
	}
}

// TestServerEmptyConfig: a server with no sources (the worker daemon's
// configuration) still serves every endpoint without panicking.
func TestServerEmptyConfig(t *testing.T) {
	srv, err := Start("127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()
	if m := get(t, base+"/metrics"); strings.Contains(m, "slider_slide_seconds") {
		t.Errorf("sourceless /metrics has slide data:\n%s", m)
	}
	if s := get(t, base+"/debug/slides"); !strings.Contains(s, "no tracer configured") {
		t.Errorf("/debug/slides = %q", s)
	}
	if tr := get(t, base+"/debug/tree"); !strings.Contains(tr, "no tree source configured") {
		t.Errorf("/debug/tree = %q", tr)
	}
	get(t, base+"/debug/pprof/")
}

// TestMetricsScrapesBuildNoSnapshot: /metrics reads the run count and the
// live splits from the window gauges and never asks for a tree snapshot,
// so ten scrapes between every two slides leave the snapshot the server's
// start requested as the only one built.
func TestMetricsScrapesBuildNoSnapshot(t *testing.T) {
	rt, err := sliderrt.New(obsTestJob(), sliderrt.Config{Mode: sliderrt.Variable, Memo: memo.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	var polls atomic.Int64
	srv, err := Start("127.0.0.1:0", Config{
		Tree: func() *sliderrt.TreeSnapshot {
			polls.Add(1)
			return rt.TreeSnapshot()
		},
		Window: rt.WindowStats,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	if _, err := rt.Initial(obsTestSplits(0, 6)); err != nil {
		t.Fatal(err)
	}
	for slide := 1; slide <= 6; slide++ {
		if err := rt.Background(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			m := get(t, base+"/metrics")
			if got := metricValue(t, m, "slider_slides_total"); got != float64(slide) {
				t.Fatalf("slider_slides_total = %v after slide %d", got, slide)
			}
			if got := metricValue(t, m, "slider_window_live_splits"); got != 6 {
				t.Fatalf("slider_window_live_splits = %v, want 6", got)
			}
		}
		if _, err := rt.Advance(1, obsTestSplits(5+slide, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if n := polls.Load(); n != 1 {
		t.Fatalf("the tree source was called %d times, want once (by Start)", n)
	}
	// The one request was served at the initial run's upkeep; nothing has
	// asked since.
	if snap := rt.TreeSnapshot(); snap == nil || snap.SlideID != 1 {
		t.Fatalf("snapshot = %+v, want the initial run's", snap)
	}
}

// TestScrapesDuringSlides: /metrics and /debug/tree read the runtime from
// the server's goroutines while slides run (run it with -race): the slide
// counter a scrape reads never goes back, and /debug/tree serves either
// the pending message or a whole snapshot.
func TestScrapesDuringSlides(t *testing.T) {
	rt, err := sliderrt.New(obsTestJob(), sliderrt.Config{Mode: sliderrt.Variable, Memo: memo.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := StartForRuntime("127.0.0.1:0", rt)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		last := -1.0
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(base + "/metrics")
			if err != nil {
				t.Errorf("GET /metrics: %v", err)
				return
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Errorf("read /metrics: %v", err)
				return
			}
			for _, line := range strings.Split(string(body), "\n") {
				if v, ok := strings.CutPrefix(line, "slider_slides_total "); ok {
					n, err := strconv.ParseFloat(v, 64)
					if err != nil || n < last {
						t.Errorf("slider_slides_total %q after %v", v, last)
						return
					}
					last = n
				}
			}
			resp, err = http.Get(base + "/debug/tree")
			if err != nil {
				t.Errorf("GET /debug/tree: %v", err)
				return
			}
			body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Errorf("read /debug/tree: %v", err)
				return
			}
			if tree := string(body); !strings.HasPrefix(tree, "snapshot requested") && !strings.Contains(tree, "fingerprint:") {
				t.Errorf("/debug/tree = %q", tree)
				return
			}
		}
	}()
	defer func() {
		close(stop)
		<-done
	}()
	if _, err := rt.Initial(obsTestSplits(0, 6)); err != nil {
		t.Fatal(err)
	}
	for next := 6; next < 26; next++ {
		if err := rt.Background(); err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Advance(1, obsTestSplits(next, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if got := rt.WindowStats().Slides; got != 21 {
		t.Fatalf("WindowStats().Slides = %d, want 21", got)
	}
}
