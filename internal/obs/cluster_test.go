package obs

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"slider/internal/dist"
	"slider/internal/metrics"
	"slider/internal/sliderrt"
)

// labeledValue extracts one labeled sample's value from an exposition
// body (exact prefix match on "name{labels} ").
func labeledValue(t *testing.T, body, sample string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, sample+" ") {
			v, err := strconv.ParseFloat(strings.TrimPrefix(line, sample+" "), 64)
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("sample %s not found in:\n%s", sample, body)
	return 0
}

// TestClusterObservability is the end-to-end acceptance check: a real
// 3-worker TCP cluster under chaos (injected delays forcing hedges), a
// pool-driven runtime, and obs servers on the pool and every worker.
// It asserts a single slide's /debug/trace export contains stitched
// spans from all three workers plus a hedged attempt, that the pool's
// federated cluster totals exactly equal the sum of what each worker
// reports on its own /metrics endpoint, and that the trace export
// parses as well-formed Chrome trace JSON.
func TestClusterObservability(t *testing.T) {
	reg := &dist.Registry{}
	if err := reg.Register("obs-wordcount", obsTestJob); err != nil {
		t.Fatal(err)
	}
	var workers []*dist.Worker
	var addrs []string
	for i := 0; i < 3; i++ {
		w, err := dist.NewWorker(fmt.Sprintf("w%d", i), "127.0.0.1:0", reg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		w.SetObs(dist.NewWorkerObs())
		workers = append(workers, w)
		addrs = append(addrs, w.Addr())
	}

	so := metrics.NewSlideObs()
	pool, err := dist.NewPoolConfig("obs-wordcount", addrs, dist.PoolConfig{
		TaskTimeout:     time.Second,
		BackoffBase:     2 * time.Millisecond,
		BreakerCooldown: 5 * time.Millisecond,
		HealthInterval:  5 * time.Millisecond,
		StatsInterval:   5 * time.Millisecond,
		Hedge:           true,
		HedgeMin:        20 * time.Millisecond,
		Tracer:          so.Tracer,
		Seed:            1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	faults := pool.FaultRecorder()

	rt, err := sliderrt.New(obsTestJob(), sliderrt.Config{
		Mode:      sliderrt.Variable,
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

	// Chaos slides: delay one worker past the hedge threshold (but under
	// the task deadline) so a hedge fires onto an idle worker while the
	// delayed original still completes and stitches its spans — giving
	// one slide spans from all three workers plus a hedged attempt.
	// Hedging is timing-dependent, so retry with a fresh slide until one
	// shows the full picture.
	workerMark := func(i int) string { return fmt.Sprintf("w%d obs-wordcount", i) }
	fullTrace := func(text string) bool {
		if !strings.Contains(text, "(hedge)") {
			return false
		}
		for i := range workers {
			if !strings.Contains(text, workerMark(i)) {
				return false
			}
		}
		return true
	}
	var chaosSlide uint64
	for attempt := 0; attempt < 10 && chaosSlide == 0; attempt++ {
		workers[attempt%3].Faults().InjectDelay(60 * time.Millisecond)
		if _, err := rt.Advance(6, obsTestSplits(next, 6)); err != nil {
			t.Fatal(err)
		}
		next += 6
		// The delayed attempt's spans stitch when its RPC completes, which
		// may be after the slide committed — poll briefly.
		slide := so.Tracer.Recent(1)[0]
		for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
			if fullTrace(slide.Format()) {
				chaosSlide = slide.ID
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	if chaosSlide == 0 {
		t.Fatalf("no slide collected spans from all workers plus a hedge; faults: %s", faults.Snapshot())
	}
	if faults.Snapshot().HedgesLaunched == 0 {
		t.Fatal("hedge counter did not move")
	}

	// Quiesce, then federate: the pool's merged totals must exactly equal
	// what the workers report about themselves.
	var cs metrics.ClusterStats
	var merged metrics.NodeStats
	for deadline := time.Now().Add(5 * time.Second); ; {
		pool.PollStats()
		cs = pool.ClusterStats()
		merged = cs.Merged()
		var direct int64
		for _, w := range workers {
			direct += w.Served()
		}
		if len(cs.Workers) == 3 && merged.Served == direct && merged.Served > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("federated served=%d never matched workers' own %d (%d workers federated)",
				merged.Served, direct, len(cs.Workers))
		}
		time.Sleep(5 * time.Millisecond)
	}
	var batchSum metrics.HistogramSnapshot
	for _, n := range cs.Workers {
		b, ok := n.Hist("batch")
		if !ok {
			t.Fatalf("federated snapshot for %s has no batch histogram", n.Node)
		}
		batchSum = batchSum.Add(b)
	}
	if got, _ := merged.Hist("batch"); got != batchSum {
		t.Fatalf("merged batch histogram != sum of per-worker snapshots:\n got %+v\nwant %+v", got, batchSum)
	}

	// Obs servers: one on the pool's runtime (cluster view auto-wired
	// from the MapRunner), one per worker (self view).
	poolSrv, err := StartForRuntime("127.0.0.1:0", rt)
	if err != nil {
		t.Fatal(err)
	}
	defer poolSrv.Close()
	var workerURLs []string
	for _, w := range workers {
		w := w
		srv, err := Start("127.0.0.1:0", Config{
			Node:   w.StatsSnapshot,
			Tracer: w.Obs().Tracer,
			Fault:  w.Obs().Faults,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		workerURLs = append(workerURLs, "http://"+srv.Addr())
	}

	// Scrape the pool: cluster aggregates plus per-worker labeled series.
	pm := get(t, "http://"+poolSrv.Addr()+"/metrics")
	clusterServed := labeledValue(t, pm, "slider_cluster_served_total")
	if got := labeledValue(t, pm, "slider_cluster_workers"); got != 3 {
		t.Fatalf("slider_cluster_workers = %v, want 3", got)
	}
	// Scrape each worker and check the federation sums line up across
	// processes: pool per-worker label == worker's own scrape, and the
	// cluster total == the sum of the worker scrapes.
	var scrapedSum float64
	for i, u := range workerURLs {
		wm := get(t, u+"/metrics")
		sample := fmt.Sprintf("slider_worker_served_total{worker=%q}", fmt.Sprintf("w%d", i))
		own := labeledValue(t, wm, sample)
		if fed := labeledValue(t, pm, sample); fed != own {
			t.Fatalf("pool federated %s=%v but the worker reports %v", sample, fed, own)
		}
		if cnt := labeledValue(t, wm, fmt.Sprintf("slider_worker_batch_seconds_count{worker=%q}", fmt.Sprintf("w%d", i))); cnt == 0 {
			t.Fatalf("worker %d batch histogram empty on its own endpoint", i)
		}
		scrapedSum += own
	}
	if scrapedSum != clusterServed {
		t.Fatalf("cluster served %v != sum of worker scrapes %v", clusterServed, scrapedSum)
	}
	var batchTotal int64
	for _, c := range batchSum.Counts {
		batchTotal += c
	}
	if cnt := labeledValue(t, pm, "slider_cluster_batch_seconds_count"); cnt != float64(batchTotal) {
		t.Fatalf("slider_cluster_batch_seconds_count = %v, want %d", cnt, batchTotal)
	}
	// The bucket-ledger gauges are exposed for every backend.
	for _, name := range []string{"slider_window_live_buckets", "slider_window_watermark_lag_buckets"} {
		labeledValue(t, pm, name)
	}

	// /debug/trace: the chaos slide parses as Chrome trace JSON and holds
	// spans from every worker plus the hedged attempt.
	body := get(t, fmt.Sprintf("http://%s/debug/trace?slide=%d", poolSrv.Addr(), chaosSlide))
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/debug/trace is not valid JSON: %v\n%s", err, body)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("/debug/trace has no events")
	}
	var names []string
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" && ev.Ph != "i" && ev.Ph != "M" {
			t.Fatalf("unexpected trace event phase %q", ev.Ph)
		}
		names = append(names, ev.Name)
	}
	all := strings.Join(names, "\n")
	for i := range workers {
		if !strings.Contains(all, workerMark(i)) {
			t.Fatalf("trace export missing worker %d spans:\n%s", i, all)
		}
	}
	if !strings.Contains(all, "(hedge)") {
		t.Fatalf("trace export missing hedged attempt:\n%s", all)
	}

	// The worker's own /debug/trace (its batch ring) also exports.
	wt := get(t, workerURLs[0]+"/debug/trace")
	if !json.Valid([]byte(wt)) {
		t.Fatalf("worker /debug/trace is not valid JSON:\n%s", wt)
	}
}
