// Package obs is the introspection HTTP server: it mounts Prometheus
// metrics, pprof, recent slide traces, and the live contraction-tree
// snapshot for a running Slider process. Every data source is optional —
// a worker daemon mounts it with nothing but pprof, a stream driver
// hands it the runtime's full observability bundle.
//
// Endpoints:
//
//	/                 index
//	/metrics          Prometheus text exposition
//	/debug/pprof/     Go runtime profiles
//	/debug/slides     recent slide span traces (?n=, ?slowest=1)
//	/debug/trace      one slide's span tree as Chrome trace-event JSON (?slide=N)
//	/debug/tree       live contraction-tree snapshot
//
// With cluster sources wired (a dist.Pool driving remote workers),
// /metrics additionally exposes per-worker labeled families federated
// over the stats call plus their cluster aggregates, and /debug/trace
// exports include the stitched worker spans.
package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"slider/internal/memo"
	"slider/internal/metrics"
	"slider/internal/sliderrt"
)

// Config wires the server's data sources. Any field may be nil; the
// corresponding sections simply disappear from the output.
type Config struct {
	// Slide is the runtime's instrumentation bundle (histograms + span
	// tracer) — the source for /metrics latency families and
	// /debug/slides.
	Slide *metrics.SlideObs
	// Fault is the shared fault-event recorder (counters + RPC latency).
	Fault *metrics.FaultRecorder
	// Tree supplies the latest contraction-tree snapshot (and, as a side
	// effect of how the runtime implements it, requests a refresh).
	// Typically sliderrt's (*Runtime).TreeSnapshot.
	Tree func() *sliderrt.TreeSnapshot
	// Memo supplies live memoization-layer counters (hit ratio in
	// /metrics). Typically a closure over (*memo.Store).Stats.
	Memo func() memo.Stats
	// Tracer overrides the span source for /debug/slides and /debug/trace
	// (default Slide.Tracer). A worker daemon, which has no SlideObs,
	// points this at its WorkerObs tracer to expose batch traces.
	Tracer *metrics.Tracer
	// Window supplies the out-of-order window gauges (watermark lag,
	// bucket-ledger width, late accept/reject counters) and the free
	// lists' holding. Typically
	// (*sliderrt.Runtime).WindowStats.
	Window func() sliderrt.WindowStats
	// Cluster supplies the pool's federated per-worker stats; /metrics
	// renders them as slider_worker_* families labeled by worker plus
	// slider_cluster_* aggregates. Typically (*dist.Pool).ClusterStats.
	Cluster func() metrics.ClusterStats
	// Node supplies this process's own federation snapshot (a worker
	// daemon exporting the same slider_worker_* families about itself,
	// so a scrape of the worker matches the pool's federated view).
	Node func() metrics.NodeStats
}

// Server is a running introspection HTTP server.
type Server struct {
	cfg Config
	ln  net.Listener
	srv *http.Server
}

// Start listens on addr (e.g. "127.0.0.1:6060"; ":0" picks a port) and
// serves the introspection endpoints until Close.
func Start(addr string, cfg Config) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s := &Server{cfg: cfg, ln: ln}
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/slides", s.handleSlides)
	mux.HandleFunc("/debug/trace", s.handleTrace)
	mux.HandleFunc("/debug/tree", s.handleTree)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{Handler: mux}
	go s.srv.Serve(ln) //nolint:errcheck // Serve always returns on Close
	return s, nil
}

// StartForRuntime starts a server wired to everything a runtime exposes,
// including the cluster-stats source when the runtime's MapRunner is a
// dist.Pool (or anything else exposing ClusterStats).
func StartForRuntime(addr string, rt *sliderrt.Runtime) (*Server, error) {
	cfg := Config{
		Slide:  rt.Observability(),
		Fault:  rt.FaultRecorder(),
		Tree:   rt.TreeSnapshot,
		Memo:   func() memo.Stats { return rt.Store().Stats() },
		Window: rt.WindowStats,
	}
	if c, ok := rt.MapRunner().(interface {
		ClusterStats() metrics.ClusterStats
	}); ok {
		cfg.Cluster = c.ClusterStats
	}
	return Start(addr, cfg)
}

// tracer resolves the span source: the explicit override, else the slide
// bundle's tracer.
func (s *Server) tracer() *metrics.Tracer {
	if s.cfg.Tracer != nil {
		return s.cfg.Tracer
	}
	if s.cfg.Slide != nil {
		return s.cfg.Slide.Tracer
	}
	return nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server and releases the listener.
func (s *Server) Close() error { return s.srv.Close() }

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, `<html><head><title>slider obs</title></head><body>
<h1>slider introspection</h1>
<ul>
<li><a href="/metrics">/metrics</a> — Prometheus text exposition</li>
<li><a href="/debug/slides">/debug/slides</a> — recent slide span traces (<a href="/debug/slides?slowest=1">slowest</a>)</li>
<li><a href="/debug/trace">/debug/trace</a> — slide trace as Chrome trace-event JSON (?slide=N; load in Perfetto)</li>
<li><a href="/debug/tree">/debug/tree</a> — live contraction-tree snapshot</li>
<li><a href="/debug/pprof/">/debug/pprof/</a> — Go runtime profiles</li>
</ul>
</body></html>
`)
}

// handleSlides dumps recent slide traces as flame summaries, newest
// first. ?n= bounds the count (default 10); ?slowest=1 orders by
// duration instead of recency.
func (s *Server) handleSlides(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	tr := s.tracer()
	if tr == nil {
		fmt.Fprintln(w, "no tracer configured")
		return
	}
	n := 10
	if v, err := strconv.Atoi(r.URL.Query().Get("n")); err == nil && v > 0 {
		n = v
	}
	var spans []*metrics.Span
	if r.URL.Query().Get("slowest") != "" {
		spans = tr.Slowest(n)
		fmt.Fprintf(w, "slowest %d of the retained slides (tracer mode %s, %d slides recorded)\n\n",
			len(spans), tr.Mode(), tr.Committed())
	} else {
		spans = tr.Recent(n)
		fmt.Fprintf(w, "most recent %d slides (tracer mode %s, %d slides recorded)\n\n",
			len(spans), tr.Mode(), tr.Committed())
	}
	if len(spans) == 0 {
		fmt.Fprintln(w, "no slides recorded yet")
		return
	}
	for _, sp := range spans {
		fmt.Fprint(w, sp.Format())
		fmt.Fprintln(w)
	}
}

// handleTrace exports one slide's full span tree — pool phases plus the
// stitched per-attempt worker spans — as Chrome trace-event JSON,
// loadable in Perfetto or chrome://tracing. ?slide=N selects the slide;
// without it the most recently recorded slide is exported.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	tr := s.tracer()
	if tr == nil {
		http.Error(w, "no tracer configured", http.StatusNotFound)
		return
	}
	var root *metrics.Span
	if q := r.URL.Query().Get("slide"); q != "" {
		id, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			http.Error(w, "bad slide id: "+q, http.StatusBadRequest)
			return
		}
		if root = tr.Find(id); root == nil {
			http.Error(w, fmt.Sprintf("slide %d not retained (ring keeps the most recent slides)", id), http.StatusNotFound)
			return
		}
	} else if recent := tr.Recent(1); len(recent) > 0 {
		root = recent[0]
	} else {
		http.Error(w, "no slides recorded yet", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", fmt.Sprintf("inline; filename=%q", fmt.Sprintf("slide-%d-trace.json", root.SlideID())))
	if err := metrics.WriteChromeTrace(w, root); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// handleTree renders the latest contraction-tree snapshot.
func (s *Server) handleTree(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.cfg.Tree == nil {
		fmt.Fprintln(w, "no tree source configured")
		return
	}
	snap := s.cfg.Tree()
	if snap == nil {
		fmt.Fprintln(w, "no slide completed yet")
		return
	}
	fmt.Fprintf(w, "variant: %s (mode %s)\n", snap.Variant, snap.Mode)
	fmt.Fprintf(w, "slide: %d\n", snap.SlideID)
	fmt.Fprintf(w, "window: %d live splits, oldest seq %d\n", snap.Live, snap.WindowLo)
	fmt.Fprintf(w, "memo: %d hits, %d misses (hit ratio %.3f)\n", snap.MemoHits, snap.MemoMisses, snap.HitRatio())
	fmt.Fprintf(w, "fingerprint: %016x\n", snap.Fingerprint)
	for p, sh := range snap.Partitions {
		fmt.Fprintf(w, "partition %d: height=%d live=%d nodes=%d", p, sh.Height, sh.Live, sh.Nodes)
		if sh.Levels != nil {
			fmt.Fprintf(w, " levels=%v", sh.Levels)
		}
		fmt.Fprintln(w)
	}
}

// handleMetrics renders the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if o := s.cfg.Slide; o != nil {
		phaseHeader := false
		for _, nh := range o.All() {
			name := "slider_" + nh.Name + "_seconds"
			if nh.Name == "phase" {
				// One # TYPE header for the whole per-phase family; the
				// exposition format forbids repeating it per label series.
				if !phaseHeader {
					fmt.Fprintf(w, "# TYPE %s histogram\n", name)
					phaseHeader = true
				}
				writeHistogramSeries(w, name, `phase="`+nh.Phase+`"`, nh.Hist.Snapshot())
			} else {
				writeHistogram(w, name, "", nh.Hist.Snapshot())
			}
		}
	}
	if f := s.cfg.Fault; f != nil {
		snap := f.Snapshot()
		fmt.Fprintln(w, "# HELP slider_fault_events_total Fault-tolerance events by kind.")
		fmt.Fprintln(w, "# TYPE slider_fault_events_total counter")
		snap.EachCounter(func(name string, v int64) {
			fmt.Fprintf(w, "slider_fault_events_total{event=%q} %d\n", name, v)
		})
		writeHistogram(w, "slider_rpc_batch_seconds", "", snap.RPCLatency)
	}
	if s.cfg.Memo != nil {
		ms := s.cfg.Memo()
		fmt.Fprintln(w, "# TYPE slider_memo_hits_total counter")
		fmt.Fprintf(w, "slider_memo_hits_total %d\n", ms.Hits)
		fmt.Fprintln(w, "# TYPE slider_memo_misses_total counter")
		fmt.Fprintf(w, "slider_memo_misses_total %d\n", ms.Misses)
		fmt.Fprintln(w, "# TYPE slider_memo_hit_ratio gauge")
		ratio := 0.0
		if ms.Hits+ms.Misses > 0 {
			ratio = float64(ms.Hits) / float64(ms.Hits+ms.Misses)
		}
		fmt.Fprintf(w, "slider_memo_hit_ratio %g\n", ratio)
		fmt.Fprintln(w, "# TYPE slider_memo_resident_bytes gauge")
		fmt.Fprintf(w, "slider_memo_resident_bytes %d\n", ms.Bytes)
		fmt.Fprintln(w, "# TYPE slider_memo_entries gauge")
		fmt.Fprintf(w, "slider_memo_entries %d\n", ms.Entries)
	}
	if s.cfg.Tree != nil {
		if snap := s.cfg.Tree(); snap != nil {
			fmt.Fprintln(w, "# TYPE slider_slides_total counter")
			fmt.Fprintf(w, "slider_slides_total %d\n", snap.SlideID)
			fmt.Fprintln(w, "# TYPE slider_window_live_splits gauge")
			fmt.Fprintf(w, "slider_window_live_splits %d\n", snap.Live)
		}
	}
	if s.cfg.Window != nil {
		ws := s.cfg.Window()
		fmt.Fprintln(w, "# HELP slider_window_live_buckets Bucket-ledger width: live buckets of a Fixed window, late inserts included (0 for a window of splits: Append, Variable, the strawman).")
		fmt.Fprintln(w, "# TYPE slider_window_live_buckets gauge")
		fmt.Fprintf(w, "slider_window_live_buckets %d\n", ws.LiveBuckets)
		fmt.Fprintln(w, "# HELP slider_window_watermark_lag_buckets How many buckets the effective watermark trails the newest in-order bucket.")
		fmt.Fprintln(w, "# TYPE slider_window_watermark_lag_buckets gauge")
		fmt.Fprintf(w, "slider_window_watermark_lag_buckets %d\n", ws.WatermarkLag)
		fmt.Fprintln(w, "# HELP slider_late_arrivals_total AdvanceLate outcomes: accepted late buckets vs ErrTooLate rejections.")
		fmt.Fprintln(w, "# TYPE slider_late_arrivals_total counter")
		fmt.Fprintf(w, "slider_late_arrivals_total{result=\"accept\"} %d\n", ws.LateAccepts)
		fmt.Fprintf(w, "slider_late_arrivals_total{result=\"reject\"} %d\n", ws.LateRejects)
		fmt.Fprintln(w, "# HELP slider_free_list_bytes Dead payload storage the partitions' free lists and structures hold for the next merges (not in the memoized-state size).")
		fmt.Fprintln(w, "# TYPE slider_free_list_bytes gauge")
		fmt.Fprintf(w, "slider_free_list_bytes %d\n", ws.FreeListBytes)
	}
	if s.cfg.Cluster != nil {
		cs := s.cfg.Cluster()
		if len(cs.Workers) > 0 {
			writeWorkerFamilies(w, cs.Workers)
			m := cs.Merged()
			fmt.Fprintln(w, "# HELP slider_cluster_workers Workers with a federated stats snapshot.")
			fmt.Fprintln(w, "# TYPE slider_cluster_workers gauge")
			fmt.Fprintf(w, "slider_cluster_workers %d\n", len(cs.Workers))
			fmt.Fprintln(w, "# TYPE slider_cluster_served_total counter")
			fmt.Fprintf(w, "slider_cluster_served_total %d\n", m.Served)
			fmt.Fprintln(w, "# TYPE slider_cluster_fault_events_total counter")
			m.Faults.EachCounter(func(name string, v int64) {
				fmt.Fprintf(w, "slider_cluster_fault_events_total{event=%q} %d\n", name, v)
			})
			for _, h := range m.Hists {
				writeHistogram(w, "slider_cluster_"+h.Name+"_seconds", "", h.Snap)
			}
		}
	}
	if s.cfg.Node != nil {
		writeWorkerFamilies(w, []metrics.NodeStats{s.cfg.Node()})
	}
}

// writeWorkerFamilies renders per-worker labeled families — served
// counts, fault counters, and per-phase latency histograms — emitting
// each family's # TYPE exactly once across all worker label series (the
// exposition format forbids repeating it).
func writeWorkerFamilies(w http.ResponseWriter, nodes []metrics.NodeStats) {
	fmt.Fprintln(w, "# HELP slider_worker_served_total Map tasks executed, by worker (federated over the stats call).")
	fmt.Fprintln(w, "# TYPE slider_worker_served_total counter")
	for _, n := range nodes {
		fmt.Fprintf(w, "slider_worker_served_total{worker=%q} %d\n", n.Node, n.Served)
	}
	fmt.Fprintln(w, "# TYPE slider_worker_fault_events_total counter")
	for _, n := range nodes {
		n.Faults.EachCounter(func(name string, v int64) {
			fmt.Fprintf(w, "slider_worker_fault_events_total{worker=%q,event=%q} %d\n", n.Node, name, v)
		})
	}
	// Histogram family names in first-seen order across the nodes.
	var famOrder []string
	seen := map[string]bool{}
	for _, n := range nodes {
		for _, h := range n.Hists {
			if !seen[h.Name] {
				seen[h.Name] = true
				famOrder = append(famOrder, h.Name)
			}
		}
	}
	for _, fam := range famOrder {
		name := "slider_worker_" + fam + "_seconds"
		fmt.Fprintf(w, "# TYPE %s histogram\n", name)
		for _, n := range nodes {
			if snap, ok := n.Hist(fam); ok {
				writeHistogramSeries(w, name, `worker="`+n.Node+`"`, snap)
			}
		}
	}
}

// writeHistogram renders one fixed-bucket latency histogram in the
// Prometheus exposition format: the family's # TYPE header followed by
// one label series.
func writeHistogram(w http.ResponseWriter, name, label string, snap metrics.HistogramSnapshot) {
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	writeHistogramSeries(w, name, label, snap)
}

// writeHistogramSeries renders one histogram label series without the
// # TYPE header (families with several label series — per-phase,
// per-worker — emit the header once and call this per series):
// cumulative le buckets in seconds, then _sum and _count. The count is
// the bucket total, so the series is always self-consistent even
// against in-flight recordings.
func writeHistogramSeries(w http.ResponseWriter, name, label string, snap metrics.HistogramSnapshot) {
	sep := func(extra string) string {
		switch {
		case label == "" && extra == "":
			return ""
		case label == "":
			return "{" + extra + "}"
		case extra == "":
			return "{" + label + "}"
		default:
			return "{" + label + "," + extra + "}"
		}
	}
	var cum int64
	for i, c := range snap.Counts {
		cum += c
		le := strconv.FormatFloat(metrics.HistogramUpperBound(i).Seconds(), 'g', -1, 64)
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, sep(`le="`+le+`"`), cum)
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, sep(`le="+Inf"`), cum)
	fmt.Fprintf(w, "%s_sum%s %g\n", name, sep(""), time.Duration(snap.SumNs).Seconds())
	fmt.Fprintf(w, "%s_count%s %d\n", name, sep(""), cum)
}
