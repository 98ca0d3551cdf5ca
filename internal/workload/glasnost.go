package workload

import (
	"math"
	"strconv"

	"slider/internal/mapreduce"
)

// TestRun is one record of the Glasnost case study (§8.2): one
// measurement run against one measurement server, reduced to the minimum
// RTT observed in its packet trace (the paper computes this min from the
// pcap; our generator emits it directly — see DESIGN.md §2).
type TestRun struct {
	// Server identifies the measurement server.
	Server int16
	// MinRTTMs is the run's minimum round-trip time in milliseconds.
	MinRTTMs float64
}

// GlasnostConfig parameterizes the synthetic measurement trace.
type GlasnostConfig struct {
	// Seed fixes the trace.
	Seed int64
	// Servers is the number of measurement servers.
	Servers int
	// RunsPerSplit is the number of test runs per input split.
	RunsPerSplit int
	// SplitsPerMonth is how many splits one month of data occupies.
	SplitsPerMonth int
}

// Glasnost generates monthly measurement-trace splits. RTT distributions
// are lognormal per server with a slow seasonal drift, so medians move
// month over month (which is what the monitoring analysis watches).
type Glasnost struct {
	cfg GlasnostConfig
}

// NewGlasnost returns a trace generator.
func NewGlasnost(cfg GlasnostConfig) *Glasnost {
	if cfg.Servers <= 0 {
		cfg.Servers = 8
	}
	if cfg.RunsPerSplit <= 0 {
		cfg.RunsPerSplit = 150
	}
	if cfg.SplitsPerMonth <= 0 {
		cfg.SplitsPerMonth = 4
	}
	return &Glasnost{cfg: cfg}
}

// Split returns trace split i.
func (g *Glasnost) Split(i int) mapreduce.Split {
	rng := splitRNG(g.cfg.Seed, "glasnost", i)
	month := i / g.cfg.SplitsPerMonth
	records := make([]mapreduce.Record, g.cfg.RunsPerSplit)
	for j := range records {
		server := int16(rng.Intn(g.cfg.Servers))
		// Base distance per server plus a seasonal drift and lognormal
		// user-access jitter.
		base := 20 + 15*float64(server)
		drift := 5 * math.Sin(float64(month)/3)
		jitter := math.Exp(rng.NormFloat64()*0.5) * 10
		records[j] = TestRun{Server: server, MinRTTMs: base + drift + jitter}
	}
	return mapreduce.Split{ID: "glasnost-" + strconv.Itoa(i), Records: records}
}

// MonthSplitCount returns how many splits month m contributes in the
// variable-volume trace: measurement volume fluctuates month to month
// (the paper's Table 3 shows 27–51% window change), which we reproduce
// with a deterministic per-month factor of 0.5×–1.5× the base volume.
func (g *Glasnost) MonthSplitCount(m int) int {
	h := splitmix(uint64(m) ^ uint64(g.cfg.Seed))
	factor := 0.5 + float64(h%1024)/1024.0 // [0.5, 1.5)
	n := int(float64(g.cfg.SplitsPerMonth)*factor + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// splitmix is a small avalanche hash for deterministic month volumes.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// MonthSplitsVar returns month m's splits in the variable-volume trace,
// using globally contiguous split indices.
func (g *Glasnost) MonthSplitsVar(m int) []mapreduce.Split {
	first := 0
	for i := 0; i < m; i++ {
		first += g.MonthSplitCount(i)
	}
	count := g.MonthSplitCount(m)
	out := make([]mapreduce.Split, 0, count)
	for i := 0; i < count; i++ {
		out = append(out, g.Split(first+i))
	}
	return out
}

// MonthRange returns the splits covering months [loMonth, hiMonth).
func (g *Glasnost) MonthRange(loMonth, hiMonth int) []mapreduce.Split {
	lo := loMonth * g.cfg.SplitsPerMonth
	hi := hiMonth * g.cfg.SplitsPerMonth
	out := make([]mapreduce.Split, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, g.Split(i))
	}
	return out
}
