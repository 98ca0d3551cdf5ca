package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"
)

// clock is what every end-to-end timing is read off. It is not the wall
// clock, because this benchmark runs on a few cores of a shared host whose
// speed changes by the second: the hypervisor takes the CPU away for a
// fifth of the time in one minute and not at all in the next, and the same
// arithmetic runs 1.7 times faster in one second than in another. Two things
// take most of that out of the numbers:
//
//   - now() is the CPU time the program under test has consumed, this
//     process plus the worker processes. It stands still while the host
//     runs somebody else.
//   - calibrate() times a fixed piece of work, the reference, on that same
//     clock every few slides. Every timing of a run is multiplied by the
//     factor that brings the reference's median to referenceMs, which
//     states it as the time it would have taken on a host that runs the
//     reference in exactly referenceMs.
//
// The raw wall-clock timings of the same stream are per-layer metrics
// (stream.wall_*), beside the host's state (host.*).
type clock struct {
	pids    []int // worker processes, besides this one
	ref     *reference
	samples []float64 // CPU milliseconds of each reference run
	last    time.Duration
	err     error // the first failed reading; the run ends on it
}

// referenceMs is about what the reference costs on the host the benchmark
// was written on when nothing else runs there, so that scaled timings read
// like milliseconds of that host.
const referenceMs = 5.0

func (c *clock) now() time.Duration {
	t, err := processCPU(0)
	for _, pid := range c.pids {
		var w time.Duration
		if err == nil {
			w, err = processCPU(pid)
		}
		t += w
	}
	if err != nil {
		if c.err == nil {
			c.err = err
		}
		return c.last
	}
	c.last = t
	return t
}

func (c *clock) calibrate() {
	start := c.now()
	c.ref.run()
	c.samples = append(c.samples, float64(c.now()-start)/1e6)
}

// reference is the fixed work calibrate() times. It is the benchmark's own
// code and data, the same for every seed and workload, and it does what
// the workloads spend their time on: it counts the words of 200 lines into
// a hash map, merges that map into a copy of a 12 000-word one and sorts
// the result's keys. Whatever slows hashing, string comparison and memory
// traffic on the host slows it as much. It allocates nothing once built,
// so it leaves the program's allocation counts and garbage collector
// alone.
type reference struct {
	lines  []string
	base   map[string]int64 // word counts of all of lines
	delta  map[string]int64
	merged map[string]int64
	keys   []string
	next   int // first line of the next run
}

const (
	referenceLines     = 20000
	referenceVocab     = 20000
	referenceBatch     = 200 // lines counted per run
	referenceLineWords = 12
)

func newReference() *reference {
	rng := rand.New(rand.NewSource(0x736c6964))
	zipf := rand.NewZipf(rng, 1.2, 1, referenceVocab-1)
	r := &reference{base: map[string]int64{}, delta: map[string]int64{}, merged: map[string]int64{}}
	var sb strings.Builder
	for i := 0; i < referenceLines; i++ {
		sb.Reset()
		for j := 0; j < referenceLineWords; j++ {
			if j > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "w%05d", zipf.Uint64())
		}
		r.lines = append(r.lines, sb.String())
	}
	for _, line := range r.lines {
		countWords(line, r.base)
	}
	r.keys = make([]string, 0, len(r.base))
	r.run() // grows the maps to their final size
	return r
}

func (r *reference) run() {
	clear(r.delta)
	for i := 0; i < referenceBatch; i++ {
		countWords(r.lines[(r.next+i)%len(r.lines)], r.delta)
	}
	r.next = (r.next + referenceBatch) % len(r.lines)
	clear(r.merged)
	for w, n := range r.base {
		r.merged[w] = n
	}
	for w, n := range r.delta {
		r.merged[w] += n
	}
	r.keys = r.keys[:0]
	for w := range r.merged {
		r.keys = append(r.keys, w)
	}
	sort.Strings(r.keys)
}

// countWords adds the space-separated words of line to counts without
// allocating: a word already counted is found by a substring of line.
func countWords(line string, counts map[string]int64) {
	for len(line) > 0 {
		end := strings.IndexByte(line, ' ')
		if end < 0 {
			end = len(line)
		}
		if end > 0 {
			counts[line[:end]]++
		}
		if end == len(line) {
			return
		}
		line = line[end+1:]
	}
}
