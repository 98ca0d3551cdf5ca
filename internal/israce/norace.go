//go:build !race

// Package israce says whether the binary was built with the race detector,
// for the tests that measure what the detector changes: timings, and what a
// sync.Pool keeps (under the detector Put drops one item in four, at random,
// so that nothing comes to depend on a pool keeping anything).
package israce

const Enabled = false
