package sliderrt

import (
	"bytes"
	"os"
	"runtime"
	"testing"

	"slider/internal/persist"
)

// FuzzRestore feeds Restore whatever bytes a damaged or hostile checkpoint
// could hold, under each golden checkpoint's configuration, and holds it
// to three promises: nothing panics; what it allocates is bounded by the
// bytes it was handed, times a small constant, plus a constant (the
// runtime it builds, gob's compiled types) — the bound of the wire
// fuzzers; and a frame it accepts is a state it can carry on from, so a
// checkpoint of the restored runtime restores to the same fingerprint.
//
// A mutated byte almost never survives a crc32, so the input runs either
// as it is — headers, magics, lengths, truncation — or as the gob body of
// a value frame given a valid header, which puts the mutations where the
// checkpoint decoder reads them. The seeds are every golden checkpoint as
// written (sld1), rewritten under sld2 and as the version-3 frame a restored
// runtime writes back, which restore, and numbered version 1, without a
// backend or with the state of partitions 0 and 1 swapped, which Restore
// refuses — raw and as bodies to reframe.
func FuzzRestore(f *testing.F) {
	cases := identityCases()
	value, err := persist.Encode(0)
	if err != nil {
		f.Fatal(err)
	}
	valueKind, _, err := persist.OpenFrame(value)
	if err != nil {
		f.Fatal(err)
	}
	for i, c := range cases {
		golden, err := os.ReadFile(goldenPath(c.name))
		if err != nil {
			f.Fatal(err)
		}
		cfg := c.cfg
		cfg.Memo = testMemoConfig()
		v1 := rewriteFrame(f, golden, version1)
		f.Add(golden, false, uint8(i))
		v3 := recheckpoint(f, cfg, golden)
		swapped := rewriteFrame(f, v3, func(st *goldenBody) {
			st.Partitions[0], st.Partitions[1] = st.Partitions[1], st.Partitions[0]
		})
		for _, frame := range [][]byte{rewriteFrame(f, golden, nil), v1, rewriteFrame(f, golden, zeroBackend), rewriteFrame(f, v1, zeroBackend), v3, swapped} {
			f.Add(frame, false, uint8(i))
			f.Add(frame[persist.FramePrefixLen:], true, uint8(i))
		}
	}

	f.Fuzz(func(t *testing.T, data []byte, reframe bool, which uint8) {
		c := cases[int(which)%len(cases)]
		cfg := c.cfg
		cfg.Memo = testMemoConfig()
		frame := data
		if reframe {
			frame = persist.StartFrame(nil, valueKind)
			frame = persist.FinishFrame(append(frame, data...), len(frame))
		}
		job := wordCountJob()
		var rt *Runtime
		var restoreErr error
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rt, restoreErr = Restore(job, cfg, bytes.NewReader(frame))
		runtime.ReadMemStats(&after)
		if n, limit := after.TotalAlloc-before.TotalAlloc, uint64(128*len(frame)+256<<10); n > limit {
			t.Fatalf("Restore allocated %d bytes over a %d-byte frame (limit %d)", n, len(frame), limit)
		}
		if restoreErr != nil {
			return
		}
		fp := rt.StateFingerprint()
		var again bytes.Buffer
		if err := rt.Checkpoint(&again); err != nil {
			t.Fatalf("an accepted frame does not checkpoint again: %v", err)
		}
		back, err := Restore(wordCountJob(), cfg, &again)
		if err != nil {
			t.Fatalf("the checkpoint of an accepted frame does not restore: %v", err)
		}
		if got := back.StateFingerprint(); got != fp {
			t.Fatalf("checkpoint and restore moved the fingerprint: %#x, accepted frame %#x", got, fp)
		}
	})
}
