package sliderrt

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"slider/internal/core"
)

// StateFingerprint returns a canonical hash of the runtime's window
// state — the same state Checkpoint persists: per-partition tree
// payloads plus the window bookkeeping. Payloads are hashed in entry
// order, which is key order, so two runtimes holding identical logical
// state fingerprint identically regardless of codec framing or the
// parallelism they were computed at. Harnesses use it
// to assert that checkpoint/restore round-trips and parallelism changes
// preserve state bit-for-bit at the logical level; it is not a wire
// format and may change between releases. Like Checkpoint it runs the last
// run's upkeep first, so it is the same whether or not Background was
// called; an upkeep that fails poisons the window, which the next run
// reports.
func (rt *Runtime) StateFingerprint() uint64 {
	_ = rt.Background()
	h := fnv.New64a()
	var scratch [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(scratch[:], v)
		h.Write(scratch[:])
	}
	str := func(s string) {
		u64(uint64(len(s)))
		h.Write([]byte(s))
	}
	payload := func(p Payload) {
		u64(uint64(len(p)))
		for _, e := range p {
			str(e.Key)
			str(fmt.Sprintf("%T:%v", e.Value, e.Value))
		}
	}
	payloads := func(ps []sized) {
		u64(uint64(len(ps)))
		for _, p := range ps {
			payload(p.P)
		}
	}
	items := func(st core.State[sized]) {
		u64(uint64(len(st.Elems)))
		for i, e := range st.Elems {
			u64(st.IDs[i])
			payload(e.P)
		}
	}
	optional := func(p sized, has bool) {
		if has {
			payload(p.P)
		} else {
			u64(0)
		}
	}
	flag := func(b bool) {
		if b {
			u64(1)
		} else {
			u64(0)
		}
	}

	u64(rt.seq)
	u64(rt.windowLo)
	u64(uint64(rt.live))
	u64(uint64(rt.backend))
	for p, agg := range rt.aggs {
		st := agg.Snapshot()
		switch groupOf(rt.cfg.Mode, rt.backend) {
		case groupRoot:
			optional(st.Root, st.HasRoot)
			optional(st.Pending, st.HasPending)
		case groupBuckets:
			if p == 0 && (rt.periods() || rt.outOfOrder()) {
				// The bucket ledger and watermark clock are part of the
				// logical window state (shared across partitions, so
				// hashed once). A ledger of buckets of w is a function of
				// windowLo, w and the bucket count, hashed already: only
				// one whose buckets vary in width is hashed.
				u64(uint64(len(rt.bucketSizes)))
				for _, sz := range rt.bucketSizes {
					u64(uint64(sz))
				}
				u64(rt.bucketSeq)
			}
			if st.Circular {
				u64(uint64(st.Victim))
			}
			flag(st.Filled)
			payloads(st.Elems)
		default:
			if st.IDs != nil {
				items(st)
			} else {
				payloads(st.Elems)
			}
		}
	}
	return h.Sum64()
}
