package sliderrt

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"

	"slider/internal/core"
)

// StateFingerprint returns a canonical hash of the runtime's window
// state — the same state Checkpoint persists: per-partition tree
// payloads plus the window bookkeeping. Payload maps are hashed in
// sorted-key order, so two runtimes holding identical logical state
// fingerprint identically regardless of map iteration order, codec
// framing, or the parallelism they were computed at. Harnesses use it
// to assert that checkpoint/restore round-trips and parallelism changes
// preserve state bit-for-bit at the logical level; it is not a wire
// format and may change between releases.
func (rt *Runtime) StateFingerprint() uint64 {
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
		keys := make([]string, 0, len(p))
		for k := range p {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		u64(uint64(len(keys)))
		for _, k := range keys {
			str(k)
			str(fmt.Sprintf("%T:%v", p[k], p[k]))
		}
	}
	payloads := func(ps []sized) {
		u64(uint64(len(ps)))
		for _, p := range ps {
			payload(p.P)
		}
	}
	items := func(list []core.Item[sized]) {
		u64(uint64(len(list)))
		for _, it := range list {
			u64(it.ID)
			payload(it.Payload.P)
		}
	}

	u64(rt.seq)
	u64(rt.windowLo)
	u64(uint64(rt.live))
	u64(uint64(rt.backend))
	for p := 0; p < rt.parts; p++ {
		switch {
		case rt.cfg.Engine == Strawman:
			items(rt.leaves[p])
		case rt.cfg.Mode == Append:
			root, hasRoot := rt.coal[p].Root()
			pending, hasPending := rt.coal[p].PendingPayload()
			if hasRoot {
				payload(root.P)
			} else {
				u64(0)
			}
			if hasPending {
				payload(pending.P)
			} else {
				u64(0)
			}
		case rt.cfg.Mode == Fixed:
			var buckets []sized
			var filled bool
			switch rt.backend {
			case BackendDaba:
				buckets, filled = rt.daba[p].BucketPayloads()
			case BackendFingerTree:
				buckets, filled = rt.finger[p].BucketPayloads()
				if p == 0 {
					// The bucket ledger and watermark clock are part of the
					// logical window state (shared across partitions, so
					// hashed once).
					u64(uint64(len(rt.bucketSizes)))
					for _, sz := range rt.bucketSizes {
						u64(uint64(sz))
					}
					u64(rt.bucketSeq)
				}
			default:
				buckets, filled = rt.rot[p].BucketPayloads()
				u64(uint64(rt.rot[p].Victim()))
			}
			if filled {
				u64(1)
			} else {
				u64(0)
			}
			payloads(buckets)
		case rt.cfg.Randomized:
			items(rt.rnd[p].Items())
		default:
			payloads(rt.fold[p].Payloads())
		}
	}
	return h.Sum64()
}
