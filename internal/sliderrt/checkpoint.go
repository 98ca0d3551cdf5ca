package sliderrt

import (
	"fmt"
	"io"

	"slider/internal/core"
	"slider/internal/mapreduce"
	"slider/internal/persist"
)

// checkpointVersion is the body Checkpoint writes and the one Restore
// takes. Version 3 carries payload state as persist's flat payload frames,
// names the structure by Backend alone and holds the bucket ledger of every
// Fixed window whose elements are buckets.
const checkpointVersion = 3

// checkpointState is the body of a checkpoint: the window bookkeeping plus,
// per partition, the minimal tree state from which the contraction
// structure is rebuilt on restore.
type checkpointState struct {
	Version int
	Mode    Mode
	// Backend records the resolved aggregation backend: it decides how a
	// Fixed-mode partition's Buckets are interpreted (window order for
	// daba and the finger tree, leaf-position order plus Victim for
	// rotating) and lets a runtime restored under BackendAuto resume on the
	// structure its writer was using. Every writer names one; a body that
	// names none is refused.
	Backend       Backend
	BucketSplits  int
	WindowBuckets int
	Seq           uint64
	WindowLo      uint64
	Live          int
	Parts         int
	// Bucket ledger of a Fixed window whose elements are buckets: splits per
	// live bucket in window order, and the in-order bucket clock the
	// watermark and the daba kind's flip phase are read off. Nil and zero
	// for every other window.
	BucketSizes []int
	BucketSeq   uint64
	Partitions  []partCheckpoint
}

// partCheckpoint holds one partition's tree state as payload frames
// (persist.EncodePayload) and payload-set frames (persist.EncodePayloadSet).
// Exactly one field group is populated, matching the runtime's mode and
// backend.
type partCheckpoint struct {
	// Append mode (coalescing tree).
	HasRoot     bool
	HasPending  bool
	FlatRoot    []byte
	FlatPending []byte
	// Fixed mode (rotating or daba buckets).
	Victim      int
	Filled      bool
	FlatBuckets []byte
	// Variable mode and the strawman (leaf sequences).
	LeafIDs    []uint64
	FlatLeaves []byte
}

// Checkpoint serializes the runtime's window state so that processing can
// resume after a driver crash or restart (Restore). Application value
// types stored in payloads must be registered with persist.RegisterType
// first. Checkpointing between runs captures a consistent state: the last
// run's upkeep (Background) runs first if nobody has run it.
func (rt *Runtime) Checkpoint(w io.Writer) error {
	if !rt.started {
		return ErrNotInitial
	}
	if err := rt.Background(); err != nil {
		return err
	}
	st := checkpointState{
		Version:       checkpointVersion,
		Mode:          rt.cfg.Mode,
		Backend:       rt.backend,
		BucketSplits:  rt.cfg.BucketSplits,
		WindowBuckets: rt.cfg.WindowBuckets,
		Seq:           rt.seq,
		WindowLo:      rt.windowLo,
		Live:          rt.live,
		Parts:         rt.parts,
		BucketSizes:   rt.bucketSizes,
		BucketSeq:     rt.bucketSeq,
		Partitions:    make([]partCheckpoint, rt.parts),
	}
	for p, agg := range rt.aggs {
		if err := rt.encodePartition(&st.Partitions[p], agg.Snapshot()); err != nil {
			return fmt.Errorf("sliderrt: checkpoint partition %d: %w", p, err)
		}
	}
	frame, err := persist.Encode(st)
	if err != nil {
		return fmt.Errorf("sliderrt: checkpoint: %w", err)
	}
	if _, err := w.Write(frame); err != nil {
		return fmt.Errorf("sliderrt: checkpoint write: %w", err)
	}
	return nil
}

// stateGroup names the partCheckpoint field group a configuration's
// aggregator state travels in. It follows the window mode — what the
// elements are — never the structure behind the aggregator.
type stateGroup int

const (
	groupLeaves  stateGroup = iota // per-split leaves (Variable mode, the strawman)
	groupRoot                      // coalescing root + pending (Append mode)
	groupBuckets                   // fixed-width buckets (Fixed mode)
)

// groupOf is the field group of a window of the mode over the backend.
func groupOf(mode Mode, backend Backend) stateGroup {
	switch {
	case backend == BackendStrawman:
		return groupLeaves
	case mode == Append:
		return groupRoot
	case mode == Fixed:
		return groupBuckets
	}
	return groupLeaves
}

// encodePartition writes one aggregator's snapshot into its field group.
func (rt *Runtime) encodePartition(pc *partCheckpoint, st core.State[sized]) (err error) {
	switch groupOf(rt.cfg.Mode, rt.backend) {
	case groupRoot:
		pc.HasRoot, pc.HasPending = st.HasRoot, st.HasPending
		if pc.HasRoot {
			pc.FlatRoot, err = persist.EncodePayload(st.Root.P)
		}
		if pc.HasPending && err == nil {
			pc.FlatPending, err = persist.EncodePayload(st.Pending.P)
		}
	case groupBuckets:
		pc.Victim, pc.Filled = st.Victim, st.Filled
		pc.FlatBuckets, err = persist.EncodeSizedSet(st.Elems)
	default:
		pc.LeafIDs = st.IDs
		pc.FlatLeaves, err = persist.EncodeSizedSet(st.Elems)
	}
	return err
}

// decodePartition is encodePartition's inverse. The frame is untrusted:
// every length and presence flag is checked here, before any aggregator is
// touched, and decoded payloads are measured — restore is where they are
// created, so this is the one walk they get (see sized). pos is a bucket
// window's position (see core.State.Pos and firstBucket).
func (rt *Runtime) decodePartition(pc *partCheckpoint, seq, pos uint64) (core.State[sized], error) {
	var st core.State[sized]
	var elems []Payload
	var err error
	switch groupOf(rt.cfg.Mode, rt.backend) {
	case groupRoot:
		if pc.HasRoot != (len(pc.FlatRoot) > 0) || pc.HasPending != (len(pc.FlatPending) > 0) {
			return st, fmt.Errorf("root/pending flags disagree with the persisted payloads")
		}
		var root, pending Payload
		if pc.HasRoot {
			root, err = persist.DecodePayload(pc.FlatRoot)
		}
		if pc.HasPending && err == nil {
			pending, err = persist.DecodePayload(pc.FlatPending)
		}
		if err != nil {
			return st, err
		}
		st.Root, st.HasRoot = mapreduce.Size(root), pc.HasRoot
		st.Pending, st.HasPending = mapreduce.Size(pending), pc.HasPending
		return st, nil
	case groupBuckets:
		if !pc.Filled {
			return st, fmt.Errorf("window not filled")
		}
		elems, err = persist.DecodePayloadSet(pc.FlatBuckets)
		// Only the rotating tree holds its buckets in leaf-position order,
		// the oldest at Victim; every other structure's are in window order.
		if v := pc.Victim; err == nil && v != 0 && (rt.backend != BackendRotating || v < 0 || v >= len(elems)) {
			return st, fmt.Errorf("a %v window of %d buckets has no victim cursor %d", rt.backend, len(elems), v)
		}
		st.Victim, st.Filled = pc.Victim, true
		st.Pos = pos
	default:
		elems, err = persist.DecodePayloadSet(pc.FlatLeaves)
		st.IDs, st.NextID = pc.LeafIDs, seq
	}
	if err != nil {
		return st, err
	}
	st.Elems = make([]sized, len(elems))
	for i, p := range elems {
		st.Elems[i] = mapreduce.Size(p)
	}
	return st, nil
}

// Restore reconstructs a runtime from a checkpoint produced by
// Checkpoint: one sld2 value frame holding a version-3 body. The job
// and configuration must match the checkpointed runtime's (mode, backend,
// and bucket geometry are verified; under BackendAuto the restore follows
// the checkpoint's backend). The contraction trees are rebuilt from the
// persisted leaf state; the next Advance continues the window where the
// checkpoint left it.
func Restore(job *mapreduce.Job, cfg Config, r io.Reader) (*Runtime, error) {
	frame, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("sliderrt: restore read: %w", err)
	}
	var st checkpointState
	if err := persist.Decode(frame, &st); err != nil {
		return nil, fmt.Errorf("sliderrt: restore: %w", err)
	}
	switch {
	case st.Version != checkpointVersion:
		return nil, fmt.Errorf("sliderrt: restore: unsupported checkpoint version %d (this reader takes version %d)", st.Version, checkpointVersion)
	case st.Backend == BackendAuto:
		return nil, fmt.Errorf("sliderrt: restore: checkpoint names no backend")
	}
	// A restore that names no backend follows the checkpoint's, so a pinned
	// writer's state is never reinterpreted; New holds the followed backend
	// to the same matrix as a named one.
	if cfg.Backend == BackendAuto {
		cfg.Backend = st.Backend
	}
	rt, err := New(job, cfg)
	if err != nil {
		return nil, err
	}
	if rt.cfg.Mode != st.Mode || st.Backend != rt.backend {
		return nil, fmt.Errorf("%w: restore: configuration mismatch (checkpoint %v/%v, config %v/%v)",
			ErrBadBackend, st.Mode, st.Backend, rt.cfg.Mode, rt.backend)
	}
	if rt.cfg.Mode == Fixed &&
		(rt.cfg.BucketSplits != st.BucketSplits || rt.cfg.WindowBuckets != st.WindowBuckets) {
		return nil, fmt.Errorf("sliderrt: restore: bucket geometry mismatch")
	}
	if st.Parts != rt.parts {
		return nil, fmt.Errorf("sliderrt: restore: partition count mismatch (checkpoint %d, job %d)",
			st.Parts, rt.parts)
	}
	if len(st.Partitions) != rt.parts {
		return nil, fmt.Errorf("sliderrt: restore: checkpoint holds %d partitions, header says %d",
			len(st.Partitions), rt.parts)
	}
	// Every partition's frame is decoded and validated, each key held to the
	// partition it hashes to, and the bucket ledger held to what they hold,
	// before any aggregator is touched; the aggregator's Restore checks what
	// only it can know (identity counts). A frame whose partitions were
	// swapped passes every length check, and a key restored into the wrong
	// partition is one no slide that evicts or adds it ever touches.
	rt.installAggregators()
	rt.bucketSizes, rt.bucketSeq = st.BucketSizes, st.BucketSeq
	states := make([]core.State[sized], rt.parts)
	for p := range st.Partitions {
		if states[p], err = rt.decodePartition(&st.Partitions[p], st.Seq, rt.firstBucket()); err != nil {
			return nil, fmt.Errorf("sliderrt: restore partition %d: %w", p, err)
		}
		for _, s := range append([]sized{states[p].Root, states[p].Pending}, states[p].Elems...) {
			for _, e := range s.P {
				if q := mapreduce.Partition(e.Key, rt.parts); q != p {
					return nil, fmt.Errorf("sliderrt: restore partition %d: key %q belongs to partition %d", p, e.Key, q)
				}
			}
		}
	}
	if err := rt.checkLedger(st.WindowLo, st.Live, states); err != nil {
		return nil, fmt.Errorf("sliderrt: restore: %w", err)
	}
	for p, state := range states {
		if err := rt.aggs[p].Restore(state); err != nil {
			return nil, fmt.Errorf("sliderrt: restore partition %d: %w", p, err)
		}
	}
	rt.seq = st.Seq
	rt.windowLo = st.WindowLo
	rt.live = st.Live
	rt.publishWindowGauges()
	rt.started = true
	return rt, nil
}

// firstBucket is the absolute position of a Fixed window's oldest bucket,
// which the daba kind's flips are phased by (core.State.Pos): the buckets
// the window has clocked in less the live ones. An out-of-order window's
// late buckets were never clocked, so its clock may trail them; no
// structure of it reads the position, 0 then.
func (rt *Runtime) firstBucket() uint64 {
	return rt.bucketSeq - min(rt.bucketSeq, uint64(len(rt.bucketSizes)))
}

// checkLedger holds the bucket ledger to the window it describes: none for
// a window of splits; else one size per bucket every partition holds,
// summing to the live splits — each w on a clock at windowLo/w plus the
// live buckets, each positive for out-of-order buckets, any (0 for an empty
// period) on a clock not behind the live buckets for periods. Advance,
// AdvanceLate and the daba kind's flips work at positions read off it, so
// one that contradicts the buckets would slide the wrong window.
func (rt *Runtime) checkLedger(windowLo uint64, live int, states []core.State[sized]) error {
	sizes, w, n := rt.bucketSizes, rt.cfg.BucketSplits, uint64(len(rt.bucketSizes))
	least, most := 1, live
	switch {
	case !rt.bucketed():
		if sizes != nil || rt.bucketSeq != 0 {
			return fmt.Errorf("a window of %v splits keeps no bucket ledger", rt.cfg.Mode)
		}
		return nil
	case rt.outOfOrder():
	case w > 0:
		least, most = w, w
		if want := windowLo/uint64(w) + n; rt.bucketSeq != want {
			return fmt.Errorf("bucket clock %d, a window of %d buckets of %d from split %d is at %d", rt.bucketSeq, n, w, windowLo, want)
		}
	default:
		least = 0
		if rt.bucketSeq < n {
			return fmt.Errorf("bucket clock %d is behind the %d live buckets", rt.bucketSeq, n)
		}
	}
	sum := 0
	for _, sz := range sizes {
		if sz < least || sz > most {
			return fmt.Errorf("bucket ledger holds a bucket of %d splits, want %d to %d", sz, least, most)
		}
		sum += sz
	}
	if sum != live {
		return fmt.Errorf("bucket ledger sums to %d splits, the window holds %d", sum, live)
	}
	for p, st := range states {
		if len(st.Elems) != len(sizes) {
			return fmt.Errorf("bucket ledger lists %d buckets, partition %d holds %d", len(sizes), p, len(st.Elems))
		}
	}
	return nil
}
