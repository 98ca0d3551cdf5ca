package sliderrt

import (
	"fmt"
	"io"

	"slider/internal/core"
	"slider/internal/mapreduce"
	"slider/internal/persist"
)

// checkpointVersion guards the on-disk format. Version 2 carries payload
// state as flat byte blobs (internal/flatenc via persist frames) inside
// the gob-framed metadata; version 1 carried live Payload maps and is
// still restorable — gob tolerates the missing flat fields, and Restore
// dispatches on Version per partition.
const checkpointVersion = 2

// checkpointState is the serialized form of a Runtime between runs: the
// window bookkeeping plus, per partition, the minimal tree state from
// which the contraction structure is rebuilt on restore.
type checkpointState struct {
	Version    int
	Mode       Mode
	Engine     Engine
	Randomized bool
	// Backend records the resolved aggregation backend: it decides how a
	// Fixed-mode partition's Buckets are interpreted (window order for
	// daba, leaf-position order plus Victim for rotating) and lets a
	// live-switched runtime resume on the structure it was using.
	// Zero (BackendAuto, pre-backend checkpoints) defers to resolution.
	Backend       Backend
	BucketSplits  int
	WindowBuckets int
	Seq           uint64
	WindowLo      uint64
	Live          int
	Parts         int
	// Finger-tree (out-of-order) window ledger: splits per live bucket in
	// window order, and the in-order bucket clock the watermark is
	// computed from. Nil/zero for every other backend — gob tolerates the
	// absent fields, so the format stays version 2.
	BucketSizes []int
	BucketSeq   uint64
	Partitions  []partCheckpoint
}

// partCheckpoint holds one partition's tree state. Exactly one field
// group is populated, matching the runtime's mode and engine.
//
// Version 1 checkpoints carried payloads in the gob-encoded map fields
// (Root, Pending, Buckets, LeafPayloads); version 2 writes the same state
// as flat frames in the Flat* fields and leaves the map fields nil. Both
// decode through the same struct: gob silently skips fields absent from
// the stream.
type partCheckpoint struct {
	// Append mode (coalescing tree).
	Root       Payload // v1 only
	HasRoot    bool
	Pending    Payload // v1 only
	HasPending bool
	// Fixed mode (rotating or daba buckets).
	Buckets []Payload // v1 only
	Victim  int
	Filled  bool
	// Variable mode and the strawman engine (leaf sequences).
	LeafIDs      []uint64
	LeafPayloads []Payload // v1 only
	// Version 2 flat state: payload frames (persist.EncodePayload) and
	// payload-set frames (persist.EncodePayloadSet).
	FlatRoot    []byte
	FlatPending []byte
	FlatBuckets []byte
	FlatLeaves  []byte
}

// Checkpoint serializes the runtime's window state so that processing can
// resume after a driver crash or restart (Restore). Application value
// types stored in payloads must be registered with persist.RegisterType
// first. Checkpointing between runs captures a consistent state: split
// processing's background step always completes within Advance.
func (rt *Runtime) Checkpoint(w io.Writer) error {
	if !rt.started {
		return ErrNotInitial
	}
	st := checkpointState{
		Version:       checkpointVersion,
		Mode:          rt.cfg.Mode,
		Engine:        rt.cfg.Engine,
		Randomized:    rt.cfg.Randomized,
		Backend:       rt.backend,
		BucketSplits:  rt.cfg.BucketSplits,
		WindowBuckets: rt.cfg.WindowBuckets,
		Seq:           rt.seq,
		WindowLo:      rt.windowLo,
		Live:          rt.live,
		Parts:         rt.parts,
		Partitions:    make([]partCheckpoint, rt.parts),
	}
	if rt.backend == BackendFingerTree {
		st.BucketSizes = append([]int(nil), rt.bucketSizes...)
		st.BucketSeq = rt.bucketSeq
	}
	for p := 0; p < rt.parts; p++ {
		pc := &st.Partitions[p]
		var err error
		switch {
		case rt.cfg.Engine == Strawman:
			var leafPayloads []Payload
			for _, leaf := range rt.leaves[p] {
				pc.LeafIDs = append(pc.LeafIDs, leaf.ID)
				leafPayloads = append(leafPayloads, leaf.Payload.P)
			}
			pc.FlatLeaves, err = persist.EncodePayloadSet(leafPayloads)
		case rt.cfg.Mode == Append:
			var root, pending sized
			root, pc.HasRoot = rt.coal[p].Root()
			pending, pc.HasPending = rt.coal[p].PendingPayload()
			if pc.HasRoot {
				if pc.FlatRoot, err = persist.EncodePayload(root.P); err != nil {
					break
				}
			}
			if pc.HasPending {
				pc.FlatPending, err = persist.EncodePayload(pending.P)
			}
		case rt.cfg.Mode == Fixed:
			var buckets []sized
			switch rt.backend {
			case BackendDaba:
				buckets, pc.Filled = rt.daba[p].BucketPayloads()
			case BackendFingerTree:
				buckets, pc.Filled = rt.finger[p].BucketPayloads()
			default:
				buckets, pc.Filled = rt.rot[p].BucketPayloads()
				pc.Victim = rt.rot[p].Victim()
			}
			pc.FlatBuckets, err = persist.EncodePayloadSet(unsized(buckets))
		case rt.cfg.Randomized:
			var leafPayloads []Payload
			for _, item := range rt.rnd[p].Items() {
				pc.LeafIDs = append(pc.LeafIDs, item.ID)
				leafPayloads = append(leafPayloads, item.Payload.P)
			}
			pc.FlatLeaves, err = persist.EncodePayloadSet(leafPayloads)
		default:
			pc.FlatLeaves, err = persist.EncodePayloadSet(unsized(rt.fold[p].Payloads()))
		}
		if err != nil {
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

// sizeAll measures payloads decoded from a checkpoint: restore is where
// they are created, so this is the one walk they get (see sized).
func (rt *Runtime) sizeAll(ps []Payload) []sized {
	out := make([]sized, len(ps))
	for i, p := range ps {
		out[i] = mapreduce.Size(rt.job, p)
	}
	return out
}

// rootPayload returns the partition's coalescing root, version-dispatched:
// flat frame for v2, live map for v1.
func (pc *partCheckpoint) rootPayload(version int) (Payload, error) {
	if version < 2 {
		return pc.Root, nil
	}
	if !pc.HasRoot {
		return nil, nil
	}
	return persist.DecodePayload(pc.FlatRoot)
}

// pendingPayload returns the partition's pending coalescing payload.
func (pc *partCheckpoint) pendingPayload(version int) (Payload, error) {
	if version < 2 {
		return pc.Pending, nil
	}
	if !pc.HasPending {
		return nil, nil
	}
	return persist.DecodePayload(pc.FlatPending)
}

// bucketPayloads returns the partition's Fixed-mode buckets.
func (pc *partCheckpoint) bucketPayloads(version int) ([]Payload, error) {
	if version < 2 {
		return pc.Buckets, nil
	}
	return persist.DecodePayloadSet(pc.FlatBuckets)
}

// leafPayloadList returns the partition's leaf payload sequence.
func (pc *partCheckpoint) leafPayloadList(version int) ([]Payload, error) {
	if version < 2 {
		return pc.LeafPayloads, nil
	}
	return persist.DecodePayloadSet(pc.FlatLeaves)
}

// Restore reconstructs a runtime from a checkpoint produced by
// Checkpoint. The job and configuration must match the checkpointed
// runtime's (mode, engine, and bucket geometry are verified). The
// contraction trees are rebuilt from the persisted leaf state; the next
// Advance continues the window where the checkpoint left it.
func Restore(job *mapreduce.Job, cfg Config, r io.Reader) (*Runtime, error) {
	frame, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("sliderrt: restore read: %w", err)
	}
	var st checkpointState
	if err := persist.Decode(frame, &st); err != nil {
		return nil, fmt.Errorf("sliderrt: restore: %w", err)
	}
	if st.Version < 1 || st.Version > checkpointVersion {
		return nil, fmt.Errorf("sliderrt: restore: unsupported checkpoint version %d", st.Version)
	}
	rt, err := New(job, cfg)
	if err != nil {
		return nil, err
	}
	if rt.cfg.Mode != st.Mode || rt.cfg.Engine != st.Engine || rt.cfg.Randomized != st.Randomized {
		return nil, fmt.Errorf("sliderrt: restore: configuration mismatch (checkpoint %v/%v, config %v/%v)",
			st.Mode, st.Engine, rt.cfg.Mode, rt.cfg.Engine)
	}
	if rt.cfg.Mode == Fixed &&
		(rt.cfg.BucketSplits != st.BucketSplits || rt.cfg.WindowBuckets != st.WindowBuckets) {
		return nil, fmt.Errorf("sliderrt: restore: bucket geometry mismatch")
	}
	if st.Parts != rt.parts {
		return nil, fmt.Errorf("sliderrt: restore: partition count mismatch (checkpoint %d, job %d)",
			st.Parts, rt.parts)
	}
	if st.Backend != BackendAuto && st.Backend != rt.backend {
		// The checkpointed runtime ran a different backend than this
		// configuration resolves to (pinned writer, or a live switch
		// before the checkpoint). An explicit conflicting override is an
		// error; under BackendAuto the restore follows the checkpoint,
		// subject to the same property gates as New.
		if cfg.Backend != BackendAuto {
			return nil, fmt.Errorf("%w: restore: backend mismatch (checkpoint %v, config %v)",
				ErrBadBackend, st.Backend, rt.backend)
		}
		probe := rt.cfg
		probe.Backend = st.Backend
		if _, err := probe.resolveBackend(job); err != nil {
			return nil, fmt.Errorf("sliderrt: restore: %w", err)
		}
		rt.backend = st.Backend
	}
	rt.allocTrees()
	for p := 0; p < rt.parts; p++ {
		pc := &st.Partitions[p]
		switch {
		case rt.cfg.Engine == Strawman:
			leafPayloads, err := pc.leafPayloadList(st.Version)
			if err != nil {
				return nil, fmt.Errorf("sliderrt: restore partition %d: %w", p, err)
			}
			items := make([]core.Item[sized], len(leafPayloads))
			for i, leaf := range rt.sizeAll(leafPayloads) {
				items[i] = core.Item[sized]{ID: pc.LeafIDs[i], Payload: leaf}
			}
			rt.leaves[p] = items
			rt.straw[p].Build(items)
		case rt.cfg.Mode == Append:
			root, err := pc.rootPayload(st.Version)
			if err != nil {
				return nil, fmt.Errorf("sliderrt: restore partition %d: %w", p, err)
			}
			pending, err := pc.pendingPayload(st.Version)
			if err != nil {
				return nil, fmt.Errorf("sliderrt: restore partition %d: %w", p, err)
			}
			rt.coal[p].Restore(mapreduce.Size(rt.job, root), pc.HasRoot, mapreduce.Size(rt.job, pending), pc.HasPending)
		case rt.cfg.Mode == Fixed:
			if !pc.Filled {
				return nil, fmt.Errorf("sliderrt: restore: partition %d window not filled", p)
			}
			bucketPayloads, err := pc.bucketPayloads(st.Version)
			if err != nil {
				return nil, fmt.Errorf("sliderrt: restore partition %d: %w", p, err)
			}
			buckets := rt.sizeAll(bucketPayloads)
			if rt.backend == BackendDaba {
				bs := buckets
				if st.Backend == BackendAuto && pc.Victim != 0 {
					// Pre-backend checkpoints (Backend unrecorded, gob
					// zero) were written by the rotating tree: Buckets are
					// in leaf-position order and Victim marks the oldest
					// bucket. Rotate into the window order the DABA
					// aggregator expects; post-backend daba frames record
					// a concrete Backend and leave Victim zero.
					if pc.Victim < 0 || pc.Victim >= len(bs) {
						return nil, fmt.Errorf("sliderrt: restore partition %d: victim %d out of range [0,%d)",
							p, pc.Victim, len(bs))
					}
					bs = append(append(make([]sized, 0, len(bs)), bs[pc.Victim:]...), bs[:pc.Victim]...)
				}
				if err := rt.daba[p].Restore(bs); err != nil {
					return nil, fmt.Errorf("sliderrt: restore partition %d: %w", p, err)
				}
				break
			}
			if rt.backend == BackendFingerTree {
				bs := buckets
				if st.Backend == BackendAuto && pc.Victim != 0 {
					// Pre-backend rotating frames: leaf-position order with
					// Victim marking the oldest bucket — rotate into window
					// order, as on the DABA restore path.
					if pc.Victim < 0 || pc.Victim >= len(bs) {
						return nil, fmt.Errorf("sliderrt: restore partition %d: victim %d out of range [0,%d)",
							p, pc.Victim, len(bs))
					}
					bs = append(append(make([]sized, 0, len(bs)), bs[pc.Victim:]...), bs[:pc.Victim]...)
				}
				if err := rt.finger[p].Restore(bs); err != nil {
					return nil, fmt.Errorf("sliderrt: restore partition %d: %w", p, err)
				}
				break
			}
			if err := rt.rot[p].RestoreAt(buckets, pc.Victim); err != nil {
				return nil, fmt.Errorf("sliderrt: restore partition %d: %w", p, err)
			}
			if rt.cfg.SplitProcessing {
				if err := rt.rot[p].PrepareBackground(); err != nil {
					return nil, err
				}
			}
		case rt.cfg.Randomized:
			leafPayloads, err := pc.leafPayloadList(st.Version)
			if err != nil {
				return nil, fmt.Errorf("sliderrt: restore partition %d: %w", p, err)
			}
			items := make([]core.Item[sized], len(leafPayloads))
			for i, leaf := range rt.sizeAll(leafPayloads) {
				items[i] = core.Item[sized]{ID: pc.LeafIDs[i], Payload: leaf}
			}
			rt.rnd[p].Init(items)
		default:
			leafPayloads, err := pc.leafPayloadList(st.Version)
			if err != nil {
				return nil, fmt.Errorf("sliderrt: restore partition %d: %w", p, err)
			}
			rt.fold[p].Init(rt.sizeAll(leafPayloads))
		}
	}
	rt.seq = st.Seq
	rt.windowLo = st.WindowLo
	rt.live = st.Live
	if rt.backend == BackendFingerTree {
		if len(st.BucketSizes) > 0 {
			rt.bucketSizes = append([]int(nil), st.BucketSizes...)
			rt.bucketSeq = st.BucketSeq
		} else {
			// Checkpoint written by an in-order backend (or pre-ledger
			// frame): the window is WindowBuckets uniform buckets of w.
			rt.bucketSizes = make([]int, st.WindowBuckets)
			for i := range rt.bucketSizes {
				rt.bucketSizes[i] = st.BucketSplits
			}
			rt.bucketSeq = uint64(st.WindowBuckets)
		}
	}
	rt.publishWindowGauges()
	rt.started = true
	return rt, nil
}
