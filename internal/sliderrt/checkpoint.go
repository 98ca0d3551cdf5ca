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
// the gob-framed metadata; version 1 carried payloads as gob maps and is
// still restorable — gob tolerates the missing flat fields, and Restore
// dispatches on Version per partition.
const checkpointVersion = 2

// checkpointState is the serialized form of a Runtime between runs: the
// window bookkeeping plus, per partition, the minimal tree state from
// which the contraction structure is rebuilt on restore.
type checkpointState struct {
	Version int
	Mode    Mode
	// Engine (1 = a self-adjusting tree, 2 = the strawman) and Randomized
	// are how frames named the structure before Backend existed. They are
	// still written, so frames stay byte-identical, and read only from
	// frames without a Backend: see legacySelectors and backend.
	Engine     int
	Randomized bool
	// Backend records the resolved aggregation backend: it decides how a
	// Fixed-mode partition's Buckets are interpreted (window order for
	// daba, leaf-position order plus Victim for rotating) and lets a
	// runtime restored under BackendAuto resume on the structure a pinned
	// writer was using. Zero in pre-backend checkpoints.
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

// legacySelectors is the pre-backend spelling of a backend, as frames
// still carry it.
func legacySelectors(b Backend) (engine int, randomized bool) {
	if b == BackendStrawman {
		return 2, false
	}
	return 1, b == BackendRandomizedFolding
}

// backend is the structure the frame's writer ran: Backend where the frame
// has one, else what the legacy selectors named. A pre-backend frame of a
// self-adjusting, non-randomized tree yields BackendAuto — the mode's tree,
// which resolution picks again (and a Fixed frame's rotating-order buckets
// restore into whichever Fixed structure that is).
func (st *checkpointState) backend() Backend {
	switch {
	case st.Backend != BackendAuto:
		return st.Backend
	case st.Engine == 2:
		return BackendStrawman
	case st.Randomized:
		return BackendRandomizedFolding
	}
	return BackendAuto
}

// partCheckpoint holds one partition's tree state. Exactly one field
// group is populated, matching the runtime's mode and backend.
//
// Version 1 checkpoints carried payloads in the gob-encoded map fields
// (Root, Pending, Buckets, LeafPayloads); version 2 writes the same state
// as flat frames in the Flat* fields and leaves the map fields nil. Both
// decode through the same struct: gob silently skips fields absent from
// the stream. The v1 fields keep the map type payloads had when those
// frames were written — every frame, of either version, names it in its
// type descriptor — and are sorted into payloads on restore.
type partCheckpoint struct {
	// Append mode (coalescing tree).
	Root       payloadV1 // v1 only
	HasRoot    bool
	Pending    payloadV1 // v1 only
	HasPending bool
	// Fixed mode (rotating or daba buckets).
	Buckets []payloadV1 // v1 only
	Victim  int
	Filled  bool
	// Variable mode and the strawman (leaf sequences).
	LeafIDs      []uint64
	LeafPayloads []payloadV1 // v1 only
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
// first. Checkpointing between runs captures a consistent state: the last
// run's upkeep (Background) runs first if nobody has run it.
func (rt *Runtime) Checkpoint(w io.Writer) error {
	if !rt.started {
		return ErrNotInitial
	}
	if err := rt.Background(); err != nil {
		return err
	}
	engine, randomized := legacySelectors(rt.backend)
	st := checkpointState{
		Version:       checkpointVersion,
		Mode:          rt.cfg.Mode,
		Engine:        engine,
		Randomized:    randomized,
		Backend:       rt.backend,
		BucketSplits:  rt.cfg.BucketSplits,
		WindowBuckets: rt.cfg.WindowBuckets,
		Seq:           rt.seq,
		WindowLo:      rt.windowLo,
		Live:          rt.live,
		Parts:         rt.parts,
		Partitions:    make([]partCheckpoint, rt.parts),
	}
	if rt.outOfOrder() {
		st.BucketSizes = append([]int(nil), rt.bucketSizes...)
		st.BucketSeq = rt.bucketSeq
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

func (rt *Runtime) stateGroup() stateGroup {
	switch {
	case rt.backend == BackendStrawman:
		return groupLeaves
	case rt.cfg.Mode == Append:
		return groupRoot
	case rt.cfg.Mode == Fixed:
		return groupBuckets
	}
	return groupLeaves
}

// payloadV1 is a payload as version-1 checkpoints carry it.
type payloadV1 = map[string]mapreduce.Value

// fromV1 sorts a version-1 payload list into payloads.
func fromV1(ms []payloadV1) []Payload {
	out := make([]Payload, len(ms))
	for i, m := range ms {
		out[i] = mapreduce.FromMap(m)
	}
	return out
}

// encodePartition writes one aggregator's snapshot into its version-2
// field group.
func (rt *Runtime) encodePartition(pc *partCheckpoint, st core.State[sized]) (err error) {
	switch rt.stateGroup() {
	case groupRoot:
		pc.HasRoot, pc.HasPending = st.HasRoot, st.HasPending
		if pc.HasRoot {
			if pc.FlatRoot, err = persist.EncodePayload(st.Root.P); err != nil {
				return err
			}
		}
		if pc.HasPending {
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

// decodePartition is encodePartition's inverse for both frame versions
// (flat frames for v2, gob maps for v1). The frame is untrusted: every
// length and presence flag is checked here, before any aggregator is
// touched, and decoded payloads are measured — restore is where they are
// created, so this is the one walk they get (see sized).
func (rt *Runtime) decodePartition(pc *partCheckpoint, version int, seq uint64) (core.State[sized], error) {
	var st core.State[sized]
	var elems []Payload
	var err error
	switch rt.stateGroup() {
	case groupRoot:
		root, pending := mapreduce.FromMap(pc.Root), mapreduce.FromMap(pc.Pending)
		if version >= 2 {
			if pc.HasRoot != (len(pc.FlatRoot) > 0) || pc.HasPending != (len(pc.FlatPending) > 0) {
				return st, fmt.Errorf("root/pending flags disagree with the persisted payloads")
			}
			if pc.HasRoot {
				if root, err = persist.DecodePayload(pc.FlatRoot); err != nil {
					return st, err
				}
			}
			if pc.HasPending {
				if pending, err = persist.DecodePayload(pc.FlatPending); err != nil {
					return st, err
				}
			}
		}
		st.Root, st.HasRoot = mapreduce.Size(rt.job, root), pc.HasRoot
		st.Pending, st.HasPending = mapreduce.Size(rt.job, pending), pc.HasPending
		return st, nil
	case groupBuckets:
		if !pc.Filled {
			return st, fmt.Errorf("window not filled")
		}
		st.Victim, st.Filled = pc.Victim, true
		if elems = fromV1(pc.Buckets); version >= 2 {
			elems, err = persist.DecodePayloadSet(pc.FlatBuckets)
		}
	default:
		if elems = fromV1(pc.LeafPayloads); version >= 2 {
			elems, err = persist.DecodePayloadSet(pc.FlatLeaves)
		}
		st.IDs, st.NextID = pc.LeafIDs, seq
	}
	if err != nil {
		return st, err
	}
	st.Elems = make([]sized, len(elems))
	for i, p := range elems {
		st.Elems[i] = mapreduce.Size(rt.job, p)
	}
	return st, nil
}

// Restore reconstructs a runtime from a checkpoint produced by
// Checkpoint. The job and configuration must match the checkpointed
// runtime's (mode, backend, and bucket geometry are verified; under
// BackendAuto the restore follows the checkpoint's backend). The
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
	// A restore that names no backend follows the checkpoint's, so a pinned
	// writer's state is never reinterpreted; New holds the followed backend
	// to the same matrix as a named one.
	written := st.backend()
	if cfg.Backend == BackendAuto {
		cfg.Backend = written
	}
	rt, err := New(job, cfg)
	if err != nil {
		return nil, err
	}
	if rt.cfg.Mode != st.Mode || (written != BackendAuto && written != rt.backend) {
		return nil, fmt.Errorf("%w: restore: configuration mismatch (checkpoint %v/%v, config %v/%v)",
			ErrBadBackend, st.Mode, written, rt.cfg.Mode, rt.backend)
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
	// A partition's frame is decoded and validated before its aggregator
	// is touched; the aggregator's Restore checks what only it can know
	// (identity counts, the victim cursor against the bucket count).
	rt.installAggregators()
	for p := range st.Partitions {
		state, err := rt.decodePartition(&st.Partitions[p], st.Version, st.Seq)
		if err == nil {
			err = rt.aggs[p].Restore(state)
		}
		if err != nil {
			return nil, fmt.Errorf("sliderrt: restore partition %d: %w", p, err)
		}
	}
	rt.seq = st.Seq
	rt.windowLo = st.WindowLo
	rt.live = st.Live
	if rt.outOfOrder() {
		if len(st.BucketSizes) > 0 {
			rt.bucketSizes = append([]int(nil), st.BucketSizes...)
			rt.bucketSeq = st.BucketSeq
		} else {
			// Checkpoint written by an in-order backend (or pre-ledger
			// frame): the window is WindowBuckets uniform buckets of w.
			rt.uniformLedger(st.WindowBuckets, st.BucketSplits)
		}
	}
	rt.publishWindowGauges()
	rt.started = true
	return rt, nil
}
