package sim

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"slider/internal/mapreduce"
	"slider/internal/memo"
	"slider/internal/persist"
	"slider/internal/sliderrt"
)

// runtimeBucketSplits is w, the splits per bucket used by fixed-width
// runtime traces (trace slides count buckets; the runtime sees k·w
// splits).
const runtimeBucketSplits = 2

// tally is the count type of the Sizer variant of the sim job: its size
// comes from the value itself (and depends on it, so a stale carried size
// would show).
type tally int64

// SizeBytes implements mapreduce.Sizer.
func (t tally) SizeBytes() int64 { return 8 + int64(t)%5 }

func init() { persist.RegisterType(tally(0)) }

// count unboxes a sim-job value of either variant.
func count(v mapreduce.Value) int64 {
	if t, ok := v.(tally); ok {
		return int64(t)
	}
	return v.(int64)
}

// simJob is the wordcount job the runtime layer drives: associative,
// commutative, and cheap, with a small vocabulary so keys collide across
// splits and every merge exercises the combiner. The trace seed picks how
// its values are sized, so that every seed matrix covers both ways
// mapreduce sizes a value and the sizes the runtime carries with its
// payloads cannot drift from a PayloadBytes walk on either: int64 values
// and their per-type default (seed%3 != 2), or tallies, a Sizer whose size
// depends on the value (seed%3 == 2).
func simJob(seed uint64) *mapreduce.Job {
	box := func(n int64) mapreduce.Value { return n }
	if seed%3 == 2 {
		box = func(n int64) mapreduce.Value { return tally(n) }
	}
	sum := func(_ string, values []mapreduce.Value) mapreduce.Value {
		var sum int64
		for _, v := range values {
			sum += count(v)
		}
		return box(sum)
	}
	return &mapreduce.Job{
		Name:       "sim-wordcount",
		Partitions: 3,
		Map: func(rec mapreduce.Record, emit mapreduce.Emit) error {
			line, ok := rec.(string)
			if !ok {
				return fmt.Errorf("sim: record %T is not a string", rec)
			}
			for _, w := range strings.Fields(line) {
				emit(w, box(1))
			}
			return nil
		},
		Combine:     sum,
		Commutative: true,
	}
}

// mix64 is the split-content generator's avalanche hash.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// genSplit deterministically derives split #id's content from the trace
// seed: three lines of four words over a vocabulary the seed picks — eight
// words on odd seeds, so that every split holds most keys, every merge
// combines and every slide touches the whole output; 256 on even ones, so
// that a split holds a few of the window's keys and a slide patches them.
func genSplit(seed, id uint64) mapreduce.Split {
	vocab := uint64(8)
	if seed%2 == 0 {
		vocab = 256
	}
	return genWords(seed, id, vocab, func(i uint64) string { return "w" + strconv.FormatUint(i, 10) })
}

// genLongKeySplit is genSplit over a vocabulary whose keys an 8-byte prefix
// does not order on its own: words of 9 to 28 bytes that share their first
// eight, the 8-byte word they share them with, and short words that differ
// only in trailing zero bytes ("w3", "w3\x00", "w3\x00\x00"), whose padded
// prefixes are equal. Sixteen words on odd seeds, 128 on even ones, as
// genSplit's eight and 256.
func genLongKeySplit(seed, id uint64) mapreduce.Split {
	vocab := uint64(16)
	if seed%2 == 0 {
		vocab = 128
	}
	return genWords(seed, id, vocab, longKeyWord)
}

// genWords is split #id of a trace: three lines of four words, each
// word(i) for an i below vocab drawn from the seed.
func genWords(seed, id, vocab uint64, word func(uint64) string) mapreduce.Split {
	h := mix64(seed ^ mix64(id+1))
	records := make([]mapreduce.Record, 3)
	for r := range records {
		var sb strings.Builder
		for w := 0; w < 4; w++ {
			h = mix64(h)
			sb.WriteString(word(h % vocab))
			sb.WriteByte(' ')
		}
		records[r] = sb.String()
	}
	return mapreduce.Split{ID: "sim-" + strconv.FormatUint(id, 10), Records: records}
}

// longKeyWord is word i of genLongKeySplit's vocabulary.
func longKeyWord(i uint64) string {
	n := strconv.FormatUint(i/4, 10)
	zeros := strings.Repeat("\x00", int(i/4%3))
	switch i % 4 {
	case 0:
		return "sharedpf" + n
	case 1:
		return "sharedpf" + n + "-past-sixteen-bytes"
	case 2:
		return "w" + strconv.FormatUint(i/12%8, 10) + zeros
	}
	return "sharedpf" + zeros
}

// rtReplica is one runtime instance of the lockstep ensemble.
type rtReplica struct {
	rt    *sliderrt.Runtime
	cfg   sliderrt.Config
	gcAll *bool // toggled by OpGCPressure, read by the GC policy
	// own, under Options.Ownership, watches rt and whatever it is restored
	// into; nil otherwise.
	own *sliderrt.Ownership
}

// adopt makes rt the replica's runtime. Every position its structures
// record is held to its key (Runtime.CheckPositions): a wrong one fails the
// run that read it, and the trace shrinks to it.
func (rep *rtReplica) adopt(rt *sliderrt.Runtime) {
	rep.rt = rt
	rt.CheckPositions()
	if rep.own != nil {
		rep.own.Watch(rt)
	}
}

// runtimeConfig maps a trace kind onto the equivalent runtime
// configuration at the given parallelism.
func runtimeConfig(tr Trace, par int, gcAll *bool) (sliderrt.Config, error) {
	cfg := sliderrt.Config{
		Parallelism: par,
		Seed:        tr.Seed | 1,
		Memo:        memoConfig(),
		GCPolicy: func(string, uint64, uint64, int64) bool {
			return *gcAll
		},
	}
	spec := tr.Kind.spec()
	if spec.mode == 0 {
		return cfg, fmt.Errorf("sim: unknown kind %v", tr.Kind)
	}
	// The backend is pinned: auto-selection would route a plain Fixed
	// window onto the DABA queue whatever the kind says.
	cfg.Mode, cfg.Backend, cfg.SplitProcessing = spec.mode, spec.kind, spec.split
	if tr.Kind.fixedWidth() {
		cfg.BucketSplits = runtimeBucketSplits
		if tr.Kind.periods() {
			cfg.BucketSplits = 0
		}
		cfg.WindowBuckets = tr.Initial
	}
	if tr.Kind.outOfOrder() {
		// simLateness matches the trace generator's deepest OpLateAppend.
		cfg.AllowedLateness = simLateness
	}
	return cfg, nil
}

// initialPeriods is a Periods trace's first window: n buckets of zero to
// three splits each, drawn from the seed, at least one of them not empty —
// a first window holds a split.
func initialPeriods(seed uint64, n int) []int {
	sizes := make([]int, n)
	total := 0
	for i := range sizes {
		sizes[i] = int(mix64(seed^mix64(uint64(i)+0x5e7)) % 4)
		total += sizes[i]
	}
	if total == 0 {
		sizes[n-1] = 1
	}
	return sizes
}

func memoConfig() memo.Config {
	cfg := memo.DefaultConfig()
	cfg.Nodes = simNodes
	return cfg
}

// runRuntime drives the trace through full sliderrt runtimes at each
// parallelism level, checking every run's output against a from-scratch
// MapReduce execution over the live window, cross-replica output and
// work-counter parity, delta-proportional work bounds, and checkpoint
// round-trips through the real persist codec — while memo nodes fail,
// recover, and the GC evicts under pressure.
func runRuntime(tr Trace, opt Options) error {
	job := simJob(tr.Seed)
	pars := opt.pars()
	fail := func(step int, check, format string, args ...any) *CheckError {
		return &CheckError{Trace: tr, Step: step, Check: check, Msg: fmt.Sprintf(format, args...)}
	}

	// With DistFaults the map phase runs on a real worker cluster shared
	// by every replica; the trace's worker ops inject faults into it and
	// the pool plus the runtime's degradation ladder must absorb them —
	// the oracle checks below stay exactly as strict.
	var chaos *chaosCluster
	if opt.DistFaults {
		var err error
		chaos, err = newChaosCluster(chaosWorkers, tr.Seed)
		if err != nil {
			return fail(-1, "config", "chaos cluster: %v", err)
		}
		defer chaos.Close()
	}

	reps := make([]*rtReplica, len(pars))
	for i, par := range pars {
		gcAll := new(bool)
		cfg, err := runtimeConfig(tr, par, gcAll)
		if err != nil {
			return fail(-1, "config", "%v", err)
		}
		if chaos != nil {
			cfg.MapRunner = chaos.pool
		}
		rt, err := sliderrt.New(simJob(tr.Seed), cfg)
		if err != nil {
			return fail(-1, "config", "par=%d: %v", par, err)
		}
		reps[i] = &rtReplica{cfg: cfg, gcAll: gcAll}
		if opt.Ownership {
			reps[i].own = sliderrt.NewOwnership()
		}
		reps[i].adopt(rt)
	}

	// splitWidth converts trace units (buckets for fixed kinds, splits
	// otherwise) into splits.
	splitWidth := 1
	if tr.Kind.fixedWidth() {
		splitWidth = runtimeBucketSplits
	}

	var window []mapreduce.Split
	var nextID uint64
	gen := genSplit
	if opt.LongKeys {
		gen = genLongKeySplit
	}
	takeSplits := func(n int) []mapreduce.Split {
		out := make([]mapreduce.Split, n)
		for i := range out {
			out[i] = gen(tr.Seed, nextID)
			nextID++
		}
		return out
	}

	// sizes mirrors the bucket ledger every fixed-width kind's runtime keeps:
	// splits per live bucket, oldest first — w each, but a finger tree's late
	// buckets are one split wide and a period's bucket holds what the period
	// carried. Nil for the other kinds, whose window is of splits.
	var sizes []int
	switch {
	case tr.Kind.periods():
		sizes = initialPeriods(tr.Seed, tr.Initial)
	case tr.Kind.fixedWidth():
		sizes = make([]int, tr.Initial)
		for i := range sizes {
			sizes[i] = splitWidth
		}
	}
	// splitsOf sums the flat split width of the first k ledger buckets.
	splitsOf := func(k int) int {
		n := 0
		for _, sz := range sizes[:k] {
			n += sz
		}
		return n
	}
	n := tr.Initial
	if sizes != nil {
		n = splitsOf(len(sizes))
	}
	initial := takeSplits(n)
	window = initial

	results := make([]*sliderrt.RunResult, len(reps))
	for i, rep := range reps {
		var res *sliderrt.RunResult
		var err error
		if tr.Kind.periods() {
			// A window of period buckets learns their widths from its first run.
			res, err = rep.rt.InitialBuckets(sizes, initial)
		} else {
			res, err = rep.rt.Initial(initial)
		}
		if err != nil {
			return fail(-1, "initial", "par=%d: %v", pars[i], err)
		}
		results[i] = res
	}
	// check verifies a run against the window it produced, and every
	// replica's live buckets against the model's ledger; moved are the
	// splits that left and entered. restored: no run since the last restore.
	// Then each replica runs the run's upkeep (Runtime.Background) after a
	// seeded half of the runs and leaves it to the next entry point after the
	// others, on a coin of its own: the replicas the checks hold to one
	// another have taken both ways.
	var prev mapreduce.Output
	// answered is replica 0's tree merges when its last result was checked:
	// what the trees did since is that run's upkeep.
	var answered int64
	restored := false
	check := func(step int, moved ...[]mapreduce.Split) (err error) {
		prev, err = checkRuntimeStep(tr, step, job, pars, reps, results, window, prev, slices.Concat(moved...), restored)
		restored = false
		if err != nil {
			return err
		}
		for i, rep := range reps {
			if got := rep.rt.WindowStats().LiveBuckets; got != len(sizes) {
				return fail(step, "live-buckets", "par=%d reports %d live buckets, the model holds %d", pars[i], got, len(sizes))
			}
		}
		answered = reps[0].rt.Stats().TreeStats.Merges
		for i, rep := range reps {
			if mix64(tr.Seed^mix64(uint64(step+1)<<8|uint64(i)))&1 == 0 {
				continue
			}
			if err := rep.rt.Background(); err != nil {
				return fail(step, "background", "par=%d: %v", pars[i], err)
			}
		}
		return nil
	}
	if err := check(-1); err != nil {
		return err
	}

	// workBound holds a run's merges to its bound; TreeStats aggregates one
	// tree per partition. A run's upkeep is reported by the next result, so
	// the run is held to the bound with its upkeep one result late: owed is
	// the last run's foreground work and bound (limit 0: nothing owed), and
	// pay settles it with the upkeep's merges.
	var owed struct {
		step          int
		name, what    string
		merges, limit int64
	}
	// spent sums the merges of every run held to a bound, upkeep included,
	// and pushed the buckets its slides pushed, for the daba kind's
	// trace-wide bound.
	var spent int64
	pushed := 0
	pay := func(upkeep int64) error {
		if owed.limit > 0 {
			spent += upkeep
		}
		if owed.limit > 0 && owed.merges+upkeep > owed.limit {
			return fail(owed.step, owed.name, "%s performed %d merges with its upkeep (%d in the foreground), bound %d",
				owed.what, owed.merges+upkeep, owed.merges, owed.limit)
		}
		owed.limit = 0
		return nil
	}
	// settle pays what is owed where no result will report the upkeep: before
	// a checkpoint, whose restored runtime the trace goes on with, and after
	// the trace's last op. It runs replica 0's upkeep, if the coin left it
	// pending, and reads its merges off the runtime's cumulative counters.
	settle := func(step int) error {
		if owed.limit == 0 {
			return nil
		}
		rt := reps[0].rt
		if err := rt.Background(); err != nil {
			return fail(step, "background", "par=%d: %v", pars[0], err)
		}
		return pay(rt.Stats().TreeStats.Merges - answered)
	}
	workBound := func(step int, name string, limit int64, format string, args ...any) error {
		if opt.NoBounds {
			return nil
		}
		res := results[0]
		if err := pay(res.TreeStatsBackground.Merges); err != nil {
			return err
		}
		owed.step, owed.name, owed.what = step, name, fmt.Sprintf(format, args...)
		owed.merges, owed.limit = res.TreeStats.Merges, limit
		spent += owed.merges
		if owed.merges > limit {
			return fail(step, name, "%s performed %d merges, bound %d", owed.what, owed.merges, limit)
		}
		return nil
	}
	// bulkBound holds one out-of-order operation over k buckets to the
	// no-log-factor budget.
	bulkBound := func(step int, what string, k int) error {
		return workBound(step, "bulk-bound", int64(job.Partitions)*bulkMergeBound(k, len(sizes)),
			"%s k=%d at %d buckets", what, k, len(sizes))
	}
	for step, op := range tr.Ops {
		switch op.Kind {
		case OpSlide:
			liveUnits := len(window)
			if sizes != nil {
				liveUnits = len(sizes)
			}
			drop, add := clampSlide(tr.Kind, op, liveUnits)
			if drop == 0 && add == 0 {
				continue
			}
			dropSplits, addSplits := drop, add*splitWidth
			if sizes != nil {
				// Ledger buckets vary in width, so the drop is the exact
				// flat width of the k oldest buckets — none when a period
				// bucket leaves empty.
				dropSplits = splitsOf(drop)
			}
			if tr.Kind.periods() {
				addSplits = max(op.Add, 0)
			}
			adds := takeSplits(addSplits)
			for i, rep := range reps {
				res, err := rep.rt.Advance(dropSplits, adds)
				if err != nil {
					return fail(step, "advance", "par=%d drop=%d add=%d: %v", pars[i], dropSplits, addSplits, err)
				}
				results[i] = res
				*rep.gcAll = false // GC pressure applies to one slide
			}
			dropped := window[:dropSplits]
			window = append(window[dropSplits:], adds...)
			if sizes != nil {
				sizes = append(sizes[:0], sizes[drop:]...)
				if tr.Kind.periods() {
					sizes = append(sizes, addSplits)
				} else {
					for range add {
						sizes = append(sizes, splitWidth)
					}
				}
			}
			if err := check(step, dropped, adds); err != nil {
				return err
			}
			liveAfter := len(window)
			if sizes != nil {
				liveAfter = len(sizes)
			}
			// The per-tree bound scales by Partitions; the strawman is exempt.
			limit := int64(math.MaxInt64)
			if tr.Kind != Strawman {
				limit = int64(job.Partitions) * mergeBound(tr.Kind, drop, add, liveAfter)
			}
			pushed += add
			if err := workBound(step, "work-bound", limit, "advance drop=%d add=%d window=%d", drop, add, liveAfter); err != nil {
				return err
			}
		case OpCheckpoint:
			if err := settle(step); err != nil {
				return err
			}
			fps := make([]uint64, len(reps))
			frames := make([][]byte, len(reps))
			for i, rep := range reps {
				before := rep.rt.StateFingerprint()
				var buf bytes.Buffer
				if err := rep.rt.Checkpoint(&buf); err != nil {
					return fail(step, "checkpoint", "par=%d: %v", pars[i], err)
				}
				frames[i] = buf.Bytes()
				restored, err := sliderrt.Restore(simJob(tr.Seed), rep.cfg, bytes.NewReader(buf.Bytes()))
				if err != nil {
					return fail(step, "restore", "par=%d: %v", pars[i], err)
				}
				if restored.Live() != rep.rt.Live() || restored.WindowLo() != rep.rt.WindowLo() {
					return fail(step, "restore", "par=%d window bookkeeping: live %d/%d lo %d/%d",
						pars[i], restored.Live(), rep.rt.Live(), restored.WindowLo(), rep.rt.WindowLo())
				}
				// The restored state must be logically identical to what was
				// checkpointed — the codec round trip (flat frames, arena
				// views, materialization) must not perturb a single payload.
				fps[i] = restored.StateFingerprint()
				if fps[i] != before {
					return fail(step, "restore-fingerprint",
						"par=%d restored fingerprint %#x != checkpointed %#x", pars[i], fps[i], before)
				}
				if got := restored.WindowStats().LiveBuckets; got != len(sizes) {
					return fail(step, "live-buckets", "par=%d restored with %d live buckets, the model holds %d", pars[i], got, len(sizes))
				}
				rep.adopt(restored) // continue from the restored state
			}
			restored = true
			// A torn write leaves the frame cut short or a bit of it wrong:
			// a restore must refuse either, never carry on from a window
			// nobody checkpointed.
			cut, flipped := tornFrames(tr.Seed, step, frames[0])
			for _, torn := range [][]byte{cut, flipped} {
				if rt, err := sliderrt.Restore(simJob(tr.Seed), reps[0].cfg, bytes.NewReader(torn)); err == nil {
					return fail(step, "torn-checkpoint", "a torn frame of %d bytes (%d written) restored, to fingerprint %#x; checkpointed %#x",
						len(torn), len(frames[0]), rt.StateFingerprint(), fps[0])
				}
			}
			// And identical across parallelism levels and upkeep schedules:
			// the window state a checkpoint captures may not depend on how
			// many goroutines computed it, nor on whether the last run's
			// upkeep ran before the checkpoint asked for it.
			for i := 1; i < len(fps); i++ {
				if fps[i] != fps[0] {
					return fail(step, "par-fingerprint",
						"par=%d checkpoint fingerprint %#x != par=%d fingerprint %#x",
						pars[i], fps[i], pars[0], fps[0])
				}
				if !bytes.Equal(frames[i], frames[0]) {
					return fail(step, "par-checkpoint", "par=%d wrote a checkpoint of %d bytes that differs from par=%d's %d",
						pars[i], len(frames[i]), pars[0], len(frames[0]))
				}
			}
		case OpLateAppend:
			if tr.Kind != FingerTree {
				break
			}
			late := clampLateness(op.Pos, len(sizes))
			pos := len(sizes) - late
			adds := takeSplits(1) // one late record: a one-split bucket
			for i, rep := range reps {
				res, err := rep.rt.AdvanceLate(late, adds)
				if err != nil {
					return fail(step, "advance-late", "par=%d lateness=%d: %v", pars[i], late, err)
				}
				results[i] = res
				*rep.gcAll = false
			}
			flat := splitsOf(pos)
			nw := make([]mapreduce.Split, 0, len(window)+1)
			nw = append(nw, window[:flat]...)
			nw = append(nw, adds...)
			nw = append(nw, window[flat:]...)
			window = nw
			sizes = append(sizes, 0)
			copy(sizes[pos+1:], sizes[pos:])
			sizes[pos] = 1
			if err := check(step, adds); err != nil {
				return err
			}
			if err := bulkBound(step, "late append", 1); err != nil {
				return err
			}
		case OpBulkEvict:
			if tr.Kind != FingerTree {
				break
			}
			k := clampBulkEvict(op.Drop, len(sizes))
			if k == 0 {
				break
			}
			dropSplits := splitsOf(k)
			for i, rep := range reps {
				res, err := rep.rt.Advance(dropSplits, nil)
				if err != nil {
					return fail(step, "bulk-evict", "par=%d k=%d (drop %d splits): %v", pars[i], k, dropSplits, err)
				}
				results[i] = res
				*rep.gcAll = false
			}
			dropped := window[:dropSplits]
			window = window[dropSplits:]
			sizes = append(sizes[:0], sizes[k:]...)
			if err := check(step, dropped); err != nil {
				return err
			}
			if err := bulkBound(step, "bulk evict", k); err != nil {
				return err
			}
		case OpBulkInsert:
			if tr.Kind != FingerTree {
				break
			}
			k := clampBulkInsert(op.Add, len(sizes))
			if k == 0 {
				break
			}
			adds := takeSplits(k * splitWidth)
			for i, rep := range reps {
				res, err := rep.rt.Advance(0, adds)
				if err != nil {
					return fail(step, "bulk-insert", "par=%d k=%d: %v", pars[i], k, err)
				}
				results[i] = res
				*rep.gcAll = false
			}
			window = append(window, adds...)
			for i := 0; i < k; i++ {
				sizes = append(sizes, splitWidth)
			}
			if err := check(step, adds); err != nil {
				return err
			}
			// K buckets fold K·w split payloads before the O(K + log w)
			// treap build-and-join, so the linear term scales by the
			// bucket width — still no K·log w cross term.
			if err := bulkBound(step, "bulk insert", k*splitWidth); err != nil {
				return err
			}
		case OpFailNode:
			for _, rep := range reps {
				rep.rt.Store().FailNode(op.Node)
			}
		case OpRecoverNode:
			for _, rep := range reps {
				rep.rt.Store().RecoverNode(op.Node)
			}
		case OpGCPressure:
			for _, rep := range reps {
				*rep.gcAll = true
			}
		case OpWorkerCrash, OpWorkerRestart, OpWorkerDelay, OpWorkerDrop, OpWorkerCorrupt:
			if chaos != nil {
				if err := chaos.apply(op); err != nil {
					return fail(step, "chaos", "%v: %v", op.Kind, err)
				}
			}
		}
	}
	// The trace's last run: its upkeep is held to the run's bound, and the
	// ownership oracle's scan of the roots it handed out is checked, although
	// no result follows.
	last := len(tr.Ops) - 1
	if err := settle(last); err != nil {
		return err
	}
	if limit := int64(job.Partitions) * dabaTraceBound(pushed, tr.Initial); tr.Kind.daba() && !opt.NoBounds && spent > limit {
		return fail(last, "trace-bound", "%d merges for %d buckets pushed into %d partitions, bound %d",
			spent, pushed, job.Partitions, limit)
	}
	for i, rep := range reps {
		if err := rep.rt.Background(); err != nil {
			return fail(last, "background", "par=%d: %v", pars[i], err)
		}
		if rep.own != nil {
			if err := rep.own.Check(rep.rt, results[i]); err != nil {
				return fail(last, "ownership", "par=%d: %v", pars[i], err)
			}
		}
	}
	return nil
}

// tornFrames returns the two frames a torn write of a checkpoint can leave,
// at offsets drawn from the trace seed and the step: the frame cut short,
// and the frame with one bit of its body flipped.
func tornFrames(seed uint64, step int, frame []byte) (cut, flipped []byte) {
	h := mix64(seed ^ mix64(uint64(step)+0x70e2))
	cut = frame[:h%uint64(len(frame))]
	flipped = slices.Clone(frame)
	body := uint64(len(frame) - persist.FramePrefixLen)
	flipped[persist.FramePrefixLen+int(mix64(h)%body)] ^= 1 << (h % 8)
	return cut, flipped
}

// walkState walks every payload a runtime's trees hold. It re-measures
// the resident state from scratch — a PayloadBytes walk over every key
// plus the memo store's bytes, what RunResult.SpaceBytes must equal
// although the runtime only ever adds up sizes carried from where each
// payload was created (map task, merge, checkpoint decode) — and counts
// the payloads that break the representation's invariant, keys strictly
// ascending, which every merge-join and the codec rely on.
func walkState(rt *sliderrt.Runtime) (spaceBytes int64, unsorted int) {
	spaceBytes = rt.Store().Stats().Bytes
	rt.ForEachPayload(func(p mapreduce.Payload) {
		spaceBytes += mapreduce.PayloadBytes(p)
		if !p.IsSorted() {
			unsorted++
		}
	})
	return spaceBytes, unsorted
}

// checkRuntimeStep verifies one run's results: the output equals a
// from-scratch MapReduce execution over the live window (the paper's
// exact-answer claim), outputs and contraction work counters — foreground,
// and the upkeep the result reports — agree across parallelism levels, and
// every replica's reported SpaceBytes equals a from-scratch walk of its
// state before the run's upkeep, every payload of which is strictly
// sorted — including on the runs right after a
// checkpoint→restore, a late insert, a bulk evict or insert, and a
// folding-tree rebuild.
//
// Under Options.Ownership the step first holds everything a replica's
// runtime holds and has delivered against the payloads it released.
//
// The output is a map the runtime keeps and patches, so the step also holds
// what the run says it did to it against prev, the from-scratch output of
// the previous step, and moved, the splits that left and entered since:
// either the run rebuilt the map — it must on the initial run and on the
// first after a restore (mustRebuild) —, or Changed holds every key whose
// value differs from prev's and no key outside moved's. The sim job sums
// integers, so a patched map equals the from-scratch one exactly, which is
// also what a full pass over the same roots would give. Which path a run
// took, the keys it lists and its Reduce calls are the same at every
// parallelism. It returns the from-scratch output, the next step's prev.
func checkRuntimeStep(tr Trace, step int, job *mapreduce.Job, pars []int, reps []*rtReplica, results []*sliderrt.RunResult,
	window []mapreduce.Split, prev mapreduce.Output, moved []mapreduce.Split, mustRebuild bool) (mapreduce.Output, error) {
	fail := func(check, format string, args ...any) (mapreduce.Output, error) {
		return nil, &CheckError{Trace: tr, Step: step, Check: check, Msg: fmt.Sprintf(format, args...)}
	}
	for i, rep := range reps {
		if rep.own != nil {
			if err := rep.own.Check(rep.rt, results[i]); err != nil {
				return fail("ownership", "par=%d: %v", pars[i], err)
			}
		}
		want, unsorted := walkState(rep.rt)
		if got := results[i].SpaceBytes; got != want {
			return fail("space", "par=%d SpaceBytes %d, from-scratch walk says %d", pars[i], got, want)
		}
		if unsorted > 0 {
			return fail("sorted", "par=%d holds %d payloads whose keys are not strictly ascending", pars[i], unsorted)
		}
	}
	want, err := mapreduce.RunScratch(job, window, 0, nil)
	if err != nil {
		return fail("oracle", "from-scratch run: %v", err)
	}
	if msg := diffOutputs(results[0].Output, want); msg != "" {
		return fail("oracle", "par=%d output diverges from from-scratch oracle: %s", pars[0], msg)
	}
	res := results[0]
	switch {
	case res.Rebuilt && len(res.Changed) != 0:
		return fail("changed", "par=%d rebuilt the output and lists %d changed keys", pars[0], len(res.Changed))
	case (prev == nil || mustRebuild) && !res.Rebuilt:
		return fail("changed", "par=%d patched an output it cannot hold (initial run or first run after a restore)", pars[0])
	case !res.Rebuilt:
		may, err := mapreduce.RunScratch(job, moved, 0, nil)
		if err != nil {
			return fail("oracle", "from-scratch run over the moved splits: %v", err)
		}
		listed := make(map[string]bool, len(res.Changed))
		for _, k := range res.Changed {
			if _, ok := may[k]; !ok || listed[k] {
				return fail("changed", "par=%d lists key %q twice, or no split that left or entered holds it", pars[0], k)
			}
			listed[k] = true
		}
		for k := range may {
			wv, ok := want[k]
			if pv, had := prev[k]; (ok != had || ok && count(wv) != count(pv)) && !listed[k] {
				return fail("changed", "par=%d key %q went from %v to %v and is not among the %d changed keys", pars[0], k, pv, wv, len(res.Changed))
			}
		}
	}
	for i := 1; i < len(results); i++ {
		if msg := diffOutputs(results[i].Output, results[0].Output); msg != "" {
			return fail("par-output", "par=%d output != par=%d output: %s", pars[i], pars[0], msg)
		}
		if results[i].TreeStats != results[0].TreeStats {
			return fail("par-stats", "par=%d TreeStats %+v != par=%d %+v",
				pars[i], results[i].TreeStats, pars[0], results[0].TreeStats)
		}
		if results[i].TreeStatsBackground != results[0].TreeStatsBackground {
			return fail("par-stats", "par=%d TreeStatsBackground %+v != par=%d %+v",
				pars[i], results[i].TreeStatsBackground, pars[0], results[0].TreeStatsBackground)
		}
		a, b := results[0], results[i]
		if a.Report.Counters.CombineCalls != b.Report.Counters.CombineCalls || a.Background.Counters.CombineCalls != b.Background.Counters.CombineCalls {
			return fail("par-stats", "par=%d combiner calls %d + %d in the upkeep != par=%d %d + %d",
				pars[i], b.Report.Counters.CombineCalls, b.Background.Counters.CombineCalls,
				pars[0], a.Report.Counters.CombineCalls, a.Background.Counters.CombineCalls)
		}
		if a.Rebuilt != b.Rebuilt || !slices.Equal(a.Changed, b.Changed) || a.Report.Counters.ReduceCalls != b.Report.Counters.ReduceCalls {
			return fail("par-changed", "par=%d rebuilt=%v, %d changed keys, %d Reduce calls != par=%d rebuilt=%v, %d changed keys, %d Reduce calls",
				pars[i], b.Rebuilt, len(b.Changed), b.Report.Counters.ReduceCalls, pars[0], a.Rebuilt, len(a.Changed), a.Report.Counters.ReduceCalls)
		}
	}
	return want, nil
}

// diffOutputs returns "" when the outputs are identical, else a
// description of the first difference.
func diffOutputs(got, want mapreduce.Output) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d keys, want %d", len(got), len(want))
	}
	for k, wv := range want {
		gv, ok := got[k]
		if !ok {
			return fmt.Sprintf("missing key %q", k)
		}
		if count(gv) != count(wv) {
			return fmt.Sprintf("key %q: got %d, want %d", k, count(gv), count(wv))
		}
	}
	return ""
}
