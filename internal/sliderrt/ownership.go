package sliderrt

import (
	"fmt"

	"slider/internal/core"
	"slider/internal/mapreduce"
)

// releasedKey is the key the ownership oracle writes over every entry of a
// released payload. No job emits it.
const releasedKey = "\x00sliderrt: released storage"

// Ownership is the ownership oracle over a runtime's payloads, for the
// simulation harness and the oracle tests: a runtime it watches hands the
// payloads its aggregators release, the map outputs its bucket folds
// consumed, and the elements that left its window, to the oracle, which
// scribbles over them, instead of recycling their storage — so a release of
// something still read shows at the next Check, at the payload that was
// wrongly released, rather than as a wrong output some slides later, if
// ever. One oracle may watch several runtimes (a replica and what it is
// restored into).
type Ownership struct {
	oracle *core.OwnershipOracle[mapreduce.Entry]
	// early moves the recycle of a run's evicted elements from after its
	// upkeep to the moment the structures report them, before the reduce
	// reads them: a wrong recycle the oracle tests inject to show it is
	// caught.
	early bool
	// lone makes the bucket fold release a lone range's payload too, which
	// is the bucket itself: a wrong release the oracle tests inject to show
	// it is caught.
	lone bool
}

// NewOwnership returns an oracle that watches nothing yet.
func NewOwnership() *Ownership {
	return &Ownership{oracle: core.NewOwnershipOracle(mapreduce.NewEntry(releasedKey, nil),
		func(e mapreduce.Entry) bool { return e.Key == releasedKey })}
}

// recyclesEarly reports whether o is set and injects the early recycle.
func (o *Ownership) recyclesEarly() bool { return o != nil && o.early }

// releasesLone reports whether o is set and injects the lone-range release.
func (o *Ownership) releasesLone() bool { return o != nil && o.lone }

// Watch diverts the payloads rt's aggregators release from now on to the
// oracle. Call it between runs.
func (o *Ownership) Watch(rt *Runtime) { rt.own = o }

// scanHanded holds the roots a run handed to the reduce against what its
// upkeep released: the upkeep is where their lifetime ends, so none of
// them may be released storage by then. A failure shows at the next Check.
func (o *Ownership) scanHanded(parts []partDelta) {
	for _, part := range parts {
		for _, r := range part.roots {
			o.oracle.Scan("a root the last run handed to the reduce", r.P)
		}
	}
}

// Check holds what is reachable after a run against what has been released:
// no payload rt's aggregators hold (ForEachPayload — roots, slots, raw
// buckets, tree nodes, what a checkpoint would write) may be released
// storage, and neither the output res delivered nor the keys it lists as
// changed may carry a released payload's key. It also reports a payload
// released twice, and a root the previous run handed out that its upkeep
// released (see Runtime.Background).
func (o *Ownership) Check(rt *Runtime, res *RunResult) error {
	rt.ForEachPayload(func(p Payload) { o.oracle.Scan("a payload an aggregator holds", p) })
	if err := o.oracle.Err(); err != nil {
		return err
	}
	if _, ok := res.Output[releasedKey]; ok {
		return fmt.Errorf("ownership: the output holds a key read from a released payload")
	}
	for _, k := range res.Changed {
		if k == releasedKey {
			return fmt.Errorf("ownership: the changed keys hold one read from a released payload")
		}
	}
	return nil
}
