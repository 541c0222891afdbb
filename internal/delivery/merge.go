package delivery

import (
	"bytes"
	"sort"

	"repro/internal/event"
)

// tagged is one output item of a shard pipeline together with its order
// tag: an order-preserving byte key (internal/ordkey, produced by the
// consistency monitor's tagged push path) that places the item in the
// emission sequence a single un-sharded pipeline would have produced.
type tagged struct {
	Ev  event.Event
	Tag []byte
}

// Merger is the deterministic shard-merge stage: it interleaves the
// per-shard output bursts for one input item into the exact sequence the
// single-shard engine emits. Shard-local emission order is already correct
// per key (stable sort keeps it); cross-shard order is fully determined by
// the tags; and punctuation — which every shard emits redundantly, with
// identical tags — collapses to a single item per distinct tag.
//
// A Merger is reusable (scratch is retained across calls) and not safe for
// concurrent use.
type Merger struct {
	scratch []tagged
	perm    []int
}

// MergeTagged appends the merged interleaving of one input item's per-shard
// output to dst and returns it: per shard, a run of output events with a
// parallel tag slice, as accumulated by the consistency monitors'
// *TaggedInto path. Slices are read but not retained.
func (m *Merger) MergeTagged(dst []event.Event, evs [][]event.Event, tags [][][]byte) []event.Event {
	total := 0
	for _, sl := range evs {
		total += len(sl)
	}
	if total == 0 {
		return dst
	}
	if len(evs) == 1 {
		return append(dst, evs[0]...)
	}
	all := m.scratch[:0]
	for i, sl := range evs {
		ts := tags[i]
		for k := range sl {
			all = append(all, tagged{Ev: sl[k], Tag: ts[k]})
		}
	}
	// Sort by tag, stably: equal tags keep shard order, and each shard's
	// emission order survives.
	perm := m.perm[:0]
	for i := range all {
		perm = append(perm, i)
	}
	sort.SliceStable(perm, func(i, j int) bool {
		return bytes.Compare(all[perm[i]].Tag, all[perm[j]].Tag) < 0
	})
	var prevTag []byte
	prevCTI := false
	for _, k := range perm {
		it := all[k]
		if it.Ev.IsCTI() && prevCTI && bytes.Equal(it.Tag, prevTag) {
			continue // sibling shards' redundant punctuation
		}
		prevTag, prevCTI = it.Tag, it.Ev.IsCTI()
		dst = append(dst, it.Ev)
	}
	m.scratch, m.perm = all, perm
	return dst
}
