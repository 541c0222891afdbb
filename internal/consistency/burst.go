package consistency

import (
	"bytes"
	"slices"

	"repro/internal/event"
)

// Burst is a caller-owned accumulator for the tagged push path:
// PushTaggedInto appends outputs and their order tags across many calls
// into one Burst, carving every tag's bytes out of the shared Arena. A
// shard worker processes a whole run of input items through its head
// monitor into a single Burst and ships that one buffer to the merger —
// steady-state handoff allocates nothing once the buffers have grown to
// the workload's high-water mark.
//
// A tag is the emitting step (big-endian, see Monitor.step), a phase byte
// and a sub-key, so the tags of one monitor never decrease, across calls
// and across bursts.
//
// Tags[i] aliases Arena (or a previous backing array of it after growth;
// tag bytes are immutable either way). Evs and Tags stay parallel after
// every *Into call. Reset keeps capacity.
type Burst struct {
	Evs   []event.Event
	Tags  [][]byte
	Arena []byte
}

// Reset empties the burst, retaining backing storage.
func (b *Burst) Reset() {
	b.Evs = b.Evs[:0]
	b.Tags = b.Tags[:0]
	b.Arena = b.Arena[:0]
}

// Len reports the number of accumulated outputs.
func (b *Burst) Len() int { return len(b.Evs) }

// tagged is one output item of a sibling monitor with its order tag.
type tagged struct {
	ev  event.Event
	tag []byte
}

// Merger is the deterministic shard-merge stage: it interleaves the tagged
// bursts of sibling monitors into the exact sequence one un-sharded monitor
// emits. Its contract is the one PushTaggedInto states: every sibling sees
// the whole input — data, punctuation and control — and its operator
// processes only the keys it owns, so they take the same steps, and their
// bursts cover the same stretch of input.
// Each sibling's own emission order survives (the sort is stable, and equal
// tags keep sibling order); the tags fix the order across siblings; and a
// CTI whose tag equals the previous CTI's is a sibling's redundant copy of
// the same punctuation, kept once.
//
// A Merger is reusable (scratch is retained across calls) and not safe for
// concurrent use.
type Merger struct {
	scratch []tagged
	perm    []int
}

// Merge appends the merged interleaving of the siblings' bursts to dst and
// returns it. The bursts are read but not retained.
func (m *Merger) Merge(dst []event.Event, bursts []*Burst) []event.Event {
	all := m.scratch[:0]
	for _, b := range bursts {
		for k := range b.Evs {
			all = append(all, tagged{b.Evs[k], b.Tags[k]})
		}
	}
	perm := m.perm[:0]
	for i := range all {
		perm = append(perm, i)
	}
	slices.SortStableFunc(perm, func(i, j int) int { return bytes.Compare(all[i].tag, all[j].tag) })
	var prevTag []byte
	prevCTI := false
	for _, k := range perm {
		it := &all[k]
		if it.ev.IsCTI() && prevCTI && bytes.Equal(it.tag, prevTag) {
			continue // a sibling's redundant punctuation
		}
		prevTag, prevCTI = it.tag, it.ev.IsCTI()
		dst = append(dst, it.ev)
	}
	m.scratch, m.perm = all, perm
	return dst
}
