package consistency

import (
	"bytes"
	"slices"

	"repro/internal/event"
	"repro/internal/ordkey"
	"repro/internal/temporal"
)

// Burst is an accumulator of a monitor's output: PushTaggedInto,
// SetSpecTaggedInto and FinishTaggedInto append their outputs, and on a
// tagged call their order tags, across many calls into one Burst, carving
// every tag's bytes out of the shared Arena. A shard worker processes a
// whole run of input items through its head monitor into a single Burst
// and ships that one buffer to the merger — steady-state handoff allocates
// nothing once the buffers have grown to the workload's high-water mark.
// The plain Push, SetSpec and Finish emit into a Burst the monitor owns.
//
// A tag is the emitting step (big-endian, see tagSink.step), a phase byte
// and a sub-key, so the tags of one monitor never decrease, across calls
// and across bursts.
//
// Tags[i] aliases Arena (or a previous backing array of it after growth;
// tag bytes are immutable either way). Evs and Tags stay parallel after
// every tagged call. Reset keeps capacity.
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

// Output-order tag phases: within one step, the speculative Advance's
// outputs precede the Process outputs, repair diffs stand alone, and
// punctuation is a step of its own.
const (
	tagAdvance byte = 1
	tagDiff    byte = 2
	tagProcess byte = 3
	tagCTI     byte = 4
)

// tagSink is where a monitor's output goes: each externally driven call
// points it at a Burst (see Monitor.begin), and put appends every output
// item there, stamped, counted and, on a tagged call, with its order tag.
// Every shard's monitor is driven through the same calls, so sibling sinks
// take the same steps and their tags interleave exactly (see Merger).
type tagSink struct {
	b       *Burst            // the current call's output
	tagging bool              // the current call wants order tags
	at      temporal.Interval // the current call's CEDR stamp
	// step counts, over the monitor's whole life, every admission, every
	// guarantee advance and every emitted CTI; an output's tag leads with the
	// step that emitted it. On untagged calls only step moves.
	step   uint64
	advKey func(dst []byte, e event.Event) []byte // the operator's AppendAdvanceKey, if any
	met    *Metrics
}

// put appends one output item and, on a tagged call, its order tag: the
// step, the phase and a sub-key — for a repair diff the fact's id, for an
// Advance output the operator's AppendAdvanceKey. A data item e carries the
// operator's fact id and leaves under the physical id Pair(id, gen); it
// counts as an insert or a retraction, and a diff's retraction as a
// compensation.
func (s *tagSink) put(phase byte, e event.Event, gen uint64) {
	if s.tagging {
		off := len(s.b.Arena)
		t := append(ordkey.AppendUint(s.b.Arena, s.step), phase)
		switch {
		case phase == tagDiff:
			t = ordkey.AppendUint(t, uint64(e.ID))
		case phase == tagAdvance && s.advKey != nil:
			t = s.advKey(t, e)
		}
		s.b.Arena = t
		s.b.Tags = append(s.b.Tags, t[off:len(t):len(t)])
	}
	switch e.Kind {
	case event.CTI:
		s.met.OutputCTIs++
	case event.Retract:
		s.met.OutputRetractions++
		if phase == tagDiff {
			s.met.Compensations++
		}
	default:
		s.met.OutputInserts++
	}
	if e.Kind != event.CTI {
		e.ID = event.Pair(e.ID, event.ID(gen))
	}
	e.C = s.at
	s.b.Evs = append(s.b.Evs, e)
}

// retract emits the compensation that shrinks the displaced fact old to
// end (removing it when end is its start).
func (s *tagSink) retract(old *netFact, end temporal.Time) {
	r := old.ev
	r.Kind = event.Retract
	r.V.End = end
	s.put(tagDiff, r, old.gen)
}

// cti emits output punctuation as a step of its own. Every sibling shard
// emits it at the same step, so the tags match exactly and the merge
// collapses the redundant copies.
func (s *tagSink) cti(t temporal.Time) {
	s.step++
	s.put(tagCTI, event.NewCTI(t), 0)
}

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
