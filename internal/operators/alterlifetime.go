package operators

import (
	"maps"

	"repro/internal/event"
	"repro/internal/temporal"
)

// TimeFn computes a new start time from an event (the paper's fVs).
type TimeFn func(event.Event) temporal.Time

// DurFn computes a new lifetime duration from an event (the paper's f∆).
type DurFn func(event.Event) temporal.Duration

// AlterLifetime is Definition 12, the paper's one non-view-update-compliant
// (but well-behaved) operator:
//
//	Π fVs,f∆ (S) = {(|fVs(e)|, |fVs(e)| + |f∆(e)|, e.Payload) | e ∈ E(S)}
//
// It maps events from one valid-time domain to another: new start times come
// from fVs, new durations from f∆ — "a constrained form of project on the
// temporal fields". Windows, and the separation of inserts from deletes, are
// derived from it (see Window, HopWindow, Inserts, Deletes).
//
// A retraction of an input event may change the output interval in ways a
// retraction cannot express (e.g. Deletes moves the output *start* when Ve
// shrinks). In that case the operator removes the old output entirely and
// emits a fresh insert — exactly the remove-then-reinsert dance Figure 2
// performs at CEDR times 4–6.
type AlterLifetime struct {
	name string
	FVs  TimeFn
	FDur DurFn
	// Guarantee translates input guarantees to output guarantees. The
	// default (identity) is sound for all derivations in this package;
	// exotic fVs functions must supply their own.
	Guarantee func(temporal.Time) temporal.Time

	inputs  map[event.ID]event.Event // input ID → current input version
	emitted map[event.ID]event.Event // input ID → last emitted output (if any)
	mapJournal[event.Event]
}

// NewAlterLifetime builds the operator from the two lifetime functions.
func NewAlterLifetime(fvs TimeFn, fdur DurFn) *AlterLifetime {
	return &AlterLifetime{
		name:    "alterlifetime",
		FVs:     fvs,
		FDur:    fdur,
		inputs:  map[event.ID]event.Event{},
		emitted: map[event.ID]event.Event{},
	}
}

// Window is the moving window operator W of Section 6, a special instance
// of AlterLifetime that clips each validity interval to at most wl:
//
//	W wl(S) = Π Vs, min(Ve−Vs, wl) (S)
func Window(wl temporal.Duration) *AlterLifetime {
	a := NewAlterLifetime(
		func(e event.Event) temporal.Time { return e.V.Start },
		func(e event.Event) temporal.Duration {
			d := e.V.Duration()
			if d > wl {
				return wl
			}
			return d
		},
	)
	a.name = "window"
	return a
}

// HopWindow derives a hopping window using integer division, as the paper
// suggests: an event's lifetime snaps to the hop-aligned window containing
// its start, extended to the window size.
func HopWindow(size, hop temporal.Duration) *AlterLifetime {
	a := NewAlterLifetime(
		func(e event.Event) temporal.Time {
			return temporal.Time(int64(e.V.Start) / int64(hop) * int64(hop))
		},
		func(event.Event) temporal.Duration { return size },
	)
	a.name = "hopwindow"
	return a
}

// Inserts exposes the insert half of a stream: Inserts(S) = Π Vs,∞ (S).
func Inserts() *AlterLifetime {
	a := NewAlterLifetime(
		func(e event.Event) temporal.Time { return e.V.Start },
		func(event.Event) temporal.Duration { return temporal.Duration(temporal.Infinity) },
	)
	a.name = "inserts"
	return a
}

// Deletes exposes the delete half of a stream: Deletes(S) = Π Ve,∞ (S).
// Events that are never deleted (Ve = ∞) produce no output.
func Deletes() *AlterLifetime {
	a := NewAlterLifetime(
		func(e event.Event) temporal.Time { return e.V.End },
		func(event.Event) temporal.Duration { return temporal.Duration(temporal.Infinity) },
	)
	a.name = "deletes"
	return a
}

// Name implements Op.
func (a *AlterLifetime) Name() string { return a.name }

// Arity implements Op.
func (a *AlterLifetime) Arity() int { return 1 }

// outputFor computes the mapped interval for the (current version of the)
// input event; ok is false when the mapping produces no output (e.g.
// Deletes of a still-live event).
func (a *AlterLifetime) outputFor(e event.Event) (temporal.Interval, bool) {
	vs := a.FVs(e)
	if vs.IsInfinite() {
		return temporal.Interval{}, false
	}
	iv := temporal.NewInterval(vs, vs.Add(a.FDur(e)))
	if iv.Empty() {
		return temporal.Interval{}, false
	}
	return iv, true
}

// Process implements Op.
func (a *AlterLifetime) Process(_ int, e event.Event) []event.Event {
	if e.Kind == event.Retract {
		return a.retract(e)
	}
	a.set(a.inputs, e.ID, e)
	iv, ok := a.outputFor(e)
	if !ok {
		return nil
	}
	out := event.Event{
		ID:      e.ID,
		Kind:    event.Insert,
		Type:    e.Type,
		V:       iv,
		O:       temporal.From(iv.Start),
		RT:      e.RT,
		CBT:     []event.ID{e.ID},
		Payload: e.Payload,
	}
	a.set(a.emitted, e.ID, out)
	return []event.Event{out}
}

func (a *AlterLifetime) retract(e event.Event) []event.Event {
	in, known := a.inputs[e.ID]
	if !known {
		return nil // unknown or already-finalized input
	}
	// Apply the retraction to the stored input version.
	if e.V.Empty() {
		in.V.End = in.V.Start
	} else {
		in.V.End = e.V.End
	}
	if in.V.Empty() {
		a.del(a.inputs, e.ID)
	} else {
		a.set(a.inputs, e.ID, in)
	}

	old, had := a.emitted[e.ID]
	var newIv temporal.Interval
	newOK := false
	if !in.V.Empty() {
		newIv, newOK = a.outputFor(in) // in is the stored insert, shrunk
	}

	var out []event.Event
	switch {
	case had && !newOK:
		// Output disappears entirely.
		out = append(out, retractTo(old, old.V.Start))
		a.del(a.emitted, e.ID)
	case had && newOK && newIv == old.V:
		// Unchanged (e.g. Inserts ignores Ve).
	case had && newOK && newIv.Start == old.V.Start && newIv.End < old.V.End:
		// Pure shrink at the end: expressible as an output retraction.
		out = append(out, retractTo(old, newIv.End))
		old.V = newIv
		a.set(a.emitted, e.ID, old)
	case had && newOK:
		// Start moved, or lifetime grew: remove the old output and insert
		// the new lifetime under a derived ID (the Figure 2
		// remove-and-reinsert pattern).
		out = append(out, retractTo(old, old.V.Start))
		out = append(out, a.reinsert(in, newIv))
	case !had && newOK:
		// Retraction created output (e.g. Deletes: the delete point is now
		// known).
		out = append(out, a.reinsert(in, newIv))
	}
	return out
}

func (a *AlterLifetime) reinsert(in event.Event, iv temporal.Interval) event.Event {
	out := event.Event{
		ID:      event.Pair(in.ID, event.ID(iv.Start)),
		Kind:    event.Insert,
		Type:    in.Type,
		V:       iv,
		O:       temporal.From(iv.Start),
		RT:      in.RT,
		CBT:     []event.ID{in.ID},
		Payload: in.Payload,
	}
	a.set(a.emitted, in.ID, out)
	return out
}

// Advance implements Op: an input whose validity ends by t can no longer be
// retracted (a retraction's Sync is its new Ve, which the guarantee forces
// to be >= t, and a retraction never extends a lifetime), so its state is
// dropped. Inputs valid forever must be kept — they remain retractable.
func (a *AlterLifetime) Advance(t temporal.Time) []event.Event {
	for id, in := range a.inputs {
		if !in.V.End.IsInfinite() && in.V.End <= t {
			a.del(a.inputs, id)
			a.del(a.emitted, id)
		}
	}
	return nil
}

// OutputGuarantee implements Op.
func (a *AlterLifetime) OutputGuarantee(t temporal.Time) temporal.Time {
	if a.Guarantee != nil {
		return a.Guarantee(t)
	}
	return t
}

// StateSize implements Op.
func (a *AlterLifetime) StateSize() int { return len(a.inputs) }

// Clone implements Op; the clone starts with its journal off.
func (a *AlterLifetime) Clone() Op {
	return &AlterLifetime{name: a.name, FVs: a.FVs, FDur: a.FDur, Guarantee: a.Guarantee,
		inputs: maps.Clone(a.inputs), emitted: maps.Clone(a.emitted)}
}
