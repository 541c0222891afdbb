package operators

import (
	"sort"

	"repro/internal/event"
	"repro/internal/temporal"
)

// Difference computes S1 − S2 under view-update semantics: at every instant
// the output relation contains the payloads present in S1 and absent from
// S2 at that instant. Output lifetimes are the left lifetimes with the
// matching right lifetimes subtracted.
//
// Difference is intrinsically a blocking operator: output over [a, b) is
// only final once the input guarantee passes b (a future right insert could
// still chop it). The operator therefore finalizes output on Advance —
// the alignment machinery of Section 5 is what unblocks it. At optimistic
// consistency levels the monitor advances it speculatively and repairs with
// retractions.
type Difference struct {
	frontier temporal.Time
	left     map[event.ID]event.Event
	right    map[event.ID]event.Event
	mapJournal[event.Event]
}

// NewDifference builds a difference operator. Port 0 is the left (positive)
// input, port 1 the right (negative) input.
func NewDifference() *Difference {
	return &Difference{
		frontier: temporal.MinTime,
		left:     map[event.ID]event.Event{},
		right:    map[event.ID]event.Event{},
	}
}

// Name implements Op.
func (d *Difference) Name() string { return "difference" }

// Arity implements Op.
func (d *Difference) Arity() int { return 2 }

// Process implements Op: difference buffers until the guarantee moves.
func (d *Difference) Process(port int, e event.Event) []event.Event {
	side := d.left
	if port == 1 {
		side = d.right
	}
	if e.Kind == event.Retract {
		if old, ok := side[e.ID]; ok {
			if e.V.Empty() {
				d.del(side, e.ID)
			} else {
				old.V.End = e.V.End
				d.set(side, e.ID, old)
			}
		}
		return nil
	}
	d.set(side, e.ID, e.Clone())
	return nil
}

// Advance implements Op: output over [frontier, t) is final; emit it.
func (d *Difference) Advance(t temporal.Time) []event.Event {
	if t <= d.frontier {
		return nil
	}
	window := temporal.NewInterval(d.frontier, t)
	var out []event.Event
	for _, l := range d.left {
		base := l.V.Intersect(window)
		if base.Empty() {
			continue
		}
		for _, piece := range subtractAll(base, d.coverFor(l.Payload)) {
			out = append(out, event.Event{
				ID:      event.Pair(l.ID, event.ID(piece.Start)),
				Kind:    event.Insert,
				Type:    l.Type,
				V:       piece,
				O:       temporal.From(piece.Start),
				RT:      l.RT,
				CBT:     []event.ID{l.ID},
				Payload: l.Payload.Clone(),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].V.Start != out[j].V.Start {
			return out[i].V.Start < out[j].V.Start
		}
		if ki, kj := out[i].Payload.Key(), out[j].Payload.Key(); ki != kj {
			return ki < kj
		}
		return out[i].ID < out[j].ID // equal-payload ties: never map order
	})
	d.setTime(&d.frontier, t)
	d.trim(d.left, t)
	d.trim(d.right, t)
	return out
}

// coverFor collects the right-side intervals matching the payload.
func (d *Difference) coverFor(p event.Payload) []temporal.Interval {
	key := p.Key()
	var cover []temporal.Interval
	for _, r := range d.right {
		if r.Payload.Key() == key && !r.V.Empty() {
			cover = append(cover, r.V)
		}
	}
	return cover
}

// subtractAll removes every interval in cover from base, returning the
// surviving pieces in order.
func subtractAll(base temporal.Interval, cover []temporal.Interval) []temporal.Interval {
	pieces := []temporal.Interval{base}
	for _, c := range cover {
		var next []temporal.Interval
		for _, p := range pieces {
			if !p.Overlaps(c) {
				next = append(next, p)
				continue
			}
			if c.Start > p.Start {
				next = append(next, temporal.NewInterval(p.Start, c.Start))
			}
			if c.End < p.End {
				next = append(next, temporal.NewInterval(c.End, p.End))
			}
		}
		pieces = next
	}
	sort.Slice(pieces, func(i, j int) bool { return pieces[i].Start < pieces[j].Start })
	return pieces
}

func (d *Difference) trim(m map[event.ID]event.Event, t temporal.Time) {
	for id, e := range m {
		if e.V.End <= t {
			d.del(m, id)
		}
	}
}

// OutputGuarantee implements Op: output up to t is final after Advance(t).
func (d *Difference) OutputGuarantee(t temporal.Time) temporal.Time { return t }

// StateSize implements Op.
func (d *Difference) StateSize() int { return len(d.left) + len(d.right) }

// Clone implements Op; the clone starts with its journal off.
func (d *Difference) Clone() Op {
	c := NewDifference()
	c.frontier = d.frontier
	for id, e := range d.left {
		c.left[id] = e.Clone()
	}
	for id, e := range d.right {
		c.right[id] = e.Clone()
	}
	return c
}
