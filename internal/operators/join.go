package operators

import (
	"repro/internal/event"
	"repro/internal/temporal"
)

// Join is Definition 9: the θ-join of two streams under view-update
// semantics. Each output carries the intersection of the contributors'
// validity intervals and the concatenation of their payloads:
//
//	⋈θ(S1, S2) = {(max Vs, min Ve, p1 ⧺ p2) | e1 ∈ E(S1), e2 ∈ E(S2),
//	              Vs < Ve, θ(p1, p2)}
//
// The implementation is a symmetric join: each side stores its live events;
// an insert probes the other side, a retraction shrinks previously emitted
// outputs. State is trimmed using input guarantees: once all future input
// has Sync >= t, stored events whose validity ends by t can never join a
// future insert (whose Vs >= t) and can be dropped.
//
// State is kept in insertion order (a slice with tombstones plus an ID
// index) rather than a map, so probe output order is deterministic — two
// runs over the same input emit identical physical streams, which the
// consistency monitor's repair equivalence tests rely on — and probing
// iterates a dense slice instead of map buckets.
type Join struct {
	Theta ThetaJoin
	// RightPrefix disambiguates colliding payload field names from the
	// right input ("right." by default).
	RightPrefix string

	items [2][]joinEntry
	index [2]map[event.ID]int
	dead  [2]int
	journal[joinRec]
}

type joinEntry struct {
	ev   event.Event
	dead bool
}

// joinRec is the inverse of one mutation of a side's state.
type joinRec struct {
	j    *Join
	kind uint8
	port int
	i    int              // joinReplaced: the slot
	old  joinEntry        // joinReplaced: its prior (live) entry
	side []joinEntry      // joinCompacted: the replaced slice, ...
	idx  map[event.ID]int // ... its index, ...
	dead int              // ... and its tombstone count
}

const (
	joinAppended  uint8 = iota // a new entry at the end of items[port]
	joinReplaced               // items[port][i] overwritten, shrunk or killed
	joinCompacted              // items[port] and index[port] replaced wholesale
)

func (r joinRec) Release() {}

func (r joinRec) Undo() {
	j, p := r.j, r.port
	switch r.kind {
	case joinAppended:
		n := len(j.items[p]) - 1
		delete(j.index[p], j.items[p][n].ev.ID)
		j.items[p][n] = joinEntry{}
		j.items[p] = j.items[p][:n]
	case joinReplaced:
		if j.items[p][r.i].dead {
			j.dead[p]--
			j.index[p][r.old.ev.ID] = r.i
		}
		j.items[p][r.i] = r.old
	case joinCompacted:
		j.items[p], j.index[p], j.dead[p] = r.side, r.idx, r.dead
	}
}

// replace journals the overwrite of the live entry in slot i.
func (j *Join) replace(port, i int, ent joinEntry) {
	if j.log.on {
		j.log.Add(joinRec{j: j, kind: joinReplaced, port: port, i: i, old: j.items[port][i]})
	}
	j.items[port][i] = ent
}

// NewJoin builds a θ-join.
func NewJoin(theta ThetaJoin) *Join {
	return &Join{
		Theta:       theta,
		RightPrefix: "right.",
		index:       [2]map[event.ID]int{{}, {}},
	}
}

// Name implements Op.
func (j *Join) Name() string { return "join" }

// Arity implements Op.
func (j *Join) Arity() int { return 2 }

// Process implements Op.
func (j *Join) Process(port int, e event.Event) []event.Event {
	if e.Kind == event.Retract {
		return j.retract(port, e)
	}
	other := 1 - port
	var out []event.Event
	for i := range j.items[other] {
		ent := &j.items[other][i]
		if ent.dead {
			continue
		}
		if iv := e.V.Intersect(ent.ev.V); !iv.Empty() {
			l, r := e, ent.ev
			if port == 1 {
				l, r = ent.ev, e
			}
			if j.Theta(l.Payload, r.Payload) {
				out = append(out, j.pair(l, r, iv))
			}
		}
	}
	if i, ok := j.index[port][e.ID]; ok {
		j.replace(port, i, joinEntry{ev: e})
	} else {
		if j.log.on {
			j.log.Add(joinRec{j: j, kind: joinAppended, port: port})
		}
		j.index[port][e.ID] = len(j.items[port])
		j.items[port] = append(j.items[port], joinEntry{ev: e})
	}
	return out
}

func (j *Join) retract(port int, e event.Event) []event.Event {
	i, ok := j.index[port][e.ID]
	if !ok {
		return nil
	}
	old := j.items[port][i].ev
	other := 1 - port
	var out []event.Event
	for k := range j.items[other] {
		ent := &j.items[other][k]
		if ent.dead {
			continue
		}
		s := ent.ev
		oldOut := old.V.Intersect(s.V)
		if oldOut.Empty() {
			continue
		}
		newOut := temporal.NewInterval(e.V.Start, e.V.End).Intersect(s.V)
		if newOut == oldOut {
			continue
		}
		l, r := old, s
		if port == 1 {
			l, r = s, old
		}
		if !j.Theta(l.Payload, r.Payload) {
			continue
		}
		prev := j.pair(l, r, oldOut)
		end := newOut.End
		if newOut.Empty() {
			end = oldOut.Start // full removal
		}
		out = append(out, retractTo(prev, end))
	}
	if e.V.Empty() {
		j.kill(port, i, e.ID)
		j.maybeCompact(port)
	} else {
		shrunk := j.items[port][i]
		shrunk.ev.V.End = e.V.End
		j.replace(port, i, shrunk)
	}
	return out
}

func (j *Join) kill(port, i int, id event.ID) {
	j.replace(port, i, joinEntry{dead: true})
	delete(j.index[port], id)
	j.dead[port]++
}

// maybeCompact drops tombstones once they dominate, preserving insertion
// order so output determinism survives. Never call while iterating items.
// It builds a fresh slice and index rather than compacting in place, so
// the journal can restore the replaced pair by reference.
func (j *Join) maybeCompact(port int) {
	if j.dead[port] <= 16 || j.dead[port] <= len(j.items[port])/2 {
		return
	}
	if j.log.on {
		j.log.Add(joinRec{j: j, kind: joinCompacted, port: port,
			side: j.items[port], idx: j.index[port], dead: j.dead[port]})
	}
	n := len(j.items[port]) - j.dead[port]
	live := make([]joinEntry, 0, n)
	index := make(map[event.ID]int, n)
	for _, ent := range j.items[port] {
		if !ent.dead {
			index[ent.ev.ID] = len(live)
			live = append(live, ent)
		}
	}
	j.items[port], j.index[port], j.dead[port] = live, index, 0
}

// pair constructs a join output event from the two contributors.
func (j *Join) pair(l, r event.Event, iv temporal.Interval) event.Event {
	p := make(event.Payload, len(l.Payload)+len(r.Payload))
	for k, v := range l.Payload {
		p[k] = v
	}
	for k, v := range r.Payload {
		if _, clash := p[k]; clash {
			p[j.RightPrefix+k] = v
		} else {
			p[k] = v
		}
	}
	return event.Event{
		ID:      event.Pair(l.ID, r.ID),
		Kind:    event.Insert,
		Type:    "join",
		V:       iv,
		O:       temporal.From(iv.Start),
		RT:      temporal.Min(l.RT, r.RT),
		CBT:     []event.ID{l.ID, r.ID},
		Payload: p,
	}
}

// Advance implements Op: stored events that end by t can never overlap a
// future insert, and no future retraction (Sync >= t) can shrink them
// further in a way that affects output.
func (j *Join) Advance(t temporal.Time) []event.Event {
	for port := 0; port < 2; port++ {
		for i := range j.items[port] {
			ent := &j.items[port][i]
			if !ent.dead && ent.ev.V.End <= t {
				j.kill(port, i, ent.ev.ID)
			}
		}
		j.maybeCompact(port)
	}
	return nil
}

// OutputGuarantee implements Op: every output interval starts at the max of
// contributor starts, and retraction Syncs cannot regress below t.
func (j *Join) OutputGuarantee(t temporal.Time) temporal.Time { return t }

// StateSize implements Op.
func (j *Join) StateSize() int { return len(j.index[0]) + len(j.index[1]) }

// Clone implements Op; the clone starts with its journal off.
func (j *Join) Clone() Op {
	c := &Join{Theta: j.Theta, RightPrefix: j.RightPrefix, dead: j.dead}
	for port := 0; port < 2; port++ {
		c.items[port] = append([]joinEntry(nil), j.items[port]...)
		c.index[port] = make(map[event.ID]int, len(j.index[port]))
		for id, i := range j.index[port] {
			c.index[port][id] = i
		}
	}
	return c
}
