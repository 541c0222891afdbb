package algebra

import (
	"repro/internal/event"
	"repro/internal/operators"
	"repro/internal/ordkey"
	"repro/internal/temporal"
)

// PatternOp is the streaming implementation of a WHEN-clause expression: an
// operators.Op (single input port carrying all event types) that maintains
// a scope-pruned store of primitive events and emits composite events as
// detections finalize.
//
// The implementation is semi-naive: on each advance it re-derives the
// expression's denotation over the live store and emits the matches that
// (a) have become certain (FinalizeAt covered by the frontier), and (b)
// have not been emitted before. SC modes prune both output and state:
// consumed contributors stop matching immediately (they stay in the store,
// marked, so removals can revive them) — the paper's argument for why
// selection/consumption makes operators like SEQUENCE affordable. Scope
// bounds (every operator has a time-based scope w) prune the rest.
//
// This operator is the frozen reference oracle of the two-path algebra
// design: the production evaluator is the incremental matcher tree in
// package algebra/inc, which must reproduce this operator's output
// byte-for-byte and is differentially tested against it.
//
// Retractions: pattern semantics reference only contributor occurrence
// times (Vs), so lifetime-shrinking retractions are no-ops; a full removal
// (retraction to an empty lifetime) deletes the contributor, retracts every
// emitted output it participated in, and revives instances it had blocked
// or consumed.
type PatternOp struct {
	Expr    Expr
	Mode    SCMode
	OutType string

	store    map[event.ID]event.Event
	consumed map[event.ID]bool
	emitted  map[event.ID]Match
	frontier temporal.Time
	scope    temporal.Duration

	// avail mirrors store minus the consumed set, maintained incrementally
	// (swap-delete, order irrelevant: Denote sorts) so every mature pass
	// derives over a ready slice instead of rebuilding one from a
	// consumed-filtered map scan. availIdx locates an event's slot.
	avail    []event.Event
	availIdx map[event.ID]int

	// aliased marks a handle whose state containers are shared with at
	// least one clone. Mutators materialize a private copy first
	// (copy-on-first-write), so Clone itself is O(1).
	aliased bool
}

// NewPatternOp builds the streaming operator for expr. outType names the
// composite events it emits.
func NewPatternOp(expr Expr, mode SCMode, outType string) *PatternOp {
	if outType == "" {
		outType = "composite"
	}
	scope := expr.MaxScope()
	if scope <= 0 {
		scope = 1
	}
	return &PatternOp{
		Expr:     expr,
		Mode:     mode,
		OutType:  outType,
		store:    map[event.ID]event.Event{},
		consumed: map[event.ID]bool{},
		emitted:  map[event.ID]Match{},
		frontier: temporal.MinTime,
		scope:    scope,
		availIdx: map[event.ID]int{},
	}
}

// availAdd appends e to the available slice (no-op if already present).
func (p *PatternOp) availAdd(e event.Event) {
	if _, ok := p.availIdx[e.ID]; ok {
		p.avail[p.availIdx[e.ID]] = e
		return
	}
	p.availIdx[e.ID] = len(p.avail)
	p.avail = append(p.avail, e)
}

// availRemove swap-deletes e from the available slice if present.
func (p *PatternOp) availRemove(id event.ID) {
	i, ok := p.availIdx[id]
	if !ok {
		return
	}
	last := len(p.avail) - 1
	if i != last {
		p.avail[i] = p.avail[last]
		p.availIdx[p.avail[i].ID] = i
	}
	p.avail = p.avail[:last]
	delete(p.availIdx, id)
}

// Name implements operators.Op.
func (p *PatternOp) Name() string { return "pattern:" + p.Expr.String() }

// Arity implements operators.Op.
func (p *PatternOp) Arity() int { return 1 }

// available lists the unconsumed stored events: the incrementally
// maintained mirror, so the semi-naive path no longer pays a store scan,
// a consumed-map lookup per entry and a fresh slice per derivation. The
// result is owned by the operator; Denote only reads it.
func (p *PatternOp) available() []event.Event { return p.avail }

// mature emits every not-yet-emitted match whose FinalizeAt the frontier
// covers, in deterministic commit order, honoring the SC mode.
func (p *PatternOp) mature() []event.Event {
	ms := ApplySC(Denote(p.Expr, p.available()), p.Mode)
	var outs []event.Event
	for _, m := range ms {
		if m.FinalizeAt > p.frontier {
			continue
		}
		if _, done := p.emitted[m.ID]; done {
			continue
		}
		p.emitted[m.ID] = m
		if p.Mode.Cons == Consume {
			// Consumed instances never contribute again, but their events
			// must stay in the store (marked, and dropped from avail):
			// remove()'s un-consume path revives them, and a deleted event
			// could never re-materialize (blocked instances would stay dead).
			for _, id := range m.CBT {
				if !p.consumed[id] {
					p.consumed[id] = true
					p.availRemove(id)
				}
			}
		}
		outs = append(outs, m.Event(p.OutType))
	}
	return outs
}

// Process implements operators.Op.
func (p *PatternOp) Process(_ int, e event.Event) []event.Event {
	p.ensureOwned()
	if e.Kind == event.Retract {
		if !e.V.Empty() {
			return nil // lifetime shrink: pattern semantics see only Vs
		}
		return p.remove(e.ID)
	}
	if e.V.Start > p.frontier {
		p.frontier = e.V.Start
	}
	ec := e.Clone()
	p.store[e.ID] = ec
	if !p.consumed[e.ID] {
		p.availAdd(ec)
	}
	return p.mature()
}

// remove handles a full removal of a primitive event: retract dependent
// outputs, un-consume their other contributors, re-derive.
func (p *PatternOp) remove(id event.ID) []event.Event {
	if _, ok := p.store[id]; !ok && !p.consumed[id] {
		return nil
	}
	delete(p.store, id)
	p.availRemove(id)
	wasConsumed := p.consumed[id]
	delete(p.consumed, id)

	// Collect the dependent outputs first and retract them in deterministic
	// commit order — map iteration order must not leak into the output
	// stream (the incremental matcher emits the identical sequence).
	var hit []Match
	for _, m := range p.emitted {
		for _, c := range m.CBT {
			if c == id {
				hit = append(hit, m)
				break
			}
		}
	}
	SortMatches(hit)
	var outs []event.Event
	for _, m := range hit {
		r := m.Event(p.OutType)
		r.Kind = event.Retract
		r.V.End = r.V.Start
		outs = append(outs, r)
		delete(p.emitted, m.ID)
		if wasConsumed || p.Mode.Cons == Consume {
			for _, c := range m.CBT {
				if c == id || !p.consumed[c] {
					continue
				}
				delete(p.consumed, c)
				if ev, ok := p.store[c]; ok {
					p.availAdd(ev)
				}
			}
		}
	}
	// Removal (of a blocker or of a consumer's contributor) can make other
	// instances qualify.
	outs = append(outs, p.mature()...)
	return outs
}

// Advance implements operators.Op: move the certainty frontier, emit
// finalized detections, prune state beyond every operator scope.
func (p *PatternOp) Advance(t temporal.Time) []event.Event {
	p.ensureOwned()
	if t > p.frontier {
		p.frontier = t
	}
	outs := p.mature()
	if !p.frontier.IsInfinite() {
		horizon := p.frontier.Add(-p.scope)
		for id, e := range p.store {
			if e.V.Start < horizon {
				delete(p.store, id)
				delete(p.consumed, id)
				p.availRemove(id)
			}
		}
		for id, m := range p.emitted {
			if m.LastVs < horizon {
				delete(p.emitted, id)
			}
		}
	} else {
		p.store = map[event.ID]event.Event{}
		p.consumed = map[event.ID]bool{}
		p.avail = nil
		p.availIdx = map[event.ID]int{}
	}
	return outs
}

// AppendAdvanceKey implements operators.AdvanceOrdered: mature commits
// detections in (FinalizeAt, Vs, FirstVs, ID) order (SortMatches), so that
// tuple is the cross-key position of an Advance output. The just-emitted
// match is still in p.emitted; fall back to the event's own header fields
// if scope pruning already dropped it (same leading attributes, so the
// relative order of co-emitted outputs is preserved).
func (p *PatternOp) AppendAdvanceKey(dst []byte, e event.Event) []byte {
	fin, vs, first := e.V.Start, e.V.Start, e.RT
	if m, ok := p.emitted[e.ID]; ok {
		fin, vs, first = m.FinalizeAt, m.V.Start, m.FirstVs
	}
	dst = ordkey.AppendInt(dst, int64(fin))
	dst = ordkey.AppendInt(dst, int64(vs))
	dst = ordkey.AppendInt(dst, int64(first))
	return ordkey.AppendUint(dst, uint64(e.ID))
}

// OutputGuarantee implements operators.Op: an input guarantee at t
// finalizes every output anchored after t − scope; compensations for
// still-repairable detections can reach back at most one full scope.
func (p *PatternOp) OutputGuarantee(t temporal.Time) temporal.Time {
	if t.IsInfinite() {
		return t
	}
	return t.Add(-p.scope)
}

// StateSize implements operators.Op.
func (p *PatternOp) StateSize() int { return len(p.store) + len(p.emitted) }

// Clone implements operators.Op. The copy is O(1): both handles keep
// sharing the state containers and mark themselves aliased; whichever
// handle mutates first materializes a private copy (clones are driven
// sequentially per the Op contract, so first-write is well-defined).
func (p *PatternOp) Clone() operators.Op {
	c := new(PatternOp)
	*c = *p
	p.aliased = true
	c.aliased = true
	return c
}

// ensureOwned materializes a private copy of state shared with clones; the
// body is the former eager Clone. Handles that still alias the old
// containers are untouched — they keep the state as of the share point.
func (p *PatternOp) ensureOwned() {
	if !p.aliased {
		return
	}
	store, consumed, emitted := p.store, p.consumed, p.emitted
	p.store = make(map[event.ID]event.Event, len(store))
	p.consumed = make(map[event.ID]bool, len(consumed))
	p.emitted = make(map[event.ID]Match, len(emitted))
	p.avail = nil
	p.availIdx = make(map[event.ID]int, len(store))
	p.aliased = false
	for id, e := range store {
		ec := e.Clone()
		p.store[id] = ec
		if !consumed[id] {
			p.availAdd(ec)
		}
	}
	for id, v := range consumed {
		p.consumed[id] = v
	}
	for id, m := range emitted {
		p.emitted[id] = m
	}
}
