package inc

import (
	"maps"
	"slices"
	"sort"

	"repro/internal/algebra"
	"repro/internal/event"
	"repro/internal/operators"
	"repro/internal/ordkey"
	"repro/internal/temporal"
)

// Op is the incremental streaming implementation of a WHEN-clause
// expression: an operators.Op byte-compatible with the semi-naive
// algebra.PatternOp — identical output events in identical order,
// identical Advance order keys, identical state counts — but driven by the
// matcher tree, so per-event cost is O(affected matches) instead of a full
// re-derivation over the live store.
//
// The Op owns emission: the tree maintains pending (the exact match set
// the oracle's Denote would derive over the available store) via deltas,
// and mature applies the SC mode and the FinalizeAt frontier to it with
// the oracle's ApplySC logic. Consumption feeds back into the tree as
// contributor removals, with the consumed events parked in a side store so
// a later removal's un-consume path can revive them.
//
// Unlike the oracle, which sorts a fresh derivation on every step, the
// pending set is maintained *in commit order* ((FinalizeAt, Vs, FirstVs,
// ID) — the SortMatches order) by binary insertion, and mature commits it
// group by group: each consecutive (FinalizeAt, LastVs) run — the oracle's
// ApplySC detection group — is selected and consumed with the same
// threaded consumed-set, but the walk stops at the first group beyond the
// frontier (later groups can only influence groups later still, none of
// which may emit yet) and, under reuse consumption, resumes after the
// stable already-committed prefix instead of re-scanning it.
type Op struct {
	Expr    algebra.Expr
	Mode    algebra.SCMode
	OutType string

	// keyAttr is the correlation-key pushdown attribute (WithJoinKey);
	// empty means unkeyed. See key.go.
	keyAttr string
	// trackVs: maintain sh.vs, the available-occurrence table. Only
	// UNLESS' nodes read it (anchor resolution), so every other
	// expression skips the per-event map writes it would cost.
	trackVs bool

	sh       *shared
	root     node
	store    map[event.ID]*evRec  // available primitive events
	consumed map[event.ID]*evRec  // consumed contributors, kept for revival
	expiry   *expiryQueue[*evRec] // store ∪ consumed, in occurrence order
	pending  pendingList          // the root's live match set, in commit order
	emitted  map[event.ID]*keyedMatch
	// emittedExpiry orders emitted by LastVs, the instant its scope closes.
	emittedExpiry expiryQueue[*keyedMatch]
	scope         temporal.Duration

	// opScalars: the frontier and the emission fast-path state, which a
	// Mark snapshots instead of journaling (journal.go).
	opScalars
	lookups lookups // what sh.n points to

	rootDelta delta             // reusable root-transition scratch
	selBuf    []*keyedMatch     // per-pass committed-selection scratch
	consBuf   map[event.ID]bool // per-pass consumed-set scratch
	outBuf    []event.Event     // mature's reusable output buffer
	remBuf    []event.Event     // remove's reusable output buffer
}

// pendingList keeps the live match set sorted in commit order — exactly
// algebra.SortMatches' (FinalizeAt, Vs, FirstVs, ID) — so mature never
// sorts. ID breaks every tie, making the order total: each match has one
// slot.
type pendingList struct {
	ms []*keyedMatch
}

func commitBefore(a, b *algebra.Match) bool {
	if a.FinalizeAt != b.FinalizeAt {
		return a.FinalizeAt < b.FinalizeAt
	}
	if a.V.Start != b.V.Start {
		return a.V.Start < b.V.Start
	}
	if a.FirstVs != b.FirstVs {
		return a.FirstVs < b.FirstVs
	}
	return a.ID < b.ID
}

// slot locates m's insertion index and whether an entry with m's ID is
// already there.
func (l *pendingList) slot(m *algebra.Match) (int, bool) {
	i := sort.Search(len(l.ms), func(i int) bool { return !commitBefore(&l.ms[i].m, m) })
	return i, i < len(l.ms) && l.ms[i].m.ID == m.ID && !commitBefore(m, &l.ms[i].m)
}

func (l *pendingList) insertAt(i int, km *keyedMatch) { l.ms = slices.Insert(l.ms, i, km) }
func (l *pendingList) removeAt(i int)                 { l.ms = slices.Delete(l.ms, i, i+1) }

func (l *pendingList) size() int { return len(l.ms) }

// OpOption configures NewOp.
type OpOption func(*Op)

// WithJoinKey enables correlation-key pushdown on attr: the tree's join
// lists and (where the expression's CorrKey annotations allow) negation
// stores index their state by the attribute's value, so matching combines
// only within a key instead of across the whole store. The caller — in
// practice the planner — must have proven that the query's predicates
// reject every cross-key combination; the pushdown is a pure index and all
// compiled predicates still run (see key.go for the exact contract).
func WithJoinKey(attr string) OpOption {
	return func(p *Op) { p.keyAttr = attr }
}

// NewOp builds the incremental pattern operator for expr. The expression
// must be Supported; outType names the composite events it emits.
func NewOp(expr algebra.Expr, mode algebra.SCMode, outType string, opts ...OpOption) *Op {
	if outType == "" {
		outType = "composite"
	}
	scope := expr.MaxScope()
	if scope <= 0 {
		scope = 1
	}
	p := &Op{
		Expr:      expr,
		Mode:      mode,
		OutType:   outType,
		emitted:   map[event.ID]*keyedMatch{},
		scope:     scope,
		opScalars: opScalars{frontier: temporal.MinTime, minAddFin: temporal.Infinity, minFutureFin: temporal.Infinity},
	}
	for _, o := range opts {
		o(p)
	}
	p.trackVs = usesAnchorTimes(expr)
	p.sh = &shared{key: newKeyCfg(p.keyAttr), pay: &payloadTable{last: new(uint64)}, u: &undoLog{}, n: &p.lookups}
	p.build()
	return p
}

// build gives an Op without a tree — a new one, or one reset by
// Advance(∞) — its empty tree, stores and caches.
func (p *Op) build() {
	p.sh.vs, p.sh.recs = map[event.ID]temporal.Time{}, newRecCache()
	p.root = build(p.Expr, p.sh, buildCtx{pos: true})
	p.store = map[event.ID]*evRec{}
	p.consumed = map[event.ID]*evRec{}
	p.expiry = &expiryQueue[*evRec]{}
}

// usesAnchorTimes reports whether the expression contains an UNLESS' node
// — the only reader of the shared occurrence-time table.
func usesAnchorTimes(x algebra.Expr) bool {
	switch e := x.(type) {
	case algebra.UnlessPrimeExpr:
		return true
	case algebra.SequenceExpr:
		return anyAnchorTimes(e.Kids)
	case algebra.AtLeastExpr:
		return anyAnchorTimes(e.Kids)
	case algebra.AtMostExpr:
		return anyAnchorTimes(e.Kids)
	case algebra.UnlessExpr:
		return usesAnchorTimes(e.A) || usesAnchorTimes(e.B)
	case algebra.NotExpr:
		return usesAnchorTimes(e.Seq) || usesAnchorTimes(e.Neg)
	case algebra.CancelWhenExpr:
		return usesAnchorTimes(e.E) || usesAnchorTimes(e.Cancel)
	case algebra.FilterExpr:
		return usesAnchorTimes(e.Kid)
	default:
		return false
	}
}

func anyAnchorTimes(kids []algebra.Expr) bool {
	for _, k := range kids {
		if usesAnchorTimes(k) {
			return true
		}
	}
	return false
}

// JoinKey reports the pushdown attribute, or "" when unkeyed.
func (p *Op) JoinKey() string { return p.keyAttr }

// Name implements operators.Op.
func (p *Op) Name() string { return "incpattern:" + p.Expr.String() }

// Arity implements operators.Op.
func (p *Op) Arity() int { return 1 }

// apply folds a root delta into the pending set.
func (p *Op) apply(d *delta) {
	u := p.sh.u
	for _, it := range d.items {
		m := &it.km.m
		if it.del {
			if i, ok := p.pending.slot(m); ok {
				u.pendDel(&p.pending, i)
				p.pending.removeAt(i)
				if i < p.stable {
					p.stable = 0
				}
				// A disappearing group member can hand its selection slot
				// to a suppressed sibling on the *next* pass (the oracle
				// re-selects over a fresh derivation every mature); rescan.
				// This applies to insert-path deletions too: under aligned
				// input a newly blocked candidate's group cannot have
				// matured, but the oracle tolerates misaligned input (a
				// straggler blocker landing after its window was already
				// selected over) and re-emits the freed sibling — so must
				// we.
				p.dirty = true
			}
			continue
		}
		i, exists := p.pending.slot(m)
		if exists {
			u.pendSet(&p.pending, i)
			p.pending.ms[i] = it.km
			continue
		}
		// The stable prefix ends on a group boundary; an insert below it —
		// or at it, when the new match extends the group just before it —
		// changes an already-committed group and forces a full re-walk.
		if i < p.stable || (i == p.stable && i > 0 &&
			p.pending.ms[i-1].m.FinalizeAt == m.FinalizeAt &&
			p.pending.ms[i-1].m.LastVs == m.LastVs) {
			p.stable = 0
		}
		p.pending.insertAt(i, it.km)
		u.pendIns(&p.pending, i)
		if m.FinalizeAt < p.minAddFin {
			p.minAddFin = m.FinalizeAt
		}
	}
}

// push drives record r through the tree and folds the root's transitions
// into the pending set.
func (p *Op) push(r *evRec) {
	p.rootDelta.reset()
	p.root.push(r, &p.rootDelta)
	p.apply(&p.rootDelta)
}

// withdraw removes event id from the tree (a removal or a consumption) and
// folds the root's transitions into the pending set.
func (p *Op) withdraw(id event.ID) {
	p.rootDelta.reset()
	p.root.remove(id, &p.rootDelta)
	p.apply(&p.rootDelta)
}

// setVs and dropVs maintain the available-occurrence table where an UNLESS'
// reads it.
func (p *Op) setVs(r *evRec) {
	if p.trackVs {
		p.sh.u.timeMap(p.sh.vs, r.id())
		p.sh.vs[r.id()] = r.vs
	}
}

func (p *Op) dropVs(id event.ID) {
	if p.trackVs {
		p.sh.u.timeMap(p.sh.vs, id)
		delete(p.sh.vs, id)
	}
}

// Process implements operators.Op.
func (p *Op) Process(_ int, e event.Event) []event.Event {
	if p.root == nil {
		p.build()
	}
	if e.Kind == event.Retract {
		if !e.V.Empty() {
			return nil // lifetime shrink: pattern semantics see only Vs
		}
		return p.remove(e.ID)
	}
	// The store holds the event's record, not a copy of the event; payload
	// and lineage stay shared with the caller's event. Operator payloads are
	// immutable by contract (the monitor's repair diff leans on exactly that
	// sharing), so the defensive deep clone the oracle performs buys nothing
	// here — and the leaf namespaces the payload into a tree-owned map anyway.
	r := p.sh.recs.of(&e)
	p.sh.u.recMap(p.store, e.ID)
	p.store[e.ID] = r
	p.expiry.push(r, p.sh.u)
	p.setVs(r)
	p.push(r)
	return p.mature()
}

// remove handles a full removal of a primitive event: cascade it through
// the tree, retract dependent emitted outputs in deterministic commit
// order, revive un-consumed contributors, and re-mature.
func (p *Op) remove(id event.ID) []event.Event {
	u := p.sh.u
	sr, inStore := p.store[id]
	cr, wasConsumed := p.consumed[id]
	if !inStore && !wasConsumed {
		return nil
	}
	if inStore {
		u.recMapKnown(p.store, id, sr)
		delete(p.store, id)
	}
	if wasConsumed {
		u.recMapKnown(p.consumed, id, cr)
		delete(p.consumed, id)
	}
	p.dropVs(id)
	if inStore {
		p.withdraw(id)
	}

	// Emitted outputs that depend on the removed contributor: retract in
	// the commit order the oracle's (sorted) emitted scan produces.
	var hit []*keyedMatch
	for _, km := range p.emitted {
		for _, c := range km.m.CBT {
			if c == id {
				hit = append(hit, km)
				break
			}
		}
	}
	sort.Slice(hit, func(i, j int) bool { return commitBefore(&hit[i].m, &hit[j].m) })
	outs := p.remBuf[:0]
	for _, km := range hit {
		r := p.output(&km.m)
		r.Kind = event.Retract
		r.V.End = r.V.Start
		outs = append(outs, r)
		u.matchMapKnown(p.emitted, km.m.ID, km)
		delete(p.emitted, km.m.ID)
		p.dirty = true
		if wasConsumed || p.Mode.Cons == algebra.Consume {
			for _, c := range km.m.CBT {
				if c == id {
					continue
				}
				if rec, ok := p.consumed[c]; ok {
					u.recMapKnown(p.consumed, c, rec)
					delete(p.consumed, c)
					u.recMap(p.store, c)
					p.store[c] = rec
					p.setVs(rec)
					p.push(rec)
				}
			}
		}
	}
	outs = append(outs, p.mature()...)
	p.remBuf = outs[:0]
	return outs
}

// mature emits every not-yet-emitted pending match whose FinalizeAt the
// frontier covers, in deterministic commit order, honoring the SC mode —
// the oracle's ApplySC emission loop, run group by group over the
// commit-ordered pending set instead of a fresh sorted derivation, skipped
// entirely while nothing can emit, and cut short at the first group beyond
// the frontier.
func (p *Op) mature() []event.Event {
	if !p.dirty && p.minAddFin > p.frontier && p.minFutureFin > p.frontier {
		return nil
	}
	p.dirty = false
	p.minAddFin = temporal.Infinity

	ms := p.pending.ms
	start := 0
	if p.Mode.Cons == algebra.Reuse {
		// stable <= len(ms) is invariant: it is only ever set to a group
		// boundary of the current list, and every mutation below it
		// resets it to 0.
		start = p.stable
	}

	// Phase 1 — selection: the oracle's ApplySC over the groups the
	// frontier covers, into reusable scratch, one algebra.CommitGroup call
	// per (FinalizeAt, LastVs) run — the very function ApplySC commits
	// with. Groups beyond the frontier cannot emit and their consumption
	// can only affect groups later still, so the walk stops there.
	sel := p.selBuf[:0]
	var consumed map[event.ID]bool
	if p.Mode.Cons == algebra.Consume && start < len(ms) {
		if p.consBuf == nil {
			p.consBuf = map[event.ID]bool{}
		} else {
			clear(p.consBuf)
		}
		consumed = p.consBuf
	}

	cut := start
	for cut < len(ms) && ms[cut].m.FinalizeAt <= p.frontier {
		i := cut
		j := i + 1
		for j < len(ms) && ms[j].m.FinalizeAt == ms[i].m.FinalizeAt && ms[j].m.LastVs == ms[i].m.LastVs {
			j++
		}
		sel = algebra.CommitGroup(ms[i:j], matchOf, p.Mode, consumed, sel)
		cut = j
	}

	// Entries past the cut were never emitted (emission requires the
	// frontier to have covered them, and the frontier only grows), so the
	// first one's FinalizeAt is the earliest future emission candidate.
	if cut < len(ms) {
		p.minFutureFin = ms[cut].m.FinalizeAt
	} else {
		p.minFutureFin = temporal.Infinity
	}
	if p.Mode.Cons == algebra.Reuse {
		p.stable = cut
	}

	// Phase 2 — emission with consume feedback. The feedback mutates the
	// pending list (and p.stable/dirty through apply), which is why the
	// selection above committed into scratch first — exactly the
	// ApplySC-then-emit split the oracle uses.
	outs := p.outBuf[:0]
	for _, km := range sel {
		if _, done := p.emitted[km.m.ID]; done {
			continue
		}
		p.sh.u.matchMap(p.emitted, km.m.ID)
		p.emitted[km.m.ID] = km
		p.emittedExpiry.push(km, p.sh.u)
		if p.Mode.Cons == algebra.Consume {
			p.consume(km)
		}
		outs = append(outs, p.output(&km.m))
	}
	p.selBuf = sel[:0]
	p.outBuf = outs[:0]
	return outs
}

// output is m's output event (algebra.Match.Event's). An interned match is
// never written, so the event carries m's own lineage, capped so that no
// append reaches past it: whatever keeps the output copies what it keeps.
func (p *Op) output(m *algebra.Match) event.Event {
	return event.Event{ID: m.ID, Kind: event.Insert, Type: p.OutType, V: m.V, O: temporal.From(m.V.Start),
		RT: m.RT, CBT: m.CBT[:len(m.CBT):len(m.CBT)], Payload: m.Payload}
}

// matchOf is CommitGroup's accessor over the pending list's references.
func matchOf(km **keyedMatch) *algebra.Match { return &(*km).m }

// consume parks an emitted match's contributors in the side store and
// removes them from the tree, so no later instance can reuse them — and so
// remove() can resurrect them.
func (p *Op) consume(km *keyedMatch) {
	for _, id := range km.m.CBT {
		r, ok := p.store[id]
		if !ok {
			continue
		}
		p.sh.u.recMapKnown(p.store, id, r)
		delete(p.store, id)
		p.dropVs(id)
		p.sh.u.recMap(p.consumed, id)
		p.consumed[id] = r
		p.withdraw(id)
	}
}

// Advance implements operators.Op: move the certainty frontier, emit
// finalized detections, prune state beyond the expression scope.
func (p *Op) Advance(t temporal.Time) []event.Event {
	if t > p.frontier {
		p.frontier = t
	}
	outs := p.mature()
	u := p.sh.u
	if !p.frontier.IsInfinite() {
		// Prune on every advance, exactly like the oracle: even input that
		// violates the alignment contract (which the oracle tolerates) must
		// leave both implementations in identical state. The queues make
		// that O(expired): tree state derives from leaf events, every one
		// of which is in store with an entry in p.expiry, so a run that
		// popped nothing proves the tree holds nothing prunable either.
		horizon := p.frontier.Add(-p.scope)
		if run := p.expiry.expire(horizon, u); len(run) > 0 {
			p.rootDelta.reset()
			p.root.prune(horizon, &p.rootDelta)
			p.apply(&p.rootDelta)
			// An entry is stale unless its event is still held, at this
			// occurrence time (removed events stay queued; a re-pushed one
			// has a later entry too).
			for _, r := range run {
				id := r.id()
				if cur, ok := p.store[id]; ok && cur.vs == r.vs {
					u.recMapKnown(p.store, id, cur)
					delete(p.store, id)
					p.dropVs(id)
				}
				if cur, ok := p.consumed[id]; ok && cur.vs == r.vs {
					u.recMapKnown(p.consumed, id, cur)
					delete(p.consumed, id)
				}
			}
		}
		for _, km := range p.emittedExpiry.expire(horizon, u) {
			id := km.m.ID
			if cur, ok := p.emitted[id]; ok && cur.m.V.Start == km.m.V.Start {
				u.matchMapKnown(p.emitted, id, cur)
				delete(p.emitted, id)
			}
		}
	} else if p.root != nil {
		// Wholesale reset: journal the replaced containers (the tree, the
		// stores with their queue, the pending list) as one record and
		// leave none (Process builds a tree for an item after ∞). The new
		// shared struct keeps the journal; the payload table's ids continue.
		u.reset(p)
		p.sh = &shared{key: p.sh.key, pay: &payloadTable{last: p.sh.pay.last}, u: u, n: p.sh.n}
		p.root, p.store, p.consumed, p.expiry = nil, nil, nil, nil
		p.pending = pendingList{}
		p.dirty = false
		p.stable = 0
		p.minAddFin = temporal.Infinity
		p.minFutureFin = temporal.Infinity
	}
	return outs
}

// AppendAdvanceKey implements operators.AdvanceOrdered, byte-identical to
// the oracle: mature commits detections in (FinalizeAt, Vs, FirstVs, ID)
// order, so that tuple is the cross-key position of an Advance output.
func (p *Op) AppendAdvanceKey(dst []byte, e event.Event) []byte {
	fin, vs, first := e.V.Start, e.V.Start, e.RT
	if km, ok := p.emitted[e.ID]; ok {
		fin, vs, first = km.m.FinalizeAt, km.m.V.Start, km.m.FirstVs
	}
	dst = ordkey.AppendInt(dst, int64(fin))
	dst = ordkey.AppendInt(dst, int64(vs))
	dst = ordkey.AppendInt(dst, int64(first))
	return ordkey.AppendUint(dst, uint64(e.ID))
}

// OutputGuarantee implements operators.Op, identically to the oracle.
func (p *Op) OutputGuarantee(t temporal.Time) temporal.Time {
	if t.IsInfinite() {
		return t
	}
	return t.Add(-p.scope)
}

// StateSize implements operators.Op: retained primitive events (available
// and consumed — the oracle keeps both in its store) plus emitted matches.
// It counts the stores, never their expiry queues' slots or stale entries.
func (p *Op) StateSize() int { return len(p.store) + len(p.consumed) + len(p.emitted) }

// PerEventCostNs implements operators.CostHint for the overhead-aware
// shard-count heuristic: the delta tree's cost scales with the
// expression's join and negation structure.
func (p *Op) PerEventCostNs() int { return algebra.ExprCostNs(p.Expr) }

// Clone implements operators.Op as an eager copy: mutable state
// duplicated, interning caches shared (clones run sequentially — the Op
// contract), a fresh journal that is off, no scratch buffers (a clone grows
// its own on first use) and no tree if p has none.
func (p *Op) Clone() operators.Op {
	sh := &shared{vs: maps.Clone(p.sh.vs), key: p.sh.key, recs: p.sh.recs, pay: p.sh.pay, u: &undoLog{}, n: p.sh.n}
	var root node
	var expiry *expiryQueue[*evRec]
	if p.root != nil {
		q := p.expiry.clone()
		root, expiry = p.root.clone(sh), &q
	}
	return &Op{
		Expr:          p.Expr,
		Mode:          p.Mode,
		OutType:       p.OutType,
		keyAttr:       p.keyAttr,
		trackVs:       p.trackVs,
		sh:            sh,
		root:          root,
		store:         maps.Clone(p.store),
		consumed:      maps.Clone(p.consumed),
		expiry:        expiry,
		pending:       pendingList{ms: slices.Clone(p.pending.ms)},
		emitted:       maps.Clone(p.emitted),
		emittedExpiry: p.emittedExpiry.clone(),
		scope:         p.scope,
		opScalars:     p.opScalars,
	}
}

// CompositeLookups reports the composites the tree's join nodes built and
// the lookups their caches answered, over the operator's life and its
// clones'. Plain counters: read them only between calls that drive the tree.
func (p *Op) CompositeLookups() (built, hits uint64) { return p.sh.n.built, p.sh.n.hits }

// Held is what the matcher keeps to repair with: the live records in its
// undo journal, and the slots taken in its payload table.
func (p *Op) Held() (undo, entries int) { return p.sh.u.Len(), int(p.sh.pay.n) }

// Mark implements operators.Versioned: an O(1) journal mark returning a
// handle for the operator's current state. The first Mark turns the undo
// journal on; from then on every state mutation appends its exact inverse.
func (p *Op) Mark() operators.Version { return p.sh.u.Mark(p.opScalars) }

// Rollback implements operators.Versioned: undo every mutation back to v,
// in O(mutations since v). v stays valid and can be rolled back to again;
// versions marked after v are invalidated for good.
func (p *Op) Rollback(v operators.Version) bool {
	s, ok := p.sh.u.Rollback(v)
	if ok {
		p.opScalars = s
	}
	return ok
}

// Compact implements operators.Versioned: discard undo history strictly
// below v. Nothing below v is replayed again, and a record or composite a
// replay above it misses is rebuilt equal, so the record cache and every
// composite cache are emptied too, their storage kept.
func (p *Op) Compact(v operators.Version) {
	p.sh.u.Compact(v)
	if p.sh.recs != nil {
		clear(p.sh.recs.m)
		for _, c := range p.sh.recs.combs {
			clear(c.m)
		}
	}
}
