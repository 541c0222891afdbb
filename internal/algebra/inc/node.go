// Package inc is the incremental pattern-matching subsystem: a matcher
// tree that maintains the denotation of a WHEN-clause expression (package
// algebra) under a stream of primitive-event insertions, removals and
// scope-pruning advances by propagating *deltas* — new and retracted
// matches — instead of re-deriving the expression over the full store on
// every step (the semi-naive strategy of algebra.PatternOp, which this
// package keeps as its frozen reference oracle).
//
// Every algebra.Expr node compiles to a stateful matcher node holding
// time-indexed contributor stores and partial matches:
//
//   - TYPE        → leaf: the live primitive matches of one event type
//   - SEQUENCE    → per-position sorted match lists joined incrementally
//   - ATLEAST     → position-subset join with output reference counts
//   - ATMOST      → sliding-window anchor counts
//   - UNLESS, UNLESS', NOT, CANCEL-WHEN → candidate stores with per-
//     candidate blocker counts over an indexed negative-side store
//   - FILTER      → stateless delta filter
//
// The node contract: after any sequence of push/remove/prune calls, the
// node's live output set equals algebra.Denote of its sub-expression over
// the primitive events currently live in its leaves. Deltas report every
// transition of that set, in order, so a parent (or the driving Op, op.go)
// never re-derives. Negation nodes hold pending candidates and flip them
// as blockers arrive and leave; the driving Op decides *emission* (the
// FinalizeAt frontier and SC modes) exactly as the oracle does.
//
// Allocation discipline: nodes append transitions into a caller-owned
// delta (the out-parameter style below) and keep one reusable scratch
// delta per node for collecting child transitions, so the steady-state
// push path allocates nothing for delta plumbing. Derived matches —
// the leaf's namespaced-payload match and the join nodes' combined
// composites — are interned in caches shared with clones: the
// consistency monitor drives every event through a live operator and,
// later, through its cloned checkpoint (and replays suffixes through
// snapshot clones), so the second and subsequent derivations of the
// same match reuse the first one's payload map and lineage outright.
// Clones of one operator are only ever driven sequentially (the Op
// contract), which is what makes the sharing sound; parallel shards
// build fresh operators via plan.Fresh and never share caches.
package inc

import (
	"sort"

	"repro/internal/algebra"
	"repro/internal/event"
	"repro/internal/temporal"
)

// item is one match transition; key is the match's correlation key as the
// node that built the match resolved it (key.go) — always wild in an
// unkeyed tree.
type item struct {
	m   algebra.Match
	key corrKey
	del bool
}

// delta is an ordered batch of match transitions flowing up the tree.
// Order matters: one primitive event can both add and retract matches of
// the same node (an event may contribute to a positive side and block on a
// negative side at once), and applying transitions out of order would leave
// a parent's mirror of its child inconsistent.
type delta struct {
	items []item
}

func (d *delta) add(m algebra.Match, k corrKey) { d.items = append(d.items, item{m: m, key: k}) }
func (d *delta) del(m algebra.Match, k corrKey) {
	d.items = append(d.items, item{m: m, key: k, del: true})
}
func (d *delta) reset() { d.items = d.items[:0] }

// shared is tree-global state owned by the driving Op: the occurrence times
// of the available (live, unconsumed) primitive events (UNLESS' nodes
// resolve their anchor contributor through it at candidate-creation time),
// the correlation-key pushdown configuration (nil = unkeyed; see key.go),
// and the operator's undo journal (journal.go), which every node copies at
// build/clone time so its mutations can be journaled without an indirection
// through sh on the hot path. u is always non-nil; it records nothing until
// the first Mark turns it on.
type shared struct {
	vs  map[event.ID]temporal.Time
	key *keyCfg
	u   *undoLog
}

// buildCtx tracks where in the expression a node is being built, which
// decides whether join nodes may apply the pushdown key:
//
//   - pos: inside the pattern's positive scope. Negative sides of the
//     negation operators never key their joins — a pruned negative-side
//     match is a missing blocker, which would *add* output the residual
//     predicates cannot take back.
//   - frozen: under an ATMOST. Its sliding-window counts are over the kid
//     output sets themselves; pruning those sets would change counts, not
//     just skip doomed composites.
//
// Negation nodes are exempt from both: their keying (gated per site by the
// expression's CorrKey annotation) only indexes candidate↔blocker visits
// and leaves every node's output set bit-identical.
type buildCtx struct {
	pos    bool
	frozen bool
}

// joinKeyed reports whether a join node at this position may index its
// stores by the pushdown key.
func (c buildCtx) joinKeyed(sh *shared) bool {
	return sh.key != nil && c.pos && !c.frozen
}

// route is the key a node files a match under: the match's own key where
// the node indexes by key, wild (one flat list) where it may not.
func route(keyed bool, k corrKey) corrKey {
	if keyed {
		return k
	}
	return corrKey{}
}

// node is one stateful matcher in the tree.
type node interface {
	// push feeds one primitive event (insert); the node dispatches it to
	// its children and folds their deltas into its own state, appending
	// its own transitions to out.
	push(e event.Event, out *delta)
	// remove feeds a full removal of a primitive event by ID.
	remove(id event.ID, out *delta)
	// prune drops state derived from events with Vs < horizon, exactly as
	// the oracle's store pruning does: silently below the driver (the
	// appended transitions let parents stay consistent and let negation
	// nodes surface revivals, but never turn into output retractions).
	prune(horizon temporal.Time, out *delta)
	// clone deep-copies the node, rebinding it to sh. Interning caches
	// are shared with the clone (clones run sequentially).
	clone(sh *shared) node
}

// internCap bounds every interning cache in the tree; pathological streams
// reset a full cache rather than growing it without bound (the same policy
// as the aggregate operator's payload cache).
const internCap = 4096

// keyedMatch is a derived match with its correlation key, resolved once
// by the node that built the match (key.go).
type keyedMatch struct {
	m   algebra.Match
	key corrKey
}

// combCache interns derived matches by ID — combined composites keyed by
// output ID at join nodes, namespaced leaf matches keyed by primitive
// event ID — shared between an operator and its clones. The monitor's
// replay re-derives exactly the matches the operator already derived, so
// the second derivation reuses the first's payload map, lineage slices and
// resolved key. Entries are immutable once stored. cfg is the tree's
// pushdown configuration (nil = unkeyed), under which every entry's key is
// resolved.
type combCache struct {
	cfg *keyCfg
	m   map[event.ID]*keyedMatch
}

// The map is lazily initialized: keyed fan-out builds one tree per
// correlation key, and most per-key leaves intern only a handful of
// matches (or none), so pre-sizing here dominated the allocation profile.
func newCombCache(cfg *keyCfg) *combCache { return &combCache{cfg: cfg} }

func (c *combCache) get(id event.ID) *keyedMatch { return c.m[id] }

// intern resolves km's key — the one of() scan a match gets — and stores
// it under id.
func (c *combCache) intern(id event.ID, km *keyedMatch) *keyedMatch {
	if c.m == nil {
		c.m = make(map[event.ID]*keyedMatch, 64)
	} else if len(c.m) >= internCap {
		clear(c.m)
	}
	km.key = c.cfg.of(km.m.Payload)
	c.m[id] = km
	return km
}

// combined returns the interned composite of parts (ID id), building it
// through algebra.Combine on first derivation.
func (c *combCache) combined(id event.ID, parts []algebra.Match, w temporal.Duration) *keyedMatch {
	if km := c.m[id]; km != nil {
		return km
	}
	return c.intern(id, &keyedMatch{m: algebra.Combine(parts, w)})
}

// keyOf is the retraction path's key lookup for m, interned under id: the
// key stored beside it, or — once a cache reset dropped the entry — one
// of() scan. An unkeyed tree has only wild keys.
func (c *combCache) keyOf(id event.ID, m *algebra.Match) corrKey {
	if c.cfg == nil {
		return corrKey{}
	}
	if km := c.m[id]; km != nil {
		return km.key
	}
	return c.cfg.of(m.Payload)
}

// Supported reports whether the expression grammar is fully covered by the
// matcher tree. It mirrors build: any new Expr kind must extend both.
func Supported(x algebra.Expr) bool {
	switch e := x.(type) {
	case algebra.TypeExpr:
		return true
	case algebra.SequenceExpr:
		return allSupported(e.Kids)
	case algebra.AtLeastExpr:
		return allSupported(e.Kids)
	case algebra.AtMostExpr:
		return allSupported(e.Kids)
	case algebra.UnlessExpr:
		return Supported(e.A) && Supported(e.B)
	case algebra.UnlessPrimeExpr:
		return Supported(e.A) && Supported(e.B)
	case algebra.NotExpr:
		return Supported(e.Neg) && Supported(e.Seq)
	case algebra.CancelWhenExpr:
		return Supported(e.E) && Supported(e.Cancel)
	case algebra.FilterExpr:
		return Supported(e.Kid)
	default:
		return false
	}
}

func allSupported(kids []algebra.Expr) bool {
	for _, k := range kids {
		if !Supported(k) {
			return false
		}
	}
	return true
}

// build compiles an expression into its matcher node. Callers must have
// checked Supported; unknown kinds panic. The root is built with
// buildCtx{pos: true}.
func build(x algebra.Expr, sh *shared, ctx buildCtx) node {
	switch e := x.(type) {
	case algebra.TypeExpr:
		return newLeaf(e, sh)
	case algebra.SequenceExpr:
		return newSeqNode(e, sh, ctx)
	case algebra.AtLeastExpr:
		return newAtLeastNode(e, sh, ctx)
	case algebra.AtMostExpr:
		return newAtMostNode(e, sh, buildCtx{pos: ctx.pos, frozen: true})
	case algebra.UnlessExpr:
		neg := buildCtx{frozen: ctx.frozen}
		return newNegNode(negUnless, build(e.A, sh, ctx), build(e.B, sh, neg), e.W, 0, e.Corr, e.CorrKey, sh)
	case algebra.UnlessPrimeExpr:
		neg := buildCtx{frozen: ctx.frozen}
		return newNegNode(negUnlessPrime, build(e.A, sh, ctx), build(e.B, sh, neg), e.W, e.N, e.Corr, e.CorrKey, sh)
	case algebra.NotExpr:
		neg := buildCtx{frozen: ctx.frozen}
		return newNegNode(negNot, build(e.Seq, sh, ctx), build(e.Neg, sh, neg), 0, 0, e.Corr, e.CorrKey, sh)
	case algebra.CancelWhenExpr:
		neg := buildCtx{frozen: ctx.frozen}
		return newNegNode(negCancelWhen, build(e.E, sh, ctx), build(e.Cancel, sh, neg), 0, 0, e.Corr, e.CorrKey, sh)
	case algebra.FilterExpr:
		return &filterNode{kid: build(e.Kid, sh, ctx), pred: e.Pred}
	default:
		panic("inc: unsupported expression " + x.String())
	}
}

// matchList is a set of matches kept sorted by (V.Start, ID) with binary
// range queries over occurrence time — the time-indexed contributor store
// every join node uses.
type matchList struct {
	ms []algebra.Match
}

func matchBefore(a, b *algebra.Match) bool {
	if a.V.Start != b.V.Start {
		return a.V.Start < b.V.Start
	}
	return a.ID < b.ID
}

func (l *matchList) insert(m algebra.Match) {
	i := sort.Search(len(l.ms), func(i int) bool { return !matchBefore(&l.ms[i], &m) })
	l.ms = append(l.ms, algebra.Match{})
	copy(l.ms[i+1:], l.ms[i:])
	l.ms[i] = m
}

// removeMatch deletes the entry equal to m (by ID at m's occurrence time).
func (l *matchList) removeMatch(m algebra.Match) bool {
	i := sort.Search(len(l.ms), func(i int) bool { return !matchBefore(&l.ms[i], &m) })
	if i < len(l.ms) && l.ms[i].ID == m.ID && l.ms[i].V.Start == m.V.Start {
		l.ms = append(l.ms[:i], l.ms[i+1:]...)
		return true
	}
	return false
}

// lowerBound is the first index with V.Start >= t.
func (l *matchList) lowerBound(t temporal.Time) int {
	return sort.Search(len(l.ms), func(i int) bool { return l.ms[i].V.Start >= t })
}

// upperBound is the first index with V.Start > t.
func (l *matchList) upperBound(t temporal.Time) int {
	return sort.Search(len(l.ms), func(i int) bool { return l.ms[i].V.Start > t })
}

func (l *matchList) clone() matchList {
	return matchList{ms: append([]algebra.Match(nil), l.ms...)}
}

// leafNode matches all primitive events of one type (algebra.TypeExpr).
type leafNode struct {
	t      algebra.TypeExpr
	prefix string
	live   map[event.ID]algebra.Match // keyed by primitive event ID
	// minVs is a conservative lower bound over live occurrence times — the
	// per-leaf watermark: a prune whose horizon lies at or below it proves
	// this leaf holds nothing prunable and skips the scan (the Op-level
	// lowVs gate only proves *some* leaf has prunable state; with the
	// pushdown shrinking per-key work, these map scans were next in the
	// profile). Removals leave it stale, forcing at most one extra scan.
	minVs temporal.Time
	// interned caches the derived match and its correlation key per
	// primitive event ID, shared with clones: a replayed push of an event
	// the operator already saw — and any revival re-push after an
	// un-consume — reuses the namespaced payload map and the resolved key
	// instead of rebuilding them.
	interned *combCache
	u        *undoLog
}

func newLeaf(t algebra.TypeExpr, sh *shared) *leafNode {
	return &leafNode{t: t, prefix: t.Prefix(), live: map[event.ID]algebra.Match{},
		minVs: temporal.Infinity, interned: newCombCache(sh.key), u: sh.u}
}

func (l *leafNode) push(e event.Event, out *delta) {
	if e.Kind != event.Insert || e.Type != l.t.Type {
		return
	}
	km := l.interned.get(e.ID)
	if km == nil {
		p := make(event.Payload, len(e.Payload))
		for k, v := range e.Payload {
			p[l.prefix+"."+k] = v
		}
		// One object holds the interned match and its one-element lineage.
		lm := &struct {
			keyedMatch
			cbt [1]event.ID
		}{cbt: [1]event.ID{e.ID}}
		lm.m = algebra.Match{
			ID:         event.Pair(e.ID),
			V:          e.V,
			RT:         e.V.Start,
			FinalizeAt: e.V.Start,
			FirstVs:    e.V.Start,
			LastVs:     e.V.Start,
			CBT:        lm.cbt[:],
			Payload:    p,
		}
		km = l.interned.intern(e.ID, &lm.keyedMatch)
	}
	l.u.matchMap(l.live, e.ID)
	l.live[e.ID] = km.m
	if km.m.V.Start < l.minVs {
		l.u.leafMin(l)
		l.minVs = km.m.V.Start
	}
	out.add(km.m, km.key)
}

func (l *leafNode) remove(id event.ID, out *delta) {
	if m, ok := l.live[id]; ok {
		l.u.matchMap(l.live, id)
		delete(l.live, id)
		out.del(m, l.interned.keyOf(id, &m))
	}
}

func (l *leafNode) prune(horizon temporal.Time, out *delta) {
	if horizon <= l.minVs {
		return
	}
	l.u.leafMin(l)
	low := temporal.Infinity
	for id, m := range l.live {
		if m.V.Start < horizon {
			l.u.matchMap(l.live, id)
			delete(l.live, id)
			out.del(m, l.interned.keyOf(id, &m))
		} else if m.V.Start < low {
			low = m.V.Start
		}
	}
	l.minVs = low
}

func (l *leafNode) clone(sh *shared) node {
	c := &leafNode{t: l.t, prefix: l.prefix,
		live:     make(map[event.ID]algebra.Match, len(l.live)),
		minVs:    l.minVs,
		interned: l.interned,
		u:        sh.u}
	for id, m := range l.live {
		c.live[id] = m
	}
	return c
}

// filterNode injects a WHERE predicate (algebra.FilterExpr): a stateless
// delta filter over its child's transitions.
type filterNode struct {
	kid  node
	pred func(event.Payload) bool
	kd   delta // reusable child-transition scratch
}

func (f *filterNode) filter(out *delta) {
	for _, it := range f.kd.items {
		if f.pred(it.m.Payload) {
			out.items = append(out.items, it)
		}
	}
}

func (f *filterNode) push(e event.Event, out *delta) {
	f.kd.reset()
	f.kid.push(e, &f.kd)
	f.filter(out)
}

func (f *filterNode) remove(id event.ID, out *delta) {
	f.kd.reset()
	f.kid.remove(id, &f.kd)
	f.filter(out)
}

func (f *filterNode) prune(h temporal.Time, out *delta) {
	f.kd.reset()
	f.kid.prune(h, &f.kd)
	f.filter(out)
}

func (f *filterNode) clone(sh *shared) node {
	return &filterNode{kid: f.kid.clone(sh), pred: f.pred}
}
