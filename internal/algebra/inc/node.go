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
// Allocation discipline: every derived match is allocated once — the
// leaf's namespaced match inside its event's record (expiry.go), a join
// node's composite with its lineage and, where an UNLESS, UNLESS' or ATMOST
// above re-heads it, the slot its re-headed form is derived into
// (keyedMatch.up) — interned as an immutable
// *keyedMatch (the match and its payload's table entry), and referred to
// everywhere else: the nodes' stores and indexes, the delta items flowing up
// the tree, the Op's pending list and emitted table and the undo journal's
// records all hold that one reference, never a copy. Nodes append
// transitions into a caller-owned delta (the out-parameter style below) and
// keep one reusable scratch delta per node for collecting child
// transitions, so the steady-state push path allocates nothing for delta
// plumbing. The interning caches are shared with clones: the consistency
// monitor re-drives a rolled-back operator through events it already saw,
// so the second and subsequent derivations of the same match reuse the
// first one outright, and below them the payload table (payload.go) gives
// every match of one payload content the same entry: one immutable map, its
// resolved correlation key and its id. A full table starts new chunks and
// never rewrites an entry a match points at. References are
// never compared — a re-derivation after a cache reset is an equal but
// distinct match — identity is (ID, V.Start).
// Clones of one operator are only ever driven sequentially (the Op
// contract), which is what makes the sharing sound; parallel shards build
// fresh operators via plan.Fresh and never share caches.
//
// Forgetting: state leaves by scope pruning in O(expired). Every store that
// expires — the Op's event stores, its emitted table, each leaf's live set
// — has an expiry queue beside it (expiry.go), and a prune pops the queue's
// head while it lies below the horizon; nothing is scanned to find what
// expired.
package inc

import (
	"maps"
	"slices"
	"sort"

	"repro/internal/algebra"
	"repro/internal/event"
	"repro/internal/temporal"
)

// item is one match transition: the interned match (with the correlation
// key the node that built it resolved, key.go — always wild in an unkeyed
// tree) and its direction.
type item struct {
	km  *keyedMatch
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

func (d *delta) add(km *keyedMatch) { d.items = append(d.items, item{km: km}) }
func (d *delta) del(km *keyedMatch) { d.items = append(d.items, item{km: km, del: true}) }
func (d *delta) reset()             { d.items = d.items[:0] }

// shared is tree-global state owned by the driving Op: the occurrence times
// of the available (live, unconsumed) primitive events (UNLESS' nodes
// resolve their anchor contributor through it at candidate-creation time),
// the correlation-key pushdown configuration (nil = unkeyed; see key.go),
// the event-record cache (shared with clones, expiry.go), the payload table
// (shared with clones, payload.go) and the operator's undo journal
// (journal.go), which every node copies at build/clone time so its mutations
// can be journaled without an indirection through sh on the hot path. u is
// always non-nil; it records nothing until the first Mark turns it on. n
// counts the composite lookups; clones and resets keep the one set.
type shared struct {
	vs   map[event.ID]temporal.Time
	key  *keyCfg
	recs *recCache
	pay  *payloadTable
	u    *undoLog
	n    *lookups
}

// lookups counts combCache.combined calls: built on a miss, hits otherwise.
type lookups struct{ built, hits uint64 }

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
//
// up marks where matches get re-headed (UNLESS and UNLESS' positive sides,
// ATMOST kids, through FILTER, NOT and CANCEL-WHEN) so that a join there
// reserves the re-headed form's slot in its composites; joins clear it.
type buildCtx struct {
	pos    bool
	frozen bool
	up     bool
}

// joinKeyed reports whether a join node at this position may index its
// stores by the pushdown key.
func (c buildCtx) joinKeyed(sh *shared) bool {
	return sh.key != nil && c.pos && !c.frozen
}

// route is the key a node files a match under: the match's own key where
// the node indexes by key, wild (one flat list) where it may not.
func route(keyed bool, k event.Key) event.Key {
	if keyed {
		return k
	}
	return event.Key{}
}

// node is one stateful matcher in the tree.
type node interface {
	// push feeds one primitive event (insert), as its record; the node
	// dispatches it to its children and folds their deltas into its own
	// state, appending its own transitions to out.
	push(r *evRec, out *delta)
	// remove feeds a full removal of a primitive event by ID.
	remove(id event.ID, out *delta)
	// prune drops state derived from events with Vs < horizon, exactly as
	// the oracle's store pruning does: silently below the driver (the
	// appended transitions let parents stay consistent and let negation
	// nodes surface revivals, but never turn into output retractions).
	// Transitions come out in (Vs, insertion) order — the leaves' expiry
	// queues — so one input journals identically on every run.
	prune(horizon temporal.Time, out *delta)
	// clone deep-copies the node, rebinding it to sh. Interning caches
	// are shared with the clone (clones run sequentially).
	clone(sh *shared) node
}

// internCap bounds every interning cache in the tree; pathological streams
// reset a full cache rather than growing it without bound (the same policy
// as the aggregate operator's payload cache). Checkpoints empty the
// composite caches long before (Op.Compact).
const internCap = 4096

// keyedMatch is a derived match and its payload's entry in the tree's
// payload table (payload.go), which holds the correlation key the table
// resolved once per content (key.go) and the payload's id. Allocated once,
// immutable once interned, and held by reference everywhere.
type keyedMatch struct {
	m  algebra.Match
	pe *payloadEntry // m.Payload's entry: its key and id
	// up memoizes the re-headed form (same payload, lineage and entry; new
	// ID, validity and finalization) that the one node above — an UNLESS
	// or an ATMOST — derives from this match, so a replay derives it once.
	// A match flows to exactly one parent, so one slot suffices; a composite
	// may reserve it, empty, in its own allocation (reheaded).
	up *keyedMatch
}

// reheaded reports whether k.up holds k's re-headed form.
func (k *keyedMatch) reheaded() bool { return k.up != nil && k.up.m.CBT != nil }

// rehead derives k's re-headed form into k.up, allocating the slot if none.
func (k *keyedMatch) rehead(id event.ID, v temporal.Interval, finalizeAt temporal.Time) {
	if k.up == nil {
		k.up = new(keyedMatch)
	}
	*k.up = keyedMatch{m: k.m, pe: k.pe}
	k.up.m.ID, k.up.m.V, k.up.m.FinalizeAt = id, v, finalizeAt
}

// expiry orders the leaves' and the emitted table's expiry queues: the last
// contributor's occurrence (a leaf match's own Vs).
func (k *keyedMatch) expiry() temporal.Time { return k.m.LastVs }

// combCache interns a join node's combined composites by output ID, shared
// between an operator and its clones. The monitor's replay re-derives
// exactly the matches the operator already derived, so the second
// derivation reuses the first's match outright. cfg is the tree's pushdown
// configuration (nil = unkeyed), pay its payload table; up: the node's
// composites get re-headed above it (buildCtx).
type combCache struct {
	cfg   *keyCfg
	pay   *payloadTable
	n     *lookups
	up    bool
	m     map[event.ID]*keyedMatch
	parts []*algebra.Match // combined's CombineInto argument scratch
}

// The map is made on first use, never pre-sized: between two checkpoints,
// each of which empties it (Op.Compact, through the record cache's list), a
// template chain's node interns a handful of composites.
func newCombCache(sh *shared, up bool) *combCache {
	c := &combCache{cfg: sh.key, pay: sh.pay, n: sh.n, up: up}
	sh.recs.combs = append(sh.recs.combs, c)
	return c
}

// combined returns the interned composite of parts (ID id), building it
// through algebra.CombineInto on first derivation: one allocation holds the
// match, its key, (up to four contributors) its lineage and, under c.up,
// the empty slot its re-headed form will be derived into, around the
// payload and key the payload table hands out for those parts.
func (c *combCache) combined(id event.ID, parts []*keyedMatch, w temporal.Duration) *keyedMatch {
	if km := c.m[id]; km != nil {
		c.n.hits++
		return km
	}
	c.n.built++
	c.parts = c.parts[:0]
	for _, p := range parts {
		c.parts = append(c.parts, &p.m)
	}
	var km *keyedMatch
	var cbt []event.ID
	if c.up {
		cm := &struct {
			keyedMatch
			cbt  [4]event.ID
			head keyedMatch
		}{}
		km, cbt, cm.up = &cm.keyedMatch, cm.cbt[:0], &cm.head
	} else {
		cm := &struct {
			keyedMatch
			cbt [4]event.ID
		}{}
		km, cbt = &cm.keyedMatch, cm.cbt[:0]
	}
	km.pe = c.pay.composite(parts, c.parts, c.cfg)
	algebra.CombineInto(&km.m, id, cbt, c.parts, w, km.pe.p)
	if c.m == nil {
		c.m = map[event.ID]*keyedMatch{}
	} else if len(c.m) >= internCap {
		clear(c.m)
	}
	c.m[id] = km
	return km
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
		return newAtMostNode(e, sh, buildCtx{pos: ctx.pos, frozen: true, up: true})
	case algebra.UnlessExpr:
		pos, neg := buildCtx{pos: ctx.pos, frozen: ctx.frozen, up: true}, buildCtx{frozen: ctx.frozen}
		return newNegNode(negUnless, build(e.A, sh, pos), build(e.B, sh, neg), e.W, 0, e.Corr, e.CorrKey, sh)
	case algebra.UnlessPrimeExpr:
		pos, neg := buildCtx{pos: ctx.pos, frozen: ctx.frozen, up: true}, buildCtx{frozen: ctx.frozen}
		return newNegNode(negUnlessPrime, build(e.A, sh, pos), build(e.B, sh, neg), e.W, e.N, e.Corr, e.CorrKey, sh)
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
	ms []*keyedMatch
}

func matchBefore(a, b *algebra.Match) bool {
	if a.V.Start != b.V.Start {
		return a.V.Start < b.V.Start
	}
	return a.ID < b.ID
}

// slot is the first index not before m.
func (l *matchList) slot(m *algebra.Match) int {
	return sort.Search(len(l.ms), func(i int) bool { return !matchBefore(&l.ms[i].m, m) })
}

func (l *matchList) insert(km *keyedMatch) {
	l.ms = slices.Insert(l.ms, l.slot(&km.m), km)
}

// removeMatch deletes the entry equal to m (by ID at m's occurrence time).
func (l *matchList) removeMatch(m *algebra.Match) bool {
	i := l.slot(m)
	if i < len(l.ms) && l.ms[i].m.ID == m.ID && l.ms[i].m.V.Start == m.V.Start {
		l.ms = slices.Delete(l.ms, i, i+1)
		return true
	}
	return false
}

// lowerBound is the first index with V.Start >= t.
func (l *matchList) lowerBound(t temporal.Time) int {
	return sort.Search(len(l.ms), func(i int) bool { return l.ms[i].m.V.Start >= t })
}

// upperBound is the first index with V.Start > t.
func (l *matchList) upperBound(t temporal.Time) int {
	return sort.Search(len(l.ms), func(i int) bool { return l.ms[i].m.V.Start > t })
}

func (l *matchList) clone() matchList {
	return matchList{ms: slices.Clone(l.ms)}
}

// leafKind is what a leaf and its clones share: which events the leaf
// matches and how it namespaces them. The record cache derives a leaf's
// matches through it when it builds an event's record; its address is the
// leaf's identity there, and in the payload table.
type leafKind struct {
	typ    string
	prefix string
	cfg    *keyCfg
	pay    *payloadTable
	salt   uint64 // tells apart the table hashes of leaves matching equal payloads
	// names interns the namespaced attribute names ("<prefix>.<attribute>"):
	// a stream has a handful of attribute names, so the concatenation is
	// paid once per name, not once per attribute per event.
	names map[string]string
}

// namespace builds the leaf's payload of an event carrying raw.
func (k *leafKind) namespace(raw event.Payload) event.Payload {
	p := make(event.Payload, len(raw))
	for attr, v := range raw {
		name, ok := k.names[attr]
		if !ok {
			if k.names == nil || len(k.names) >= internCap {
				k.names = map[string]string{}
			}
			name = k.prefix + "." + attr
			k.names[attr] = name
		}
		p[name] = v
	}
	return p
}

// holds reports whether p, a payload this leaf namespaced, is raw's.
func (k *leafKind) holds(p, raw event.Payload) bool {
	for name, v := range p {
		if w, ok := raw[name[len(k.prefix)+1:]]; !ok || !identical(w, v) {
			return false
		}
	}
	return len(p) == len(raw)
}

// derive builds the leaf match of event e into km, over lineage cbt.
func (k *leafKind) derive(km *keyedMatch, e *event.Event, cbt []event.ID) {
	km.pe = k.pay.leaf(k, e.Payload)
	km.m = algebra.Match{
		ID:         event.Pair(e.ID),
		V:          e.V,
		RT:         e.V.Start,
		FinalizeAt: e.V.Start,
		FirstVs:    e.V.Start,
		LastVs:     e.V.Start,
		CBT:        cbt,
		Payload:    km.pe.p,
	}
}

// leafNode matches all primitive events of one type (algebra.TypeExpr).
type leafNode struct {
	kind   *leafKind
	live   map[event.ID]*keyedMatch // keyed by primitive event ID
	expiry expiryQueue[*keyedMatch] // live, in occurrence order
	u      *undoLog
}

func newLeaf(t algebra.TypeExpr, sh *shared) *leafNode {
	k := &leafKind{typ: t.Type, prefix: t.Prefix(), cfg: sh.key, pay: sh.pay,
		salt: uint64(len(sh.recs.kinds)+1) * 0x9e3779b97f4a7c15}
	sh.recs.kinds = append(sh.recs.kinds, k)
	return &leafNode{kind: k, live: map[event.ID]*keyedMatch{}, u: sh.u}
}

func (l *leafNode) push(r *evRec, out *delta) {
	km := r.matchBy(l.kind)
	if km == nil {
		return
	}
	l.u.matchMap(l.live, r.id())
	l.live[r.id()] = km
	l.expiry.push(km, l.u)
	out.add(km)
}

func (l *leafNode) remove(id event.ID, out *delta) {
	if km, ok := l.live[id]; ok {
		l.u.matchMapKnown(l.live, id, km)
		delete(l.live, id)
		out.del(km)
	}
}

func (l *leafNode) prune(horizon temporal.Time, out *delta) {
	for _, km := range l.expiry.expire(horizon, l.u) {
		// Stale unless still live as this very match: a removed event's
		// entry stays queued, and a re-pushed one has a later entry too.
		id := km.m.CBT[0]
		if cur, ok := l.live[id]; ok && cur.m.V.Start == km.m.V.Start {
			l.u.matchMapKnown(l.live, id, cur)
			delete(l.live, id)
			out.del(cur)
		}
	}
}

func (l *leafNode) clone(sh *shared) node {
	return &leafNode{kind: l.kind, live: maps.Clone(l.live), expiry: l.expiry.clone(), u: sh.u}
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
		if f.pred(it.km.m.Payload) {
			out.items = append(out.items, it)
		}
	}
}

func (f *filterNode) push(r *evRec, out *delta) {
	f.kd.reset()
	f.kid.push(r, &f.kd)
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
