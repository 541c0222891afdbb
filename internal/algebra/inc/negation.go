package inc

import (
	"sort"

	"repro/internal/algebra"
	"repro/internal/event"
	"repro/internal/temporal"
)

// negKind selects which negation operator a negNode implements. All four
// share one shape: a store of positive-side candidates, each carrying a
// blocking interval (lo, hi), and an indexed store of negative-side
// matches; a candidate's output is live iff no (correlated) negative match
// occurs strictly inside its interval. Candidates flip as blockers arrive
// and leave — including leaving by scope pruning, which is how blocked
// instances the oracle would re-derive after its store shrinks surface
// here as revival deltas.
type negKind uint8

const (
	// negUnless: UNLESS(A, B, w) — interval (a.Vs, a.Vs+w).
	negUnless negKind = iota
	// negUnlessPrime: UNLESS(A, B, n, w) — interval (anchor, anchor+w)
	// where anchor is the occurrence of A's n-th contributor.
	negUnlessPrime
	// negNot: NOT(E, SEQUENCE(...)) — interval (s.FirstVs, s.LastVs).
	negNot
	// negCancelWhen: CANCEL-WHEN(E1, E2) — interval (m.RT, m.Vs).
	negCancelWhen
)

type negCand struct {
	a        algebra.Match // the positive-side match
	out      algebra.Match // the transformed output
	key      corrKey       // a's correlation key — and out's: same payload
	lo, hi   temporal.Time // blockers occur strictly inside (lo, hi)
	blockers int
}

// negNode implements the four negation operators. When the site's
// correlation predicate provably implies equality on the pushdown
// attribute (the expression's CorrKey annotation matches the tree's key;
// keyed), both stores are key-indexed: a definite-key blocker visits
// only its own key's candidates plus the wild ones, and vice versa — a
// pure index, since corr is false on every skipped pair, so every
// candidate's blocker count is exactly what the flat scan would produce.
// An unkeyed site files everything wild: one flat list per store.
type negNode struct {
	kind  negKind
	pos   node
	neg   node
	w     temporal.Duration
	nIdx  int // UNLESS' 1-based anchor contributor index
	corr  algebra.CorrPred
	keyed bool
	sh    *shared

	// Candidates sorted by (lo, a.ID), one list per definite key plus the
	// wild list; loOf locates one by its match ID.
	kcands map[corrKey][]negCand
	wcands []negCand
	loOf   map[event.ID]temporal.Time

	negs    keyedList         // the negative-side store
	maxSpan temporal.Duration // widest hi-lo seen; bounds range scans
	kd      delta             // reusable child-transition scratch
}

func newNegNode(kind negKind, pos, neg node, w temporal.Duration, nIdx int,
	corr algebra.CorrPred, corrKey string, sh *shared) *negNode {
	return &negNode{
		kind: kind, pos: pos, neg: neg, w: w, nIdx: nIdx, corr: corr, sh: sh,
		keyed: sh.key != nil && corrKey == sh.key.attr,
		loOf:  map[event.ID]temporal.Time{},
	}
}

// The pos-then-neg order below matches the old both-subtrees-first
// evaluation: applyPos counts blockers against the negative store as it
// stood before this call's negative-side transitions, which applyNeg then
// folds in (flipping the just-added candidates too when they overlap).

func (u *negNode) push(e event.Event, out *delta) {
	u.kd.reset()
	u.pos.push(e, &u.kd)
	u.applyPos(out)
	u.kd.reset()
	u.neg.push(e, &u.kd)
	u.applyNeg(out)
}

func (u *negNode) remove(id event.ID, out *delta) {
	u.kd.reset()
	u.pos.remove(id, &u.kd)
	u.applyPos(out)
	u.kd.reset()
	u.neg.remove(id, &u.kd)
	u.applyNeg(out)
}

func (u *negNode) prune(horizon temporal.Time, out *delta) {
	u.kd.reset()
	u.pos.prune(horizon, &u.kd)
	u.applyPos(out)
	u.kd.reset()
	u.neg.prune(horizon, &u.kd)
	u.applyNeg(out)
}

// interval derives the blocking interval and output for a positive match;
// ok is false when the match can never produce output (UNLESS' arity
// mismatch or a missing anchor).
func (u *negNode) interval(a algebra.Match) (c negCand, ok bool) {
	c.a = a
	switch u.kind {
	case negUnless:
		c.lo, c.hi = a.V.Start, a.V.Start.Add(u.w)
		m := a
		m.ID = event.Pair(a.ID)
		m.V = temporal.NewInterval(a.V.Start, a.V.Start.Add(u.w))
		fin := a.V.Start.Add(u.w)
		if a.FinalizeAt > fin {
			fin = a.FinalizeAt
		}
		m.FinalizeAt = fin
		c.out = m
	case negUnlessPrime:
		if u.nIdx > len(a.CBT) {
			return c, false
		}
		anchor, found := u.sh.vs[a.CBT[u.nIdx-1]]
		if !found {
			return c, false
		}
		scopeEnd := anchor.Add(u.w)
		c.lo, c.hi = anchor, scopeEnd
		m := a
		m.ID = event.Pair(a.ID, event.ID(u.nIdx))
		vs := temporal.Max(a.V.Start, scopeEnd)
		ve := a.FirstVs.Add(u.w)
		if ve <= vs {
			ve = vs.Add(1)
		}
		m.V = temporal.NewInterval(vs, ve)
		fin := scopeEnd
		if a.FinalizeAt > fin {
			fin = a.FinalizeAt
		}
		m.FinalizeAt = fin
		c.out = m
	case negNot:
		c.lo, c.hi = a.FirstVs, a.LastVs
		c.out = a
	case negCancelWhen:
		c.lo, c.hi = a.RT, a.V.Start
		c.out = a
	}
	return c, true
}

func candBefore(lo temporal.Time, id event.ID, c *negCand) bool {
	if c.lo != lo {
		return c.lo < lo
	}
	return c.a.ID < id
}

// candInsert inserts c into a (lo, a.ID)-sorted candidate list.
func candInsert(cs []negCand, c negCand) []negCand {
	i := sort.Search(len(cs), func(i int) bool { return !candBefore(c.lo, c.a.ID, &cs[i]) })
	cs = append(cs, negCand{})
	copy(cs[i+1:], cs[i:])
	cs[i] = c
	return cs
}

// candFind locates the candidate for match ID id at interval start lo.
// (lo, a.ID) is a total order, so the binary search lands on the exact
// slot when the candidate exists.
func candFind(cs []negCand, lo temporal.Time, id event.ID) int {
	i := sort.Search(len(cs), func(i int) bool { return !candBefore(lo, id, &cs[i]) })
	if i < len(cs) && cs[i].lo == lo && cs[i].a.ID == id {
		return i
	}
	return -1
}

// candAdd stores c in the list its key routes to.
func (u *negNode) candAdd(c negCand) {
	if k := route(u.keyed, c.key); k.def() {
		if u.kcands == nil {
			u.kcands = map[corrKey][]negCand{}
		}
		u.kcands[k] = candInsert(u.kcands[k], c)
	} else {
		u.wcands = candInsert(u.wcands, c)
	}
}

// candRemove deletes and returns the candidate at (lo, id) from the list
// (routing) key k names.
func (u *negNode) candRemove(lo temporal.Time, id event.ID, k corrKey) (c negCand, ok bool) {
	cs := u.wcands
	if k.def() {
		cs = u.kcands[k]
	}
	i := candFind(cs, lo, id)
	if i < 0 {
		return c, false
	}
	c = cs[i]
	cs = append(cs[:i], cs[i+1:]...)
	switch {
	case !k.def():
		u.wcands = cs
	case len(cs) == 0:
		delete(u.kcands, k)
	default:
		u.kcands[k] = cs
	}
	return c, true
}

func (u *negNode) applyPos(out *delta) {
	for j := range u.kd.items {
		it := &u.kd.items[j]
		k := route(u.keyed, it.key)
		if it.del {
			lo, ok := u.loOf[it.m.ID]
			if !ok {
				continue
			}
			u.sh.u.timeMap(u.loOf, it.m.ID)
			delete(u.loOf, it.m.ID)
			if c, found := u.candRemove(lo, it.m.ID, k); found {
				u.sh.u.candDel(u, &c)
				if c.blockers == 0 {
					out.del(c.out, c.key)
				}
			}
			continue
		}
		c, ok := u.interval(it.m)
		if !ok {
			continue
		}
		c.key = it.key
		if span := c.hi.Sub(c.lo); span > u.maxSpan {
			u.maxSpan = span
		}
		// Count live blockers strictly inside (lo, hi) — for a definite
		// candidate only its own key's blockers (plus wild ones) can have
		// corr true, so only those lists are scanned.
		u.negs.scan(k, func(ms *matchList) {
			for i := ms.upperBound(c.lo); i < len(ms.ms) && ms.ms[i].V.Start < c.hi; i++ {
				if u.corr == nil || u.corr(c.a.Payload, ms.ms[i].Payload) {
					c.blockers++
				}
			}
		})
		u.candAdd(c)
		u.sh.u.candAdd(u, c.lo, c.a.ID, k)
		u.sh.u.timeMap(u.loOf, c.a.ID)
		u.loOf[c.a.ID] = c.lo
		if c.blockers == 0 {
			out.add(c.out, c.key)
		}
	}
}

func (u *negNode) applyNeg(out *delta) {
	for j := range u.kd.items {
		it := &u.kd.items[j]
		k := route(u.keyed, it.key)
		if it.del {
			if !u.negs.remove(it.m, k) {
				continue
			}
			u.sh.u.listDel(&u.negs, &it.m, k)
			u.eachAffected(&it.m, k, func(c *negCand) {
				u.sh.u.block(u, c, false)
				c.blockers--
				if c.blockers == 0 {
					out.add(c.out, c.key)
				}
			})
			continue
		}
		u.negs.insert(it.m, k)
		u.sh.u.listIns(&u.negs, &it.m, k)
		u.eachAffected(&it.m, k, func(c *negCand) {
			u.sh.u.block(u, c, true)
			c.blockers++
			if c.blockers == 1 {
				out.del(c.out, c.key)
			}
		})
	}
}

// eachAffected visits every candidate whose interval strictly contains the
// negative match's occurrence and whose correlation predicate matches it.
// A definite negative match (routing key k) visits its own key's candidates
// plus the wild ones; a wild one visits everything, exactly as unkeyed.
// Candidate slices reallocate, so the *negCand must not outlive the visit
// (the journal re-locates a candidate by its routing key, lo and ID).
func (u *negNode) eachAffected(neg *algebra.Match, k corrKey, fn func(c *negCand)) {
	t := neg.V.Start
	visit := func(cs []negCand) {
		// Any candidate with lo <= t - maxSpan has hi <= lo + maxSpan <= t.
		from := sort.Search(len(cs), func(i int) bool { return cs[i].lo > t.Add(-u.maxSpan) })
		for i := from; i < len(cs) && cs[i].lo < t; i++ {
			c := &cs[i]
			if t >= c.hi {
				continue
			}
			if u.corr == nil || u.corr(c.a.Payload, neg.Payload) {
				fn(c)
			}
		}
	}
	if k.def() {
		visit(u.kcands[k])
	} else {
		for _, cs := range u.kcands {
			visit(cs)
		}
	}
	visit(u.wcands)
}

func (u *negNode) clone(sh *shared) node {
	c := &negNode{
		kind: u.kind, pos: u.pos.clone(sh), neg: u.neg.clone(sh),
		w: u.w, nIdx: u.nIdx, corr: u.corr, keyed: u.keyed, sh: sh,
		wcands:  append([]negCand(nil), u.wcands...),
		loOf:    make(map[event.ID]temporal.Time, len(u.loOf)),
		negs:    u.negs.clone(),
		maxSpan: u.maxSpan,
	}
	if len(u.kcands) > 0 {
		c.kcands = make(map[corrKey][]negCand, len(u.kcands))
		for k, cs := range u.kcands {
			c.kcands[k] = append([]negCand(nil), cs...)
		}
	}
	for id, lo := range u.loOf {
		c.loOf[id] = lo
	}
	return c
}
