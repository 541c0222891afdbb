package inc

import (
	"maps"
	"slices"
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

// negCand is a positive-side match a waiting on its blockers, which occur
// strictly inside (lo, hi). The node's kind derives hi and the output from a
// and lo (negNode.hi, negNode.out).
type negCand struct {
	a        *keyedMatch
	lo       temporal.Time
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
	// wild list; loOf locates one by its match ID. A key's list that
	// empties goes to spare for the next new key, as keyedList's buckets do.
	kcands map[event.Key][]negCand
	wcands []negCand
	loOf   map[event.ID]temporal.Time
	spare  [][]negCand

	negs    keyedList         // the negative-side store
	maxSpan temporal.Duration // widest hi-lo seen; bounds range scans
	kd      delta             // reusable child-transition scratch
}

func newNegNode(kind negKind, pos, neg node, w temporal.Duration, nIdx int,
	corr algebra.CorrPred, corrKey string, sh *shared) *negNode {
	keyed := sh.key != nil && corrKey == sh.key.attr
	return &negNode{
		kind: kind, pos: pos, neg: neg, w: w, nIdx: nIdx, corr: corr, sh: sh,
		keyed: keyed,
		loOf:  map[event.ID]temporal.Time{},
		negs:  keyedList{keyed: keyed},
	}
}

// The pos-then-neg order below matches the old both-subtrees-first
// evaluation: applyPos counts blockers against the negative store as it
// stood before this call's negative-side transitions, which applyNeg then
// folds in (flipping the just-added candidates too when they overlap).

func (u *negNode) push(r *evRec, out *delta) {
	u.kd.reset()
	u.pos.push(r, &u.kd)
	u.applyPos(out)
	u.kd.reset()
	u.neg.push(r, &u.kd)
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

// interval derives the blocking interval of a positive match; ok is false
// when the match can never produce output (UNLESS' arity mismatch or a
// missing anchor). UNLESS and UNLESS' re-head the match, once
// (keyedMatch.up: the anchor of an UNLESS' is a contributor's occurrence
// time, fixed with the match); NOT and CANCEL-WHEN pass it through.
func (u *negNode) interval(a *keyedMatch) (lo, hi temporal.Time, ok bool) {
	m := &a.m
	switch u.kind {
	case negUnless:
		lo, hi = m.V.Start, m.V.Start.Add(u.w)
		if !a.reheaded() {
			a.rehead(event.Pair(m.ID), temporal.NewInterval(lo, hi), temporal.Max(hi, m.FinalizeAt))
		}
	case negUnlessPrime:
		if u.nIdx > len(m.CBT) {
			return lo, hi, false
		}
		anchor, found := u.sh.vs[m.CBT[u.nIdx-1]]
		if !found {
			return lo, hi, false
		}
		lo, hi = anchor, anchor.Add(u.w)
		if !a.reheaded() {
			vs := temporal.Max(m.V.Start, hi)
			ve := m.FirstVs.Add(u.w)
			if ve <= vs {
				ve = vs.Add(1)
			}
			a.rehead(event.Pair(m.ID, event.ID(u.nIdx)), temporal.NewInterval(vs, ve), temporal.Max(hi, m.FinalizeAt))
		}
	case negNot:
		lo, hi = m.FirstVs, m.LastVs
	case negCancelWhen:
		lo, hi = m.RT, m.V.Start
	}
	return lo, hi, true
}

// hi is the end of c's blocking interval, as interval derived it.
func (u *negNode) hi(c *negCand) temporal.Time {
	switch u.kind {
	case negNot:
		return c.a.m.LastVs
	case negCancelWhen:
		return c.a.m.V.Start
	default:
		return c.lo.Add(u.w)
	}
}

// out is the output of positive match a: its re-headed form under UNLESS and
// UNLESS', a itself under NOT and CANCEL-WHEN.
func (u *negNode) out(a *keyedMatch) *keyedMatch {
	if u.kind == negUnless || u.kind == negUnlessPrime {
		return a.up
	}
	return a
}

func candBefore(lo temporal.Time, id event.ID, c *negCand) bool {
	if c.lo != lo {
		return c.lo < lo
	}
	return c.a.m.ID < id
}

// candInsert inserts c into a (lo, a.ID)-sorted candidate list.
func candInsert(cs []negCand, c negCand) []negCand {
	i := sort.Search(len(cs), func(i int) bool { return !candBefore(c.lo, c.a.m.ID, &cs[i]) })
	return slices.Insert(cs, i, c)
}

// candFind locates the candidate for match ID id at interval start lo.
// (lo, a.ID) is a total order, so the binary search lands on the exact
// slot when the candidate exists.
func candFind(cs []negCand, lo temporal.Time, id event.ID) int {
	i := sort.Search(len(cs), func(i int) bool { return !candBefore(lo, id, &cs[i]) })
	if i < len(cs) && cs[i].lo == lo && cs[i].a.m.ID == id {
		return i
	}
	return -1
}

// candAdd stores c in the list its key routes to.
func (u *negNode) candAdd(c negCand) {
	if k := route(u.keyed, c.a.pe.key); k.Def() {
		if u.kcands == nil {
			u.kcands = map[event.Key][]negCand{}
		}
		cs := u.kcands[k]
		if n := len(u.spare); cs == nil && n > 0 {
			cs, u.spare = u.spare[n-1], u.spare[:n-1]
		}
		u.kcands[k] = candInsert(cs, c)
	} else {
		u.wcands = candInsert(u.wcands, c)
	}
}

// candRemove deletes and returns the candidate at (lo, id) from the list
// (routing) key k names.
func (u *negNode) candRemove(lo temporal.Time, id event.ID, k event.Key) (c negCand, ok bool) {
	cs := u.wcands
	if k.Def() {
		cs = u.kcands[k]
	}
	i := candFind(cs, lo, id)
	if i < 0 {
		return c, false
	}
	c = cs[i]
	cs = slices.Delete(cs, i, i+1)
	switch {
	case !k.Def():
		u.wcands = cs
	case len(cs) == 0:
		delete(u.kcands, k)
		u.spare = append(u.spare, cs)
	default:
		u.kcands[k] = cs
	}
	return c, true
}

func (u *negNode) applyPos(out *delta) {
	for _, it := range u.kd.items {
		a := it.km
		k := route(u.keyed, a.pe.key)
		if it.del {
			lo, ok := u.loOf[a.m.ID]
			if !ok {
				continue
			}
			u.sh.u.timeMap(u.loOf, a.m.ID)
			delete(u.loOf, a.m.ID)
			if c, found := u.candRemove(lo, a.m.ID, k); found {
				u.sh.u.candDel(u, &c)
				if c.blockers == 0 {
					out.del(u.out(a))
				}
			}
			continue
		}
		lo, hi, ok := u.interval(a)
		if !ok {
			continue
		}
		c := negCand{a: a, lo: lo}
		if span := hi.Sub(lo); span > u.maxSpan {
			u.maxSpan = span
		}
		// Count live blockers strictly inside (lo, hi) — for a definite
		// candidate only its own key's blockers (plus wild ones) can have
		// corr true, so only those lists are scanned.
		u.negs.scan(k, func(ms *matchList) {
			for i := ms.upperBound(c.lo); i < len(ms.ms) && ms.ms[i].m.V.Start < hi; i++ {
				if u.corr == nil || u.corr(a.m.Payload, ms.ms[i].m.Payload) {
					c.blockers++
				}
			}
		})
		u.candAdd(c)
		u.sh.u.candAdd(u, &c)
		u.sh.u.timeMap(u.loOf, a.m.ID)
		u.loOf[a.m.ID] = c.lo
		if c.blockers == 0 {
			out.add(u.out(a))
		}
	}
}

func (u *negNode) applyNeg(out *delta) {
	for _, it := range u.kd.items {
		if it.del {
			if !u.negs.remove(it.km) {
				continue
			}
			u.sh.u.listDel(&u.negs, it.km)
			u.eachAffected(it.km, func(c *negCand) {
				u.sh.u.block(u, c, false)
				c.blockers--
				if c.blockers == 0 {
					out.add(u.out(c.a))
				}
			})
			continue
		}
		u.negs.insert(it.km)
		u.sh.u.listIns(&u.negs, it.km)
		u.eachAffected(it.km, func(c *negCand) {
			u.sh.u.block(u, c, true)
			c.blockers++
			if c.blockers == 1 {
				out.del(u.out(c.a))
			}
		})
	}
}

// eachAffected visits every candidate whose interval strictly contains the
// negative match's occurrence and whose correlation predicate matches it.
// A definite negative match visits its own key's candidates plus the wild
// ones; a wild one visits everything, exactly as unkeyed. Candidate slices
// reallocate, so the *negCand must not outlive the visit (the journal
// re-locates a candidate by its positive match and lo).
func (u *negNode) eachAffected(neg *keyedMatch, fn func(c *negCand)) {
	t := neg.m.V.Start
	visit := func(cs []negCand) {
		// Any candidate with lo <= t - maxSpan has hi <= lo + maxSpan <= t.
		from := sort.Search(len(cs), func(i int) bool { return cs[i].lo > t.Add(-u.maxSpan) })
		for i := from; i < len(cs) && cs[i].lo < t; i++ {
			c := &cs[i]
			if t >= u.hi(c) {
				continue
			}
			if u.corr == nil || u.corr(c.a.m.Payload, neg.m.Payload) {
				fn(c)
			}
		}
	}
	if k := route(u.keyed, neg.pe.key); k.Def() {
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
		wcands:  slices.Clone(u.wcands),
		loOf:    maps.Clone(u.loOf),
		negs:    u.negs.clone(),
		maxSpan: u.maxSpan,
	}
	if len(u.kcands) > 0 {
		c.kcands = make(map[event.Key][]negCand, len(u.kcands))
		for k, cs := range u.kcands {
			c.kcands[k] = slices.Clone(cs)
		}
	}
	return c
}
