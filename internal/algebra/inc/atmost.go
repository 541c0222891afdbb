package inc

import (
	"maps"
	"slices"
	"sort"

	"repro/internal/algebra"
	"repro/internal/event"
	"repro/internal/temporal"
)

// atMostNode matches ATMOST(n, E1, ..., Ek, w): every contributor match b
// is an anchor, qualifying iff at most n contributors (b included) occur in
// [b.Vs, b.Vs+w). Each arrival or departure at time t only shifts the
// counts of anchors whose window contains t, so transitions are O(affected
// anchors) per delta. Duplicate parameter positions contribute duplicate
// entries (each raising the counts, as the denotational evaluator's
// concatenation does); outputs are reference-counted per anchor ID.
type atMostNode struct {
	n    int
	w    temporal.Duration
	kids []node
	// entries: every live contributor match, sorted by (Vs, ID); cnt is
	// the number of entries in [Vs, Vs+w).
	entries []amEntry
	refs    map[event.ID]int
	kd      delta // reusable child-transition scratch
	u       *undoLog
}

type amEntry struct {
	km  *keyedMatch
	cnt int
}

// newAtMostNode builds the window counter. Its kids arrive with a frozen
// build context (see buildCtx): the counts below are over the kid output
// sets themselves, so key pushdown must not prune them.
func newAtMostNode(e algebra.AtMostExpr, sh *shared, ctx buildCtx) *atMostNode {
	a := &atMostNode{
		n:    e.N,
		w:    e.W,
		refs: map[event.ID]int{},
		u:    sh.u,
	}
	for _, k := range e.Kids {
		a.kids = append(a.kids, build(k, sh, ctx))
	}
	return a
}

func (a *atMostNode) push(r *evRec, out *delta) {
	for _, k := range a.kids {
		a.kd.reset()
		k.push(r, &a.kd)
		a.apply(out)
	}
}

func (a *atMostNode) remove(id event.ID, out *delta) {
	for _, k := range a.kids {
		a.kd.reset()
		k.remove(id, &a.kd)
		a.apply(out)
	}
}

func (a *atMostNode) prune(horizon temporal.Time, out *delta) {
	for _, k := range a.kids {
		a.kd.reset()
		k.prune(horizon, &a.kd)
		a.apply(out)
	}
}

// lowerBound is the first index with Vs >= t.
func (a *atMostNode) lowerBound(t temporal.Time) int {
	return sort.Search(len(a.entries), func(i int) bool { return a.entries[i].km.m.V.Start >= t })
}

func (a *atMostNode) apply(out *delta) {
	for _, it := range a.kd.items {
		m := &it.km.m
		t := m.V.Start
		if it.del {
			// Drop one entry with this identity.
			i := a.lowerBound(t)
			for i < len(a.entries) && !(a.entries[i].km.m.ID == m.ID && a.entries[i].km.m.V.Start == t) {
				i++
			}
			if i == len(a.entries) {
				continue
			}
			gone := a.entries[i]
			a.entries = slices.Delete(a.entries, i, i+1)
			a.u.amDel(a, i, gone)
			if gone.cnt <= a.n {
				a.deref(gone.km, out)
			}
			// Anchors whose window [Vs, Vs+w) contained t lose one.
			for j := a.lowerBound(t.Add(-a.w) + 1); j < len(a.entries) && a.entries[j].km.m.V.Start <= t; j++ {
				a.u.amCnt(a, j, false)
				a.entries[j].cnt--
				if a.entries[j].cnt == a.n {
					a.ref(a.entries[j].km, out)
				}
			}
			continue
		}
		// Insert, computing the new entry's own count over [t, t+w).
		i := sort.Search(len(a.entries), func(i int) bool { return !matchBefore(&a.entries[i].km.m, m) })
		a.entries = slices.Insert(a.entries, i, amEntry{km: it.km}) // place before counting: the array must be sorted
		a.entries[i].cnt = a.lowerBound(t.Add(a.w)) - a.lowerBound(t)
		a.u.amIns(a, i)
		// Existing anchors whose window contains t gain one.
		for j := a.lowerBound(t.Add(-a.w) + 1); j < len(a.entries) && a.entries[j].km.m.V.Start <= t; j++ {
			if j == i {
				continue
			}
			a.u.amCnt(a, j, true)
			a.entries[j].cnt++
			if a.entries[j].cnt == a.n+1 {
				a.deref(a.entries[j].km, out)
			}
		}
		if a.entries[i].cnt <= a.n {
			a.ref(it.km, out)
		}
	}
}

// output derives the anchor's output, per the ATMOST operator row, once per
// anchor match (keyedMatch.up).
func (a *atMostNode) output(b *keyedMatch) *keyedMatch {
	if !b.reheaded() {
		end := b.m.V.Start.Add(a.w)
		b.rehead(event.Pair(b.m.ID), temporal.NewInterval(b.m.V.Start, end), end)
	}
	return b.up
}

func (a *atMostNode) ref(b *keyedMatch, out *delta) {
	o := a.output(b)
	a.u.intMap(a.refs, o.m.ID)
	a.refs[o.m.ID]++
	if a.refs[o.m.ID] == 1 {
		out.add(o)
	}
}

func (a *atMostNode) deref(b *keyedMatch, out *delta) {
	o := a.output(b)
	a.u.intMap(a.refs, o.m.ID)
	a.refs[o.m.ID]--
	if a.refs[o.m.ID] == 0 {
		a.u.intMap(a.refs, o.m.ID)
		delete(a.refs, o.m.ID)
		out.del(o)
	}
}

func (a *atMostNode) clone(sh *shared) node {
	c := &atMostNode{
		n:       a.n,
		w:       a.w,
		entries: slices.Clone(a.entries),
		refs:    maps.Clone(a.refs),
		u:       sh.u,
	}
	for _, k := range a.kids {
		c.kids = append(c.kids, k.clone(sh))
	}
	return c
}
