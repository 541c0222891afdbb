package inc

import (
	"maps"
	"sort"

	"repro/internal/algebra"
	"repro/internal/event"
	"repro/internal/temporal"
)

// atLeastNode matches ATLEAST(n, E1, ..., Ek, w): any n contributors from n
// distinct positions whose occurrence times are pairwise distinct and span
// at most w. Unlike SEQUENCE, position order does not constrain time order,
// so a new match at position i joins subsets of the *other* positions and
// the picks are time-sorted before combining. Duplicate parameter positions
// can derive the same composite from different position subsets, so outputs
// are reference-counted (the denotational evaluator dedupes by ID); a
// retraction re-enumerates as seqNode's does, each derivation found giving
// back its reference.
//
// Under correlation-key pushdown (see key.go and buildCtx) the per-position
// stores are key-indexed exactly like seqNode's: a definite-key match
// joins picks from its own bucket plus the wild list.
type atLeastNode struct {
	n     int
	w     temporal.Duration
	kids  []node
	lists []keyedList // per-position join state, key-indexed where the node may

	outs map[event.ID]*keyedMatch
	refs map[event.ID]int // derivations per live output

	picks  []*keyedMatch // enumeration scratch
	sorted []*keyedMatch // time-sorted commit scratch
	ids    []event.ID    // contributor-ID scratch for the interned lookup
	kd     delta         // reusable child-transition scratch
	comb   *combCache    // interned composites, shared with clones
	u      *undoLog
}

func newAtLeastNode(e algebra.AtLeastExpr, sh *shared, ctx buildCtx) *atLeastNode {
	a := &atLeastNode{
		n:      e.N,
		w:      e.W,
		lists:  make([]keyedList, len(e.Kids)),
		outs:   map[event.ID]*keyedMatch{},
		refs:   map[event.ID]int{},
		picks:  make([]*keyedMatch, 0, e.N),
		sorted: make([]*keyedMatch, e.N),
		ids:    make([]event.ID, e.N),
		comb:   newCombCache(sh, ctx.up),
		u:      sh.u,
	}
	for i, k := range e.Kids {
		a.lists[i].keyed = ctx.joinKeyed(sh)
		a.kids = append(a.kids, build(k, sh, buildCtx{pos: ctx.pos, frozen: ctx.frozen}))
	}
	return a
}

func (a *atLeastNode) push(r *evRec, out *delta) {
	for i, k := range a.kids {
		a.kd.reset()
		k.push(r, &a.kd)
		a.applyKid(i, out)
	}
}

func (a *atLeastNode) remove(id event.ID, out *delta) {
	for i, k := range a.kids {
		a.kd.reset()
		k.remove(id, &a.kd)
		a.applyKid(i, out)
	}
}

func (a *atLeastNode) prune(horizon temporal.Time, out *delta) {
	for i, k := range a.kids {
		a.kd.reset()
		k.prune(horizon, &a.kd)
		a.applyKid(i, out)
	}
}

func (a *atLeastNode) applyKid(i int, out *delta) {
	for _, it := range a.kd.items {
		if !it.del {
			a.enumerate(i, it.km, false, out)
			a.lists[i].insert(it.km)
			a.u.listIns(&a.lists[i], it.km)
		} else if a.lists[i].remove(it.km) {
			a.u.listDel(&a.lists[i], it.km)
			a.enumerate(i, it.km, true, out)
		}
	}
}

// enumerate visits every n-subset of positions containing fix, with one
// stored match per other chosen position, whose times are pairwise
// distinct and within w of each other, taking (del: giving back) one
// reference on its composite. Picks narrow by key as in seqNode.
func (a *atLeastNode) enumerate(fix int, nm *keyedMatch, del bool, out *delta) {
	if a.n < 1 || a.n > len(a.kids) {
		return
	}
	picks := a.picks[:0]
	picks = append(picks, nm)
	minVs, maxVs := nm.m.V.Start, nm.m.V.Start
	var rec func(pos int, min, max temporal.Time, k event.Key)
	commit := func() {
		sorted := append(a.sorted[:0], picks...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].m.V.Start < sorted[j].m.V.Start })
		a.commit(sorted, del, out)
	}
	rec = func(pos int, min, max temporal.Time, k event.Key) {
		if len(picks) == a.n {
			commit()
			return
		}
		// Positions left to fill must fit among the remaining ones.
		for p := pos; p < len(a.kids); p++ {
			if p == fix {
				continue
			}
			if len(a.kids)-p < a.n-len(picks) {
				break
			}
			scan := func(list *matchList) {
				// Every pick must lie within w of every other: restrict to
				// [max - w, min + w].
				lo := list.lowerBound(max.Add(-a.w))
				for idx := lo; idx < len(list.ms); idx++ {
					km := list.ms[idx]
					vs := km.m.V.Start
					if vs.Sub(min) > a.w {
						break
					}
					if a.clashes(picks, vs) {
						continue // strict time order after sorting = pairwise distinct
					}
					nmin, nmax := min, max
					if vs < nmin {
						nmin = vs
					}
					if vs > nmax {
						nmax = vs
					}
					picks = append(picks, km)
					rec(p+1, nmin, nmax, narrow(k, km))
					picks = picks[:len(picks)-1]
				}
			}
			a.lists[p].scan(k, scan)
		}
	}
	rec(0, minVs, maxVs, nm.pe.key)
	a.picks = picks[:0]
}

func (a *atLeastNode) clashes(picks []*keyedMatch, vs temporal.Time) bool {
	for _, p := range picks {
		if p.m.V.Start == vs {
			return true
		}
	}
	return false
}

// commit takes (del: gives back) one reference on the composite of sorted.
func (a *atLeastNode) commit(sorted []*keyedMatch, del bool, out *delta) {
	ids := a.ids[:len(sorted)]
	for i, p := range sorted {
		ids[i] = p.m.ID
	}
	id := event.Pair(ids...)
	n := a.refs[id]
	if del && n == 0 {
		return
	}
	a.u.intMap(a.refs, id)
	switch {
	case !del:
		a.refs[id] = n + 1
		if n == 0 {
			km := a.comb.combined(id, sorted, a.w)
			a.u.matchMap(a.outs, id)
			a.outs[id] = km
			out.add(km)
		}
	case n > 1:
		a.refs[id] = n - 1
	default:
		delete(a.refs, id)
		km := a.outs[id]
		a.u.matchMapKnown(a.outs, id, km)
		delete(a.outs, id)
		out.del(km)
	}
}

func (a *atLeastNode) clone(sh *shared) node {
	c := &atLeastNode{
		n:      a.n,
		w:      a.w,
		lists:  make([]keyedList, len(a.lists)),
		outs:   maps.Clone(a.outs),
		refs:   maps.Clone(a.refs),
		picks:  make([]*keyedMatch, 0, a.n),
		sorted: make([]*keyedMatch, a.n),
		ids:    make([]event.ID, a.n),
		comb:   a.comb,
		u:      sh.u,
	}
	for _, k := range a.kids {
		c.kids = append(c.kids, k.clone(sh))
	}
	for i := range a.lists {
		c.lists[i] = a.lists[i].clone()
	}
	return c
}
