package inc

import (
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
// are reference-counted (the denotational evaluator dedupes by ID).
//
// Under correlation-key pushdown (keyed, see key.go) the per-position
// stores are key-indexed exactly like seqNode's: a definite-key match
// joins picks from its own bucket plus the wild list.
type atLeastNode struct {
	n     int
	w     temporal.Duration
	kids  []node
	keyed bool // this node's lists are indexed by key

	lists []keyedList // per-position join state

	outs map[event.ID]algebra.Match
	refs map[event.ID]int
	uses map[event.ID][]event.ID

	picks  []algebra.Match // enumeration scratch
	sorted []algebra.Match // time-sorted commit scratch
	ids    []event.ID      // contributor-ID scratch for the interned lookup
	kd     delta           // reusable child-transition scratch
	comb   *combCache      // interned composites, shared with clones
	u      *undoLog
}

func newAtLeastNode(e algebra.AtLeastExpr, sh *shared, ctx buildCtx) *atLeastNode {
	a := &atLeastNode{
		n:      e.N,
		w:      e.W,
		keyed:  ctx.joinKeyed(sh),
		lists:  make([]keyedList, len(e.Kids)),
		outs:   map[event.ID]algebra.Match{},
		refs:   map[event.ID]int{},
		uses:   map[event.ID][]event.ID{},
		picks:  make([]algebra.Match, 0, e.N),
		sorted: make([]algebra.Match, e.N),
		ids:    make([]event.ID, e.N),
		comb:   newCombCache(sh.key),
		u:      sh.u,
	}
	for _, k := range e.Kids {
		a.kids = append(a.kids, build(k, sh, ctx))
	}
	return a
}

func (a *atLeastNode) push(e event.Event, out *delta) {
	for i, k := range a.kids {
		a.kd.reset()
		k.push(e, &a.kd)
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
	for j := range a.kd.items {
		it := &a.kd.items[j]
		k := route(a.keyed, it.key)
		if it.del {
			if a.lists[i].remove(it.m, k) {
				a.u.listDel(&a.lists[i], &it.m, k)
			}
			for _, oid := range a.uses[it.m.ID] {
				if _, ok := a.outs[oid]; !ok {
					continue
				}
				a.u.intMap(a.refs, oid)
				a.refs[oid]--
				if a.refs[oid] == 0 {
					m := a.outs[oid]
					a.u.matchMap(a.outs, oid)
					delete(a.outs, oid)
					a.u.intMap(a.refs, oid)
					delete(a.refs, oid)
					out.del(m, a.comb.keyOf(oid, &m))
				}
			}
			a.u.usesDel(a.uses, it.m.ID)
			delete(a.uses, it.m.ID)
			continue
		}
		if a.n >= 1 && a.n <= len(a.kids) {
			a.enumerate(i, it.m, k, out)
		}
		a.lists[i].insert(it.m, k)
		a.u.listIns(&a.lists[i], &it.m, k)
	}
}

// enumerate emits every n-subset of positions containing fix, with one
// stored match per other chosen position, whose times are pairwise
// distinct and within w of each other.
func (a *atLeastNode) enumerate(fix int, nm algebra.Match, key corrKey, out *delta) {
	picks := a.picks[:0]
	picks = append(picks, nm)
	minVs, maxVs := nm.V.Start, nm.V.Start
	var rec func(pos int, min, max temporal.Time)
	commit := func() {
		sorted := append(a.sorted[:0], picks...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].V.Start < sorted[j].V.Start })
		a.commit(sorted, out)
	}
	rec = func(pos int, min, max temporal.Time) {
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
					m := list.ms[idx]
					if m.V.Start.Sub(min) > a.w {
						break
					}
					if a.clashes(picks, m.V.Start) {
						continue // strict time order after sorting = pairwise distinct
					}
					nmin, nmax := min, max
					if m.V.Start < nmin {
						nmin = m.V.Start
					}
					if m.V.Start > nmax {
						nmax = m.V.Start
					}
					picks = append(picks, m)
					rec(p+1, nmin, nmax)
					picks = picks[:len(picks)-1]
				}
			}
			a.lists[p].scan(key, scan)
		}
	}
	rec(0, minVs, maxVs)
	a.picks = picks[:0]
}

func (a *atLeastNode) clashes(picks []algebra.Match, vs temporal.Time) bool {
	for _, p := range picks {
		if p.V.Start == vs {
			return true
		}
	}
	return false
}

func (a *atLeastNode) commit(sorted []algebra.Match, out *delta) {
	for i := range sorted {
		a.ids[i] = sorted[i].ID
	}
	id := event.Pair(a.ids[:len(sorted)]...)
	a.u.intMap(a.refs, id)
	a.refs[id]++
	for _, p := range sorted {
		a.u.usesApp(a.uses, p.ID)
		a.uses[p.ID] = append(a.uses[p.ID], id)
	}
	if a.refs[id] == 1 {
		km := a.comb.combined(id, sorted, a.w)
		a.u.matchMap(a.outs, id)
		a.outs[id] = km.m
		out.add(km.m, km.key)
	}
}

func (a *atLeastNode) clone(sh *shared) node {
	c := &atLeastNode{
		n:      a.n,
		w:      a.w,
		keyed:  a.keyed,
		lists:  make([]keyedList, len(a.lists)),
		outs:   make(map[event.ID]algebra.Match, len(a.outs)),
		refs:   make(map[event.ID]int, len(a.refs)),
		uses:   make(map[event.ID][]event.ID, len(a.uses)),
		picks:  make([]algebra.Match, 0, a.n),
		sorted: make([]algebra.Match, a.n),
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
	for id, m := range a.outs {
		c.outs[id] = m
	}
	for id, r := range a.refs {
		c.refs[id] = r
	}
	for id, v := range a.uses {
		c.uses[id] = append([]event.ID(nil), v...)
	}
	return c
}
