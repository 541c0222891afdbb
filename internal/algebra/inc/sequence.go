package inc

import (
	"repro/internal/algebra"
	"repro/internal/event"
	"repro/internal/temporal"
)

// seqNode matches SEQUENCE(E1, ..., Ek, w): one sorted match list per
// position, joined incrementally. A new child match at position i is
// combined with every strictly-Vs-increasing pick from the other positions
// within the window — the only combinations a re-derivation would have
// found that the previous state did not already hold.
//
// Under correlation-key pushdown (keyed, see key.go) the per-position
// lists are key-indexed: a new definite-key match combines only with picks
// from its own key's bucket plus the wild list, so the enumeration no
// longer crosses keys the residual EQUAL predicate would drop anyway. An
// unkeyed node files every match wild: one flat list per position.
type seqNode struct {
	kids  []node
	w     temporal.Duration
	keyed bool // this node's lists are indexed by key

	lists []keyedList // per-position join state

	// outs holds the node's live composite matches; uses indexes them by
	// child-match ID so a child retraction cascades in O(dependents).
	// uses entries are cleaned lazily: a dead output ID is skipped (and the
	// whole entry dropped when its child match goes).
	outs map[event.ID]algebra.Match
	uses map[event.ID][]event.ID

	parts []algebra.Match // enumeration scratch, one slot per position
	ids   []event.ID      // contributor-ID scratch for the interned lookup
	kd    delta           // reusable child-transition scratch
	comb  *combCache      // interned composites, shared with clones
	u     *undoLog
}

func newSeqNode(e algebra.SequenceExpr, sh *shared, ctx buildCtx) *seqNode {
	s := &seqNode{
		w:     e.W,
		keyed: ctx.joinKeyed(sh),
		lists: make([]keyedList, len(e.Kids)),
		outs:  map[event.ID]algebra.Match{},
		uses:  map[event.ID][]event.ID{},
		parts: make([]algebra.Match, len(e.Kids)),
		ids:   make([]event.ID, len(e.Kids)),
		comb:  newCombCache(sh.key),
		u:     sh.u,
	}
	for _, k := range e.Kids {
		s.kids = append(s.kids, build(k, sh, ctx))
	}
	return s
}

func (s *seqNode) push(e event.Event, out *delta) {
	for i, k := range s.kids {
		s.kd.reset()
		k.push(e, &s.kd)
		s.applyKid(i, out)
	}
}

func (s *seqNode) remove(id event.ID, out *delta) {
	for i, k := range s.kids {
		s.kd.reset()
		k.remove(id, &s.kd)
		s.applyKid(i, out)
	}
}

func (s *seqNode) prune(horizon temporal.Time, out *delta) {
	for i, k := range s.kids {
		s.kd.reset()
		k.prune(horizon, &s.kd)
		s.applyKid(i, out)
	}
}

// applyKid folds child i's transition batch (in s.kd) into the join state.
func (s *seqNode) applyKid(i int, out *delta) {
	for j := range s.kd.items {
		it := &s.kd.items[j]
		k := route(s.keyed, it.key)
		if it.del {
			if s.lists[i].remove(it.m, k) {
				s.u.listDel(&s.lists[i], &it.m, k)
			}
			for _, oid := range s.uses[it.m.ID] {
				if m, ok := s.outs[oid]; ok {
					s.u.matchMap(s.outs, oid)
					delete(s.outs, oid)
					out.del(m, s.comb.keyOf(oid, &m))
				}
			}
			s.u.usesDel(s.uses, it.m.ID)
			delete(s.uses, it.m.ID)
			continue
		}
		s.enumerate(i, it.m, k, out)
		s.lists[i].insert(it.m, k)
		s.u.listIns(&s.lists[i], &it.m, k)
	}
}

// enumerate emits every combination that includes the new match nm at
// position fix. Positions are filled left to right; each pick must start
// strictly after the previous one and within w of the first. Under
// pushdown, a definite-key nm draws the other positions' picks from its
// key's bucket and the wild list only (a wild nm still scans everything —
// the residual predicates decide, exactly as unkeyed).
func (s *seqNode) enumerate(fix int, nm algebra.Match, key corrKey, out *delta) {
	k := len(s.kids)
	var rec func(depth int, prev, first temporal.Time)
	rec = func(depth int, prev, first temporal.Time) {
		if depth == k {
			s.commit(out)
			return
		}
		try := func(m algebra.Match) bool {
			if depth > 0 {
				if !(prev < m.V.Start) {
					return true // too early; callers decide whether to keep scanning
				}
				if m.V.Start.Sub(first) > s.w {
					return false
				}
			}
			f := first
			if depth == 0 {
				f = m.V.Start
			}
			s.parts[depth] = m
			rec(depth+1, m.V.Start, f)
			return true
		}
		if depth == fix {
			try(nm)
			return
		}
		scan := func(list *matchList) {
			lo := 0
			if depth > 0 {
				lo = list.upperBound(prev)
			}
			for idx := lo; idx < len(list.ms); idx++ {
				if depth < fix && list.ms[idx].V.Start >= nm.V.Start {
					break // positions before fix must start strictly before nm
				}
				if !try(list.ms[idx]) {
					break // sorted: everything later is further outside the window
				}
			}
		}
		s.lists[depth].scan(key, scan)
	}
	rec(0, temporal.MinTime, temporal.MinTime)
}

func (s *seqNode) commit(out *delta) {
	for i := range s.parts {
		s.ids[i] = s.parts[i].ID
	}
	id := event.Pair(s.ids...)
	if _, dup := s.outs[id]; dup {
		return
	}
	km := s.comb.combined(id, s.parts, s.w)
	s.u.matchMap(s.outs, id)
	s.outs[id] = km.m
	for _, p := range s.parts {
		s.u.usesApp(s.uses, p.ID)
		s.uses[p.ID] = append(s.uses[p.ID], id)
	}
	out.add(km.m, km.key)
}

func (s *seqNode) clone(sh *shared) node {
	c := &seqNode{
		w:     s.w,
		keyed: s.keyed,
		lists: make([]keyedList, len(s.lists)),
		outs:  make(map[event.ID]algebra.Match, len(s.outs)),
		uses:  make(map[event.ID][]event.ID, len(s.uses)),
		parts: make([]algebra.Match, len(s.parts)),
		ids:   make([]event.ID, len(s.ids)),
		comb:  s.comb,
		u:     sh.u,
	}
	for _, k := range s.kids {
		c.kids = append(c.kids, k.clone(sh))
	}
	for i := range s.lists {
		c.lists[i] = s.lists[i].clone()
	}
	for id, m := range s.outs {
		c.outs[id] = m
	}
	for id, v := range s.uses {
		c.uses[id] = append([]event.ID(nil), v...)
	}
	return c
}
