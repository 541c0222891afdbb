package inc

import (
	"maps"
	"slices"

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
// Under correlation-key pushdown (see key.go and buildCtx) the per-position
// lists are key-indexed: a new definite-key match combines only with picks
// from its own key's bucket plus the wild list, so the enumeration no
// longer crosses keys the residual EQUAL predicate would drop anyway. An
// unkeyed node files every match wild: one flat list per position.
type seqNode struct {
	kids []node
	w    temporal.Duration

	lists []keyedList // per-position join state, key-indexed where the node may

	// outs holds the node's live composite matches; uses indexes them by
	// child-match ID so a child retraction cascades in O(dependents).
	// uses entries are cleaned lazily: a dead output ID is skipped (and the
	// whole entry dropped when its child match goes).
	outs map[event.ID]*keyedMatch
	uses map[event.ID][]event.ID

	parts []*keyedMatch // enumeration scratch, one slot per position
	ids   []event.ID    // contributor-ID scratch for the interned lookup
	kd    delta         // reusable child-transition scratch
	comb  *combCache    // interned composites, shared with clones
	u     *undoLog
}

func newSeqNode(e algebra.SequenceExpr, sh *shared, ctx buildCtx) *seqNode {
	s := &seqNode{
		w:     e.W,
		lists: make([]keyedList, len(e.Kids)),
		outs:  map[event.ID]*keyedMatch{},
		uses:  map[event.ID][]event.ID{},
		parts: make([]*keyedMatch, len(e.Kids)),
		ids:   make([]event.ID, len(e.Kids)),
		comb:  newCombCache(sh),
		u:     sh.u,
	}
	for i, k := range e.Kids {
		s.lists[i].keyed = ctx.joinKeyed(sh)
		s.kids = append(s.kids, build(k, sh, ctx))
	}
	return s
}

func (s *seqNode) push(r *evRec, out *delta) {
	for i, k := range s.kids {
		s.kd.reset()
		k.push(r, &s.kd)
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
	for _, it := range s.kd.items {
		if it.del {
			if s.lists[i].remove(it.km) {
				s.u.listDel(&s.lists[i], it.km)
			}
			for _, oid := range s.uses[it.km.m.ID] {
				if km, ok := s.outs[oid]; ok {
					s.u.matchMapKnown(s.outs, oid, km)
					delete(s.outs, oid)
					out.del(km)
				}
			}
			s.u.usesDel(s.uses, it.km.m.ID)
			delete(s.uses, it.km.m.ID)
			continue
		}
		s.enumerate(i, it.km, out)
		s.lists[i].insert(it.km)
		s.u.listIns(&s.lists[i], it.km)
	}
}

// enumerate emits every combination that includes the new match nm at
// position fix. Positions are filled left to right; each pick must start
// strictly after the previous one and within w of the first. Under
// pushdown, a definite-key nm draws the other positions' picks from its
// key's bucket and the wild list only (a wild nm still scans everything —
// the residual predicates decide, exactly as unkeyed).
func (s *seqNode) enumerate(fix int, nm *keyedMatch, out *delta) {
	k := len(s.kids)
	var rec func(depth int, prev, first temporal.Time)
	rec = func(depth int, prev, first temporal.Time) {
		if depth == k {
			s.commit(out)
			return
		}
		try := func(km *keyedMatch) bool {
			vs := km.m.V.Start
			if depth > 0 {
				if !(prev < vs) {
					return true // too early; callers decide whether to keep scanning
				}
				if vs.Sub(first) > s.w {
					return false
				}
			}
			f := first
			if depth == 0 {
				f = vs
			}
			s.parts[depth] = km
			rec(depth+1, vs, f)
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
				if depth < fix && list.ms[idx].m.V.Start >= nm.m.V.Start {
					break // positions before fix must start strictly before nm
				}
				if !try(list.ms[idx]) {
					break // sorted: everything later is further outside the window
				}
			}
		}
		s.lists[depth].scan(nm.key, scan)
	}
	rec(0, temporal.MinTime, temporal.MinTime)
}

func (s *seqNode) commit(out *delta) {
	for i, p := range s.parts {
		s.ids[i] = p.m.ID
	}
	id := event.Pair(s.ids...)
	if _, dup := s.outs[id]; dup {
		return
	}
	km := s.comb.combined(id, s.parts, s.w)
	s.u.matchMap(s.outs, id)
	s.outs[id] = km
	for _, pid := range s.ids {
		s.u.usesApp(s.uses, pid)
		s.uses[pid] = append(s.uses[pid], id)
	}
	out.add(km)
}

func (s *seqNode) clone(sh *shared) node {
	c := &seqNode{
		w:     s.w,
		lists: make([]keyedList, len(s.lists)),
		outs:  maps.Clone(s.outs),
		uses:  make(map[event.ID][]event.ID, len(s.uses)),
		parts: make([]*keyedMatch, len(s.parts)),
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
	for id, v := range s.uses {
		c.uses[id] = slices.Clone(v)
	}
	return c
}
