package inc

import (
	"maps"

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
// A retraction re-enumerates: outs always equals the valid combinations
// over the current lists, so the insertion's enumeration, run for a
// departing child match, finds exactly the composites that included it.
//
// Under correlation-key pushdown (see key.go and buildCtx) the per-position
// lists are key-indexed: a new definite-key match combines only with picks
// from its own key's bucket plus the wild list, so the enumeration no
// longer crosses keys the residual EQUAL predicate would drop anyway. An
// unkeyed node files every match wild: one flat list per position.
type seqNode struct {
	kids []node
	w    temporal.Duration

	lists []keyedList              // per-position join state, key-indexed where the node may
	outs  map[event.ID]*keyedMatch // the node's live composite matches

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
		parts: make([]*keyedMatch, len(e.Kids)),
		ids:   make([]event.ID, len(e.Kids)),
		comb:  newCombCache(sh, ctx.up),
		u:     sh.u,
	}
	for i, k := range e.Kids {
		s.lists[i].keyed = ctx.joinKeyed(sh)
		s.kids = append(s.kids, build(k, sh, buildCtx{pos: ctx.pos, frozen: ctx.frozen}))
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
		if !it.del {
			s.enumerate(i, it.km, false, out)
			s.lists[i].insert(it.km)
			s.u.listIns(&s.lists[i], it.km)
		} else if s.lists[i].remove(it.km) {
			s.u.listDel(&s.lists[i], it.km)
			s.enumerate(i, it.km, true, out)
		}
	}
}

// enumerate adds (del: retracts) every combination that includes match nm
// at position fix. Positions are filled left to right; each pick must start
// strictly after the previous one and within w of the first. Under
// pushdown, picks come from one key's bucket and the wild list only: nm's
// key, or the first definite key picked while all so far are wild (narrow).
func (s *seqNode) enumerate(fix int, nm *keyedMatch, del bool, out *delta) {
	n := len(s.kids)
	var rec func(depth int, prev, first temporal.Time, k event.Key)
	rec = func(depth int, prev, first temporal.Time, k event.Key) {
		if depth == n {
			s.commit(del, out)
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
			rec(depth+1, vs, f, narrow(k, km))
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
		s.lists[depth].scan(k, scan)
	}
	rec(0, temporal.MinTime, temporal.MinTime, nm.pe.key)
}

// commit adds (del: retracts) the combination in s.parts.
func (s *seqNode) commit(del bool, out *delta) {
	for i, p := range s.parts {
		s.ids[i] = p.m.ID
	}
	id := event.Pair(s.ids...)
	km, live := s.outs[id]
	switch {
	case del && live:
		s.u.matchMapKnown(s.outs, id, km)
		delete(s.outs, id)
		out.del(km)
	case !del && !live:
		km = s.comb.combined(id, s.parts, s.w)
		s.u.matchMap(s.outs, id)
		s.outs[id] = km
		out.add(km)
	}
}

func (s *seqNode) clone(sh *shared) node {
	c := &seqNode{
		w:     s.w,
		lists: make([]keyedList, len(s.lists)),
		outs:  maps.Clone(s.outs),
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
	return c
}
