package algebra

import (
	"sort"

	"repro/internal/event"
	"repro/internal/temporal"
)

// Match is one (possibly composite) pattern instance: the output form shared
// by the denotational evaluator and the streaming operator. The header
// mirrors §3.3.1: an ID derived from the contributors via idgen, the output
// validity interval, the root time Rt, and the cbt[] lineage.
type Match struct {
	ID event.ID
	V  temporal.Interval
	RT temporal.Time
	// FinalizeAt is the instant at which the detection becomes certain:
	// the last contributor's occurrence for positive operators, the close
	// of the negation window for UNLESS/ATMOST. An output may be emitted
	// once the input guarantee reaches FinalizeAt.
	FinalizeAt temporal.Time
	// FirstVs and LastVs are the first and last contributor occurrence
	// times (the negation scope of NOT and the detection instant).
	FirstVs, LastVs temporal.Time
	CBT             []event.ID
	Payload         event.Payload // namespaced: "<alias>.<field>"
}

// Event renders the match as a physical composite event. It shares the
// match's payload, read-only like every emitted payload, and copies the
// lineage, whose sharing would pin the whole match to the event's holders.
func (m Match) Event(typ string) event.Event {
	return event.Event{
		ID:      m.ID,
		Kind:    event.Insert,
		Type:    typ,
		V:       m.V,
		O:       temporal.From(m.V.Start),
		RT:      m.RT,
		CBT:     append([]event.ID(nil), m.CBT...),
		Payload: m.Payload,
	}
}

// Denote evaluates the expression denotationally over a set of primitive
// events, per the operator tables of §3.3.2. The store may be in any order.
func Denote(e Expr, store []event.Event) []Match {
	ms := eval(e, store)
	SortMatches(ms)
	return ms
}

// SortMatches orders matches in deterministic commit order — the
// (FinalizeAt, Vs, FirstVs, ID) tuple a streaming evaluation emits them in.
// The incremental matcher tree (internal/algebra/inc) shares it so both
// evaluation paths commit detections identically.
func SortMatches(ms []Match) {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].FinalizeAt != ms[j].FinalizeAt {
			return ms[i].FinalizeAt < ms[j].FinalizeAt
		}
		if ms[i].V.Start != ms[j].V.Start {
			return ms[i].V.Start < ms[j].V.Start
		}
		// Within one detection instant, commit earlier-anchored instances
		// first (chronicle order); ID as the final deterministic tiebreak.
		if ms[i].FirstVs != ms[j].FirstVs {
			return ms[i].FirstVs < ms[j].FirstVs
		}
		return ms[i].ID < ms[j].ID
	})
}

func eval(e Expr, store []event.Event) []Match {
	switch x := e.(type) {
	case TypeExpr:
		return evalType(x, store)
	case SequenceExpr:
		return evalSequence(x, store)
	case AtLeastExpr:
		return evalAtLeast(x, store)
	case AtMostExpr:
		return evalAtMost(x, store)
	case UnlessExpr:
		return evalUnless(x, store)
	case UnlessPrimeExpr:
		return evalUnlessPrime(x, store)
	case NotExpr:
		return evalNot(x, store)
	case CancelWhenExpr:
		return evalCancelWhen(x, store)
	case FilterExpr:
		var out []Match
		for _, m := range eval(x.Kid, store) {
			if x.Pred(m.Payload) {
				out = append(out, m)
			}
		}
		return out
	default:
		return nil
	}
}

func evalType(t TypeExpr, store []event.Event) []Match {
	var out []Match
	prefix := t.Prefix()
	for _, e := range store {
		if e.Kind != event.Insert || e.Type != t.Type {
			continue
		}
		p := make(event.Payload, len(e.Payload))
		for k, v := range e.Payload {
			p[prefix+"."+k] = v
		}
		out = append(out, Match{
			ID:         event.Pair(e.ID),
			V:          e.V,
			RT:         e.V.Start,
			FinalizeAt: e.V.Start,
			FirstVs:    e.V.Start,
			LastVs:     e.V.Start,
			CBT:        []event.ID{e.ID},
			Payload:    p,
		})
	}
	return out
}

// Combine builds the composite match for ordered contributors within scope
// w: valid over [last.Vs, first.Vs + w), per the SEQUENCE/ATLEAST rows of
// the operator table. Both the denotational evaluator and the incremental
// matcher tree derive composite headers, IDs and payloads through it.
func Combine(ms []Match, w temporal.Duration) Match {
	ids := make([]event.ID, len(ms))
	parts := make([]*Match, len(ms))
	for i := range ms {
		ids[i], parts[i] = ms[i].ID, &ms[i]
	}
	var m Match
	CombineInto(&m, event.Pair(ids...), nil, parts, w, CombinePayload(parts))
	return m
}

// CombinePayload builds the composite payload of parts: their namespaced
// payloads merged in order, a name an earlier part already holds primed
// ("'") until it is free.
func CombinePayload(parts []*Match) event.Payload {
	n := 0
	for _, m := range parts {
		n += len(m.Payload)
	}
	payload := make(event.Payload, n)
	for _, m := range parts {
		for k, v := range m.Payload {
			for _, dup := payload[k]; dup; _, dup = payload[k] {
				k += "'"
			}
			payload[k] = v
		}
	}
	return payload
}

// CombineInto is Combine for a caller that already holds the composite's
// ID (the incremental matcher computes it to look the composite up before
// building it) and its payload (CombinePayload's, or an equal map the
// matcher interned), and keeps the lineage in storage of its own: the
// composite's CBT is laid out in cbt's backing array when that has the
// capacity, so match and lineage can share one allocation.
func CombineInto(dst *Match, id event.ID, cbt []event.ID, parts []*Match, w temporal.Duration, payload event.Payload) {
	first, last := parts[0], parts[len(parts)-1]
	nCBT := 0
	for _, m := range parts {
		nCBT += len(m.CBT)
	}
	if cap(cbt) < nCBT {
		cbt = make([]event.ID, 0, nCBT)
	}
	cbt = cbt[:0]
	rt := first.RT
	fin := temporal.MinTime
	for _, m := range parts {
		cbt = append(cbt, m.CBT...)
		if m.RT < rt {
			rt = m.RT
		}
		if m.FinalizeAt > fin {
			fin = m.FinalizeAt
		}
	}
	*dst = Match{
		ID:         id,
		V:          temporal.NewInterval(last.V.Start, first.V.Start.Add(w)),
		RT:         rt,
		FinalizeAt: fin,
		FirstVs:    first.V.Start,
		LastVs:     last.V.Start,
		CBT:        cbt,
		Payload:    payload,
	}
}

func evalSequence(s SequenceExpr, store []event.Event) []Match {
	kids := make([][]Match, len(s.Kids))
	for i, k := range s.Kids {
		kids[i] = eval(k, store)
	}
	var out []Match
	var rec func(depth int, picked []Match)
	rec = func(depth int, picked []Match) {
		if depth == len(kids) {
			out = append(out, Combine(picked, s.W))
			return
		}
		for _, m := range kids[depth] {
			if depth > 0 {
				prev := picked[depth-1]
				if !(prev.V.Start < m.V.Start) {
					continue
				}
				if m.V.Start.Sub(picked[0].V.Start) > s.W {
					continue
				}
			}
			rec(depth+1, append(picked, m))
		}
	}
	rec(0, nil)
	return out
}

func evalAtLeast(a AtLeastExpr, store []event.Event) []Match {
	kids := make([][]Match, len(a.Kids))
	for i, k := range a.Kids {
		kids[i] = eval(k, store)
	}
	var out []Match
	// Choose n distinct positions, then one match per chosen position, then
	// require the picks to have strictly increasing Vs once sorted.
	positions := make([]int, 0, a.N)
	var choosePos func(start int)
	var pick func(idx int, picked []Match)
	pick = func(idx int, picked []Match) {
		if idx == len(positions) {
			sorted := append([]Match(nil), picked...)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i].V.Start < sorted[j].V.Start })
			for i := 1; i < len(sorted); i++ {
				if !(sorted[i-1].V.Start < sorted[i].V.Start) {
					return
				}
			}
			if len(sorted) > 0 &&
				sorted[len(sorted)-1].V.Start.Sub(sorted[0].V.Start) > a.W {
				return
			}
			out = append(out, Combine(sorted, a.W))
			return
		}
		for _, m := range kids[positions[idx]] {
			pick(idx+1, append(picked, m))
		}
	}
	choosePos = func(start int) {
		if len(positions) == a.N {
			pick(0, nil)
			return
		}
		for i := start; i < len(kids); i++ {
			positions = append(positions, i)
			choosePos(i + 1)
			positions = positions[:len(positions)-1]
		}
	}
	if a.N > 0 && a.N <= len(kids) {
		choosePos(0)
	}
	return dedupe(out)
}

func evalAtMost(a AtMostExpr, store []event.Event) []Match {
	var all []Match
	for _, k := range a.Kids {
		all = append(all, eval(k, store)...)
	}
	var out []Match
	for _, b := range all {
		n := 0
		for _, m := range all {
			if b.V.Start <= m.V.Start && m.V.Start < b.V.Start.Add(a.W) {
				n++
			}
		}
		if n <= a.N {
			m := b
			m.ID = event.Pair(b.ID)
			m.V = temporal.NewInterval(b.V.Start, b.V.Start.Add(a.W))
			m.FinalizeAt = b.V.Start.Add(a.W)
			out = append(out, m)
		}
	}
	return out
}

func evalUnless(u UnlessExpr, store []event.Event) []Match {
	as := eval(u.A, store)
	bs := eval(u.B, store)
	var out []Match
	for _, a := range as {
		blocked := false
		for _, b := range bs {
			if a.V.Start < b.V.Start && b.V.Start < a.V.Start.Add(u.W) &&
				(u.Corr == nil || u.Corr(a.Payload, b.Payload)) {
				blocked = true
				break
			}
		}
		if blocked {
			continue
		}
		m := a
		m.ID = event.Pair(a.ID)
		m.V = temporal.NewInterval(a.V.Start, a.V.Start.Add(u.W))
		fin := a.V.Start.Add(u.W)
		if a.FinalizeAt > fin {
			fin = a.FinalizeAt
		}
		m.FinalizeAt = fin
		out = append(out, m)
	}
	return out
}

func evalNot(n NotExpr, store []event.Event) []Match {
	seqs := evalSequence(n.Seq, store)
	negs := eval(n.Neg, store)
	var out []Match
	for _, s := range seqs {
		blocked := false
		for _, e := range negs {
			if s.FirstVs < e.V.Start && e.V.Start < s.LastVs &&
				(n.Corr == nil || n.Corr(s.Payload, e.Payload)) {
				blocked = true
				break
			}
		}
		if !blocked {
			out = append(out, s)
		}
	}
	return out
}

func evalCancelWhen(c CancelWhenExpr, store []event.Event) []Match {
	es := eval(c.E, store)
	cancels := eval(c.Cancel, store)
	var out []Match
	for _, m := range es {
		canceled := false
		for _, x := range cancels {
			if m.RT < x.V.Start && x.V.Start < m.V.Start &&
				(c.Corr == nil || c.Corr(m.Payload, x.Payload)) {
				canceled = true
				break
			}
		}
		if !canceled {
			out = append(out, m)
		}
	}
	return out
}

func dedupe(ms []Match) []Match {
	seen := map[event.ID]bool{}
	out := ms[:0]
	for _, m := range ms {
		if seen[m.ID] {
			continue
		}
		seen[m.ID] = true
		out = append(out, m)
	}
	return out
}
