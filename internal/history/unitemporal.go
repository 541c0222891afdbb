package history

import (
	"slices"
	"sort"

	"repro/internal/event"
	"repro/internal/temporal"
)

// UniRow is one entry of a unitemporal history table (Figure 10): the
// Section 6 run-time setting where occurrence and valid time are merged into
// a single valid-time interval whose lifetime may be shortened by
// retractions. C records delivery (CEDR) times when the table is built from
// a physical stream; it is projected out by canonical comparisons.
type UniRow struct {
	ID      event.ID
	V       temporal.Interval
	Payload event.Payload
	C       temporal.Interval
}

// UniTable is a unitemporal history table.
type UniTable []UniRow

// FromEvents folds a physical stream (inserts, retractions, punctuation)
// into a unitemporal history table. CTIs carry no state and are skipped.
func FromEvents(evs []event.Event) UniTable {
	out := make(UniTable, 0, len(evs))
	for _, e := range evs {
		if e.IsCTI() {
			continue
		}
		out = append(out, UniRow{ID: e.ID, V: e.V, Payload: e.Payload, C: e.C})
	}
	return out
}

// Clone copies the table's rows; payloads are immutable, so they are shared.
func (t UniTable) Clone() UniTable { return slices.Clone(t) }

// Reduce keeps, for each ID, only the entry with the earliest Ve — the
// unitemporal counterpart of bitemporal reduction, since every retraction of
// an ID reduces its Ve.
func (t UniTable) Reduce() UniTable {
	best := make(map[event.ID]int, len(t))
	for i, r := range t {
		j, seen := best[r.ID]
		if !seen || r.V.End < t[j].V.End {
			best[r.ID] = i
		}
	}
	idx := make([]int, 0, len(best))
	for _, i := range best {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	out := make(UniTable, 0, len(idx))
	for _, i := range idx {
		out = append(out, t[i])
	}
	return out
}

// Ideal returns the ideal history table of Section 6: the canonical table to
// infinity with CEDR time projected out and fully-retracted facts (empty
// validity) removed. This is the equivalence-class representative that
// excludes retractions and out-of-order delivery, on which operator
// semantics are defined.
func (t UniTable) Ideal() UniTable {
	reduced := t.Reduce()
	out := make(UniTable, 0, len(reduced))
	for _, r := range reduced {
		if r.V.Empty() {
			continue
		}
		r.C = temporal.Interval{}
		out = append(out, r)
	}
	return out
}

// Star is the * operator of Definition 10: repeated application of
// coalescence until no two events with equal payloads have meeting validity
// intervals. The result is sorted by (payload, Vs) and is a canonical
// representation of the table's view history, suitable for view-update
// compliance checks (Definition 11).
//
// Under the paper's relation semantics (no duplicate payloads with
// overlapping intervals), coalescing merges exactly the chains of
// insert-events that chop one logical lifetime into pieces. Overlapping
// intervals with equal payloads are merged as well, which makes Star usable
// as a normal form for outputs of operators that may emit redundant pieces.
func (t UniTable) Star() UniTable {
	groups := make(map[string][]temporal.Interval)
	var order []string
	for _, r := range t {
		if r.V.Empty() {
			continue
		}
		k := r.Payload.Key()
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], r.V)
	}
	payloads := make(map[string]event.Payload)
	for _, r := range t {
		if _, ok := payloads[r.Payload.Key()]; !ok {
			payloads[r.Payload.Key()] = r.Payload
		}
	}
	sort.Strings(order)
	out := make(UniTable, 0, len(t))
	for _, k := range order {
		ivs := groups[k]
		sort.Slice(ivs, func(a, b int) bool {
			if ivs[a].Start != ivs[b].Start {
				return ivs[a].Start < ivs[b].Start
			}
			return ivs[a].End < ivs[b].End
		})
		merged := make([]temporal.Interval, 0, len(ivs))
		for _, iv := range ivs {
			n := len(merged)
			if n > 0 && merged[n-1].End >= iv.Start { // meets or overlaps
				if iv.End > merged[n-1].End {
					merged[n-1].End = iv.End
				}
				continue
			}
			merged = append(merged, iv)
		}
		for _, iv := range merged {
			out = append(out, UniRow{V: iv, Payload: payloads[k]})
		}
	}
	return out
}

// EquivalentStar reports whether the two tables describe the same view
// history: their ideal tables coalesce to identical normal forms. This is
// the comparison used by the well-behavedness oracle (Definition 6) and the
// view-update-compliance property tests (Definition 11).
func (t UniTable) EquivalentStar(o UniTable) bool {
	a, b := t.Ideal().Star(), o.Ideal().Star()
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].V != b[i].V || a[i].Payload.Key() != b[i].Payload.Key() {
			return false
		}
	}
	return true
}

// SortByVs orders the table by (Vs, Ve, payload); convenient for golden
// tests and printing.
func (t UniTable) SortByVs() UniTable {
	out := t.Clone()
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].V.Start != out[b].V.Start {
			return out[a].V.Start < out[b].V.Start
		}
		if out[a].V.End != out[b].V.End {
			return out[a].V.End < out[b].V.End
		}
		return out[a].Payload.Key() < out[b].Payload.Key()
	})
	return out
}
