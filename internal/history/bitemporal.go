// Package history implements the paper's history-table formalism (Sections 4
// and 6): bitemporal and unitemporal history tables, reduction, truncation,
// canonical forms "to" and "at" an occurrence time, annotated tables with the
// Sync column, sync points (Definition 2), logical equivalence
// (Definition 1), coalescing and the * operator (Definition 10), shredded
// canonical form (§3.3.2) and ideal history tables (§6).
package history

import (
	"slices"
	"sort"

	"repro/internal/event"
	"repro/internal/temporal"
)

// BiRow is one entry of a tritemporal history table (Figure 2): the
// bitemporal content (valid interval V, occurrence interval O) plus the CEDR
// time interval C and the retraction-chain key K. Every unique K corresponds
// to an initial insert and all associated retractions, each of which reduces
// Oe relative to the previous matching entry.
type BiRow struct {
	K       event.ID
	ID      event.ID
	V       temporal.Interval // valid time [Vs, Ve)
	O       temporal.Interval // occurrence time [Os, Oe)
	C       temporal.Interval // CEDR time [Cs, Ce)
	Payload event.Payload
}

// BiTable is a tritemporal history table: an ordered list of entries. Order
// carries no meaning for the logical state; canonical forms sort rows
// deterministically before comparison.
type BiTable []BiRow

// Clone copies the table's rows; payloads are immutable, so they are shared.
func (t BiTable) Clone() BiTable { return slices.Clone(t) }

// Reduce performs the first canonicalization step of Section 4: for each K,
// only the entry with the earliest Oe time is retained. (Each retraction of
// a K chain reduces Oe, so the earliest Oe is the final word on that chain.)
// Ties keep the entry that arrived last in CEDR time, which carries the most
// recent content.
func (t BiTable) Reduce() BiTable {
	best := make(map[event.ID]int, len(t))
	for i, r := range t {
		j, seen := best[r.K]
		if !seen || r.O.End < t[j].O.End || (r.O.End == t[j].O.End && r.C.Start >= t[j].C.Start) {
			best[r.K] = i
		}
	}
	idx := make([]int, 0, len(best))
	for _, i := range best {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	out := make(BiTable, 0, len(idx))
	for _, i := range idx {
		out = append(out, t[i])
	}
	return out
}

// TruncateTo performs the second canonicalization step: any Oe greater than
// to becomes to, and rows whose Os is greater than to are removed.
func (t BiTable) TruncateTo(to temporal.Time) BiTable {
	out := make(BiTable, 0, len(t))
	for _, r := range t {
		if r.O.Start > to {
			continue
		}
		if r.O.End > to {
			r.O.End = to
		}
		out = append(out, r)
	}
	return out
}

// CanonicalTo returns the canonical history table to occurrence time to:
// reduction followed by truncation.
func (t BiTable) CanonicalTo(to temporal.Time) BiTable {
	return t.Reduce().TruncateTo(to)
}

// CanonicalAt returns the canonical history table at to: per Section 4, the
// canonical history table to to with the rows whose occurrence interval does
// not intersect to removed. After truncation every Oe is at most to, so a
// row intersects to exactly when its (truncated) occurrence interval reaches
// to — i.e. the fact was still live going into instant to. Fully-removed
// chains (empty occurrence intervals) never intersect anything.
func (t BiTable) CanonicalAt(to temporal.Time) BiTable {
	out := make(BiTable, 0)
	for _, r := range t.CanonicalTo(to) {
		if !r.O.Empty() && r.O.End == to {
			out = append(out, r)
		}
	}
	return out
}

// factKey is the Definition 1 projection: all attributes other than Cs and
// Ce, rendered canonically for multiset comparison.
func (r BiRow) factKey() string {
	return r.V.String() + "§" + r.O.String() + "§" + r.Payload.Key() + "§" + string(rune(r.ID))
}

// equalAsSets compares two tables on the Definition 1 projection πX
// (everything but CEDR time), as multisets.
func equalAsSets(a, b BiTable) bool {
	if len(a) != len(b) {
		return false
	}
	count := make(map[string]int, len(a))
	for _, r := range a {
		count[r.factKey()]++
	}
	for _, r := range b {
		count[r.factKey()]--
		if count[r.factKey()] < 0 {
			return false
		}
	}
	return true
}

// EquivalentTo implements Definition 1: two streams (given as history
// tables) are logically equivalent to occurrence time to iff their canonical
// history tables to to agree on every attribute other than Cs and Ce.
func (t BiTable) EquivalentTo(o BiTable, to temporal.Time) bool {
	return equalAsSets(t.CanonicalTo(to), o.CanonicalTo(to))
}

// EquivalentAt is the "at to" variant of Definition 1.
func (t BiTable) EquivalentAt(o BiTable, to temporal.Time) bool {
	return equalAsSets(t.CanonicalAt(to), o.CanonicalAt(to))
}
