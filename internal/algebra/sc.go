package algebra

import (
	"fmt"

	"repro/internal/event"
)

// Selection picks which qualifying instances produce output (§3.2 "instance
// selection").
type Selection uint8

// Selection policies.
const (
	// SelectEach outputs every qualifying combination.
	SelectEach Selection = iota
	// SelectFirst keeps, among instances detected at the same instant,
	// only the one anchored at the earliest first contributor.
	SelectFirst
	// SelectLast keeps only the one anchored at the latest first
	// contributor (the most recent partial match).
	SelectLast
)

// Consumption decides whether contributors may participate in future
// outputs (§3.2 "instance consumption").
type Consumption uint8

// Consumption policies.
const (
	// Reuse leaves contributors available to later instances.
	Reuse Consumption = iota
	// Consume removes an output's contributors from further matching —
	// the policy that keeps operators like SEQUENCE from producing output
	// multiplicative in the input size.
	Consume
)

// SCMode bundles an instance selection and consumption policy. In CEDR the
// SC mode is decoupled from operator semantics and specified per query
// (§3.2); the zero value (each, reuse) is the unconstrained denotation.
type SCMode struct {
	Sel  Selection
	Cons Consumption
}

// String implements fmt.Stringer.
func (m SCMode) String() string {
	sel := [...]string{"each", "first", "last"}[m.Sel]
	cons := [...]string{"reuse", "consume"}[m.Cons]
	return fmt.Sprintf("sc(%s,%s)", sel, cons)
}

// ParseSelection converts language syntax to a Selection.
func ParseSelection(s string) (Selection, error) {
	switch s {
	case "", "each", "EACH":
		return SelectEach, nil
	case "first", "FIRST":
		return SelectFirst, nil
	case "last", "LAST":
		return SelectLast, nil
	}
	return 0, fmt.Errorf("algebra: unknown selection policy %q", s)
}

// ParseConsumption converts language syntax to a Consumption.
func ParseConsumption(s string) (Consumption, error) {
	switch s {
	case "", "reuse", "REUSE":
		return Reuse, nil
	case "consume", "CONSUME":
		return Consume, nil
	}
	return 0, fmt.Errorf("algebra: unknown consumption policy %q", s)
}

// ApplySC filters a finalize-ordered match list under the SC mode,
// committing detections in deterministic (FinalizeAt, Vs, ID) order — the
// order in which a streaming evaluation commits them. Selection and
// consumption interleave per detection group: instances whose contributors
// an earlier commit consumed are no longer candidates when their group's
// selection runs, exactly as in the incremental evaluation where consumed
// instances leave the store immediately.
func ApplySC(ms []Match, mode SCMode) []Match {
	if mode.Sel == SelectEach && mode.Cons == Reuse {
		return ms
	}
	SortMatches(ms)
	var consumed map[event.ID]bool
	if mode.Cons == Consume {
		consumed = map[event.ID]bool{}
	}
	var out []Match
	for i := 0; i < len(ms); {
		j := i
		for j < len(ms) && ms[j].FinalizeAt == ms[i].FinalizeAt && ms[j].LastVs == ms[i].LastVs {
			j++
		}
		out = CommitGroup(ms[i:j], matchItself, mode, consumed, out)
		i = j
	}
	return out
}

// matchItself is CommitGroup's accessor over match values.
func matchItself(m *Match) *Match { return m }

// CommitGroup applies the SC mode to one detection group — a maximal run
// of matches sharing (FinalizeAt, LastVs) in commit order — threading the
// cross-group consumed set (nil under reuse consumption), and appends the
// committed entries to out. It is the single definition of the
// selection/consumption rule: ApplySC (the semi-naive oracle) and the
// incremental Op's per-group commit (package algebra/inc) both call it,
// which is what keeps the two evaluation paths byte-identical here by
// construction. The group's element type is the caller's — the oracle
// commits over match values, the incremental Op over references to its
// interned matches — and match reads the Match out of one element.
func CommitGroup[T any](group []T, match func(*T) *Match, mode SCMode, consumed map[event.ID]bool, out []T) []T {
	viable := func(m *Match) bool {
		if mode.Cons != Consume {
			return true
		}
		for _, id := range m.CBT {
			if consumed[id] {
				return false
			}
		}
		return true
	}
	commit := func(gi int) {
		if mode.Cons == Consume {
			for _, id := range match(&group[gi]).CBT {
				consumed[id] = true
			}
		}
		out = append(out, group[gi])
	}
	if mode.Sel == SelectEach {
		for gi := range group {
			if viable(match(&group[gi])) {
				commit(gi)
			}
		}
		return out
	}
	bi := -1
	var best *Match
	for gi := range group {
		c := match(&group[gi])
		if !viable(c) {
			continue
		}
		if best == nil {
			best, bi = c, gi
			continue
		}
		switch mode.Sel {
		case SelectFirst:
			if c.FirstVs < best.FirstVs || (c.FirstVs == best.FirstVs && c.ID < best.ID) {
				best, bi = c, gi
			}
		case SelectLast:
			if c.FirstVs > best.FirstVs || (c.FirstVs == best.FirstVs && c.ID < best.ID) {
				best, bi = c, gi
			}
		}
	}
	if best != nil {
		commit(bi)
	}
	return out
}
