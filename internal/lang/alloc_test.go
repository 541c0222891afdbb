//go:build !race

package lang

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/event"
)

// TestAllocsCorrKeyPredicates pins the compiled CorrelationKey predicates
// at zero allocations per evaluation. The matcher calls pos once per delta
// item at the top-level filter and corr once per candidate×blocker visit,
// and the consistency monitor's replays call them again over the same
// matches: when they built a []event.Value per call they were 37% of all
// heap objects on a disordered fleet stream. (Skipped under -race:
// instrumentation changes allocation counts.)
func TestAllocsCorrKeyPredicates(t *testing.T) {
	pos := event.Payload{"x.Machine_Id": "m017", "y.Machine_Id": "m017", "x.i": int64(1), "y.i": int64(2)}
	neg := event.Payload{"z.Machine_Id": "m017", "z.i": int64(3)}
	for _, where := range []string{
		"CorrelationKey(Machine_Id, EQUAL)",
		"CorrelationKey(Machine_Id, UNIQUE)",
		"[Machine_Id Equal 'm017']",
	} {
		an, err := Compile(`EVENT Q WHEN UNLESS(SEQUENCE(INSTALL x, SHUTDOWN AS y, 12 hours), RESTART AS z, 5 minutes) WHERE ` + where)
		if err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		filter := an.Expr.(algebra.FilterExpr)
		corr := filter.Kid.(algebra.UnlessExpr).Corr
		var sink bool
		allocs := testing.AllocsPerRun(200, func() {
			sink = filter.Pred(pos) != corr(pos, neg)
		})
		_ = sink
		t.Logf("compiled %s: %.2f allocs per pos+corr evaluation (ceiling 0)", where, allocs)
		if allocs != 0 {
			t.Fatalf("compiled %s allocates %.2f per pos+corr evaluation; the predicates must stream over the payload", where, allocs)
		}
	}
}
