//go:build !race

package consistency

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/algebra/inc"
	"repro/internal/delivery"
	"repro/internal/event"
	"repro/internal/lang"
	"repro/internal/operators"
	"repro/internal/temporal"
	"repro/internal/workload"
)

// TestAllocsMonitorFastPath pins the allocation ceiling of the monitor's
// in-order push path (binary-insertion buffer, head-indexed log,
// incremental checkpoint): a regression back toward per-push copying fails
// the ordinary test run, not just the benchmark gate. The bound is ~2× the
// measured steady state. (Skipped under -race: instrumentation changes
// allocation counts.)
func TestAllocsMonitorFastPath(t *testing.T) {
	src := workload.StockTicks(workload.DefaultTicks())
	delivered := delivery.Deliver(src, delivery.Ordered(5*temporal.Second))

	perEvent := testing.AllocsPerRun(5, func() {
		op := operators.NewSelect(func(event.Payload) bool { return true })
		m := NewMonitor(op, Middle())
		for _, e := range delivered {
			m.Push(0, e)
		}
		m.Finish()
	}) / float64(len(delivered))

	const ceiling = 3.0
	t.Logf("monitor fast path: %.2f allocs/event over %d delivered items (ceiling %.0f)",
		perEvent, len(delivered), ceiling)
	if perEvent > ceiling {
		t.Fatalf("monitor fast path allocates %.2f/event, above the pinned ceiling %.0f", perEvent, ceiling)
	}
}

// TestAllocsVersionedCheckpointCapture pins what making every admitted item
// a rollback point may cost in heap objects: on the versioned path a capture
// is a journal mark plus an undo record per table mutation — O(changed by
// the item) — not a copy of the operator or of the net-fact table. The proof
// is differential: the same in-order stream runs at Strong, which admits the
// same items but marks none, and at Middle, which marks every one, and the
// per-event difference — the entire capture cost — must stay a small
// constant, independent of the matcher's live state. Under clone-and-replay
// every capture deep-copied the matcher's stores, costing tens of
// allocations per event on this workload.
func TestAllocsVersionedCheckpointCapture(t *testing.T) {
	expr := algebra.SequenceExpr{Kids: []algebra.Expr{
		algebra.TypeExpr{Type: "E", Alias: "a"},
		algebra.TypeExpr{Type: "E", Alias: "b"},
	}, W: 50}
	src := make([]event.Event, 0, 600)
	at := temporal.Time(0)
	for i := 0; i < 600; i++ {
		at = at.Add(temporal.Duration(i%5 + 1))
		src = append(src, event.NewInsert(event.ID(i+1), "E", at,
			temporal.Infinity, event.Payload{"i": int64(i)}))
	}
	delivered := delivery.Deliver(src, delivery.Ordered(20))

	measure := func(spec Spec) float64 {
		return testing.AllocsPerRun(5, func() {
			m := NewMonitor(inc.NewOp(expr, algebra.SCMode{}, "out"), spec)
			for _, e := range delivered {
				m.Push(0, e)
			}
			m.Finish()
		}) / float64(len(delivered))
	}
	base := measure(Strong())  // no item marked: pure processing cost
	dense := measure(Middle()) // a capture per admitted item
	overhead := dense - base

	const ceiling = 1.0 // measured −0.36: Strong's alignment buffer costs what Middle's marks do
	t.Logf("versioned capture: %.2f allocs/event at Strong, %.2f at Middle — capture overhead %.2f/event (ceiling %.0f)",
		base, dense, overhead, ceiling)
	if overhead > ceiling {
		t.Fatalf("a version per admitted item adds %.2f allocs/event (%.2f at Middle vs %.2f at Strong), above the pinned ceiling %.0f — capture is no longer O(changed)", overhead, dense, base, ceiling)
	}
}

// TestAllocsCompiledQueryUnderDisorder pins what disorder may cost in heap
// objects where the regression was visible: §3.1's query as compiled
// (CorrelationKey(Machine_Id, EQUAL), each/consume, the pushdown attribute
// the analysis proves) over the machine-lifecycle stream at Middle, once in
// sync order and once through a jittered delivery whose stragglers make
// the monitor roll the matcher back and replay. A replay re-reads matches
// the interning caches already hold, so it must not re-buy their derived
// facts, and it re-drives only the items the straggler displaced: when the
// compiled predicates built a slice per call and every key extraction
// re-boxed its string, the disordered run cost 3× the ordered one per item. Each run builds a fresh operator, so first-time interning
// is inside both measurements.
func TestAllocsCompiledQueryUnderDisorder(t *testing.T) {
	an, err := lang.Compile(`EVENT MissedRestart
WHEN UNLESS(SEQUENCE(INSTALL x, SHUTDOWN AS y, 12 hours), RESTART AS z, 5 minutes)
WHERE CorrelationKey(Machine_Id, EQUAL)
SC(each, consume)`)
	if err != nil {
		t.Fatal(err)
	}
	cfg := workload.DefaultMachines()
	cfg.Machines, cfg.Cycles = 96, 8
	src, _ := workload.MachineEvents(cfg)
	period := 10 * temporal.Minute
	ordered := delivery.Deliver(src, delivery.Ordered(period))
	jittered := delivery.Deliver(src, delivery.Config{Seed: 3, CTIPeriod: period, Latency: delivery.Latency{
		Base: 1, Jitter: 15 * temporal.Second, StragglerProb: 0.05, StragglerDelay: temporal.Minute}})

	var replays int
	measure := func(delivered []event.Event) float64 {
		return testing.AllocsPerRun(3, func() {
			op := inc.NewOp(an.Expr, an.Mode, an.Query.Name, inc.WithJoinKey(an.PushKeyAttr))
			m := NewMonitor(op, Middle())
			for _, e := range delivered {
				m.Push(0, e)
			}
			m.Finish()
			replays = m.Metrics().Replays
		}) / float64(len(delivered))
	}
	inOrder := measure(ordered)
	if replays != 0 {
		t.Fatalf("the ordered delivery caused %d replays; it must be the no-repair baseline", replays)
	}
	disordered := measure(jittered)
	if replays < len(jittered)/20 {
		t.Fatalf("the jittered delivery caused only %d replays over %d items; it no longer exercises the repair path", replays, len(jittered))
	}

	const ceilOrdered, ceilDisordered, ceilRatio = 5.0, 5.5, 1.25 // measured 3.90, 4.09, 1.05 (6.80, 7.23 while joins kept a uses index and re-headed forms had their own allocation; 10.6, 11.0 before payloads were interned; 10.6, 13.6, 1.28 while repair replayed from a snapshot every 24 items)
	t.Logf("compiled §3.1 query at Middle: %.2f allocs/item ordered (ceiling %.1f), %.2f disordered over %d replays (ceiling %.1f), ratio %.2f (ceiling %.2f)",
		inOrder, ceilOrdered, disordered, replays, ceilDisordered, disordered/inOrder, ceilRatio)
	if inOrder > ceilOrdered || disordered > ceilDisordered {
		t.Fatalf("compiled §3.1 query allocates %.2f/item ordered (ceiling %.1f), %.2f disordered (ceiling %.1f)",
			inOrder, ceilOrdered, disordered, ceilDisordered)
	}
	if disordered > ceilRatio*inOrder {
		t.Fatalf("disorder costs %.2f× the ordered run's heap objects per item (%.2f vs %.2f), above the pinned %.1f× — replay re-allocates what interning already holds",
			disordered/inOrder, disordered, inOrder, ceilRatio)
	}
}
