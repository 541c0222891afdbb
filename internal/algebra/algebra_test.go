package algebra

import (
	"math/rand"
	"testing"

	"repro/internal/event"
	"repro/internal/temporal"
)

func ev(id event.ID, typ string, vs temporal.Time, fields ...any) event.Event {
	p := event.Payload{}
	for i := 0; i+1 < len(fields); i += 2 {
		p[fields[i].(string)] = fields[i+1]
	}
	return event.NewInsert(id, typ, vs, temporal.Infinity, p)
}

func typ(name, alias string) Expr { return TypeExpr{Type: name, Alias: alias} }

func TestDenoteSequenceBasics(t *testing.T) {
	expr := SequenceExpr{Kids: []Expr{typ("A", "a"), typ("B", "b")}, W: 10}
	store := []event.Event{
		ev(1, "A", 0),
		ev(2, "B", 5),
		ev(3, "B", 15), // outside scope relative to A@0
	}
	ms := Denote(expr, store)
	if len(ms) != 1 {
		t.Fatalf("matches = %d, want 1: %+v", len(ms), ms)
	}
	m := ms[0]
	// Output valid over [b.Vs, a.Vs + w) = [5, 10).
	if m.V != temporal.NewInterval(5, 10) {
		t.Errorf("V = %v, want [5, 10)", m.V)
	}
	if m.RT != 0 || m.FirstVs != 0 || m.LastVs != 5 || m.FinalizeAt != 5 {
		t.Errorf("times: %+v", m)
	}
	if len(m.CBT) != 2 || m.CBT[0] != 1 || m.CBT[1] != 2 {
		t.Errorf("lineage: %v", m.CBT)
	}
}

func TestDenoteSequenceRequiresOrder(t *testing.T) {
	expr := SequenceExpr{Kids: []Expr{typ("A", ""), typ("B", "")}, W: 10}
	store := []event.Event{ev(1, "B", 0), ev(2, "A", 5)}
	if ms := Denote(expr, store); len(ms) != 0 {
		t.Errorf("B before A must not match: %+v", ms)
	}
	// Simultaneous events do not satisfy strict ordering.
	store = []event.Event{ev(1, "A", 3), ev(2, "B", 3)}
	if ms := Denote(expr, store); len(ms) != 0 {
		t.Errorf("simultaneous events must not match strictly: %+v", ms)
	}
}

func TestDenoteUnless(t *testing.T) {
	// UNLESS(A, B, 5): A at 0 blocked by B at 3; A at 10 unblocked
	// (B at 16 is outside [10, 15)).
	expr := UnlessExpr{A: typ("A", "a"), B: typ("B", "b"), W: 5}
	store := []event.Event{
		ev(1, "A", 0),
		ev(2, "B", 3),
		ev(3, "A", 10),
		ev(4, "B", 16),
	}
	ms := Denote(expr, store)
	if len(ms) != 1 {
		t.Fatalf("matches = %d, want 1: %+v", len(ms), ms)
	}
	if ms[0].V != temporal.NewInterval(10, 15) {
		t.Errorf("V = %v, want [10, 15)", ms[0].V)
	}
	// UNLESS finalizes only when the negation window closes.
	if ms[0].FinalizeAt != 15 {
		t.Errorf("FinalizeAt = %v, want 15", ms[0].FinalizeAt)
	}
}

func TestDenoteUnlessCorrelation(t *testing.T) {
	// Predicate injection: only a B on the same machine blocks.
	corr := func(pos, neg event.Payload) bool {
		return event.ValueEqual(pos["a.m"], neg["b.m"])
	}
	expr := UnlessExpr{A: typ("A", "a"), B: typ("B", "b"), W: 5, Corr: corr}
	store := []event.Event{
		ev(1, "A", 0, "m", "m1"),
		ev(2, "B", 3, "m", "m2"), // different machine: does not block
	}
	ms := Denote(expr, store)
	if len(ms) != 1 {
		t.Fatalf("uncorrelated B must not block: %+v", ms)
	}
	store[1].Payload["m"] = "m1"
	if ms := Denote(expr, store); len(ms) != 0 {
		t.Errorf("correlated B must block: %+v", ms)
	}
}

// The paper's §3.1 example: UNLESS(SEQUENCE(INSTALL, SHUTDOWN, 12h),
// RESTART, 5m) with Machine_Id equality.
func TestDenoteCIDR07Example(t *testing.T) {
	h, m := temporal.Hour, temporal.Minute
	corr := func(pos, neg event.Payload) bool {
		return event.ValueEqual(pos["x.Machine_Id"], neg["z.Machine_Id"])
	}
	seq := SequenceExpr{Kids: []Expr{
		FilterExpr{
			Kid: SequenceExpr{Kids: []Expr{typ("INSTALL", "x"), typ("SHUTDOWN", "y")}, W: 12 * h},
			Pred: func(p event.Payload) bool {
				return event.ValueEqual(p["x.Machine_Id"], p["y.Machine_Id"])
			},
		},
	}, W: 12 * h}
	_ = seq
	expr := UnlessExpr{
		A: FilterExpr{
			Kid: SequenceExpr{Kids: []Expr{typ("INSTALL", "x"), typ("SHUTDOWN", "y")}, W: 12 * h},
			Pred: func(p event.Payload) bool {
				return event.ValueEqual(p["x.Machine_Id"], p["y.Machine_Id"])
			},
		},
		B:    typ("RESTART", "z"),
		W:    5 * m,
		Corr: corr,
	}
	base := temporal.Time(0)
	store := []event.Event{
		ev(1, "INSTALL", base, "Machine_Id", "m1"),
		ev(2, "SHUTDOWN", base.Add(1*h), "Machine_Id", "m1"),
		// m1 restarts within 5 minutes: no alert.
		ev(3, "RESTART", base.Add(1*h+2*m), "Machine_Id", "m1"),

		ev(4, "INSTALL", base.Add(2*h), "Machine_Id", "m2"),
		ev(5, "SHUTDOWN", base.Add(3*h), "Machine_Id", "m2"),
		// m2 restarts, but after the 5-minute window: alert fires.
		ev(6, "RESTART", base.Add(3*h+20*m), "Machine_Id", "m2"),

		// m3 shuts down without a preceding install: no sequence.
		ev(7, "SHUTDOWN", base.Add(4*h), "Machine_Id", "m3"),
	}
	ms := Denote(expr, store)
	if len(ms) != 1 {
		t.Fatalf("alerts = %d, want 1 (m2 only): %+v", len(ms), ms)
	}
	if got := ms[0].Payload["x.Machine_Id"]; got != "m2" {
		t.Errorf("alert machine = %v, want m2", got)
	}
}

func TestDenoteNotSequenceScope(t *testing.T) {
	// NOT(C, SEQUENCE(A, B, 10)): sequence detections with no C strictly
	// between the contributors.
	expr := NotExpr{Neg: typ("C", "c"),
		Seq: SequenceExpr{Kids: []Expr{typ("A", "a"), typ("B", "b")}, W: 10}}
	store := []event.Event{
		ev(1, "A", 0), ev(2, "B", 5), ev(3, "C", 2), // C inside (0,5): blocked
		ev(4, "A", 20), ev(5, "B", 24), ev(6, "C", 26), // C outside: kept
	}
	ms := Denote(expr, store)
	// A@20→B@24 survives; also A@20→B@5? no (order); A@0→B@24 outside w.
	if len(ms) != 1 || ms[0].FirstVs != 20 {
		t.Fatalf("matches: %+v", ms)
	}
}

func TestDenoteCancelWhen(t *testing.T) {
	// CANCEL-WHEN(SEQUENCE(A, B, 10), X): an X during the partial
	// detection (between root and detection) cancels.
	expr := CancelWhenExpr{
		E:      SequenceExpr{Kids: []Expr{typ("A", "a"), typ("B", "b")}, W: 10},
		Cancel: typ("X", "x"),
	}
	store := []event.Event{
		ev(1, "A", 0), ev(2, "X", 2), ev(3, "B", 5), // X during detection: canceled
		ev(4, "A", 20), ev(5, "B", 25), // clean
	}
	ms := Denote(expr, store)
	if len(ms) != 1 || ms[0].FirstVs != 20 {
		t.Fatalf("matches: %+v", ms)
	}
}

func TestDenoteAtLeastAllAny(t *testing.T) {
	store := []event.Event{ev(1, "A", 0), ev(2, "B", 3), ev(3, "C", 6)}
	all := All(10, typ("A", ""), typ("B", ""), typ("C", ""))
	if ms := Denote(all, store); len(ms) != 1 {
		t.Fatalf("ALL: %+v", ms)
	}
	atl2 := AtLeastExpr{N: 2, Kids: []Expr{typ("A", ""), typ("B", ""), typ("C", "")}, W: 10}
	// Pairs: AB, AC, BC = 3.
	if ms := Denote(atl2, store); len(ms) != 3 {
		t.Fatalf("ATLEAST(2): %+v", ms)
	}
	anyE := Any(typ("A", ""), typ("B", ""))
	if ms := Denote(anyE, store); len(ms) != 2 {
		t.Fatalf("ANY: %+v", ms)
	}
	// Scope too small: ALL within 4 fails (span 6).
	tight := All(4, typ("A", ""), typ("B", ""), typ("C", ""))
	if ms := Denote(tight, store); len(ms) != 0 {
		t.Fatalf("ALL tight scope: %+v", ms)
	}
}

func TestDenoteAtMost(t *testing.T) {
	expr := AtMostExpr{N: 2, Kids: []Expr{typ("A", "")}, W: 10}
	store := []event.Event{ev(1, "A", 0), ev(2, "A", 3), ev(3, "A", 5), ev(4, "A", 30)}
	ms := Denote(expr, store)
	// Anchors: A@0 sees 3 in [0,10) → blocked; A@3 sees 2 → ok; A@5 sees 2
	// → ok; A@30 sees 1 → ok.
	if len(ms) != 3 {
		t.Fatalf("ATMOST: %d matches: %+v", len(ms), ms)
	}
}

// §1's claim: without consumption, sequence output can be multiplicative in
// input size; with consume mode it is linear.
func TestConsumptionTamesMultiplicativeOutput(t *testing.T) {
	expr := SequenceExpr{Kids: []Expr{typ("A", ""), typ("B", "")}, W: 1000}
	var store []event.Event
	n := 8
	for i := 0; i < n; i++ {
		store = append(store, ev(event.ID(2*i+1), "A", temporal.Time(2*i)))
		store = append(store, ev(event.ID(2*i+2), "B", temporal.Time(2*i+1)))
	}
	each := ApplySC(Denote(expr, store), SCMode{})
	consume := ApplySC(Denote(expr, store), SCMode{Cons: Consume})
	// Unconstrained: n*(n+1)/2 pairs; consumed: n pairs.
	if len(each) != n*(n+1)/2 {
		t.Errorf("each = %d, want %d", len(each), n*(n+1)/2)
	}
	if len(consume) != n {
		t.Errorf("consume = %d, want %d", len(consume), n)
	}
}

func TestSelectionFirstLast(t *testing.T) {
	expr := SequenceExpr{Kids: []Expr{typ("A", "a"), typ("B", "b")}, W: 100}
	store := []event.Event{
		ev(1, "A", 0, "i", int64(1)),
		ev(2, "A", 5, "i", int64(2)),
		ev(3, "B", 10),
	}
	first := ApplySC(Denote(expr, store), SCMode{Sel: SelectFirst})
	last := ApplySC(Denote(expr, store), SCMode{Sel: SelectLast})
	if len(first) != 1 || first[0].Payload["a.i"] != int64(1) {
		t.Errorf("first: %+v", first)
	}
	if len(last) != 1 || last[0].Payload["a.i"] != int64(2) {
		t.Errorf("last: %+v", last)
	}
}

// The streaming PatternOp must agree with the denotation + SC mode on
// ordered input, for random streams and several expressions.
func TestPatternOpMatchesDenotation(t *testing.T) {
	exprs := map[string]Expr{
		"seq":    SequenceExpr{Kids: []Expr{typ("A", "a"), typ("B", "b")}, W: 12},
		"unless": UnlessExpr{A: typ("A", "a"), B: typ("B", "b"), W: 7},
		"all":    All(15, typ("A", ""), typ("B", ""), typ("C", "")),
		"not": NotExpr{Neg: typ("C", "c"),
			Seq: SequenceExpr{Kids: []Expr{typ("A", "a"), typ("B", "b")}, W: 9}},
		"cancel": CancelWhenExpr{
			E:      SequenceExpr{Kids: []Expr{typ("A", "a"), typ("B", "b")}, W: 9},
			Cancel: typ("X", "x")},
	}
	modes := []SCMode{{}, {Cons: Consume}, {Sel: SelectFirst}, {Sel: SelectLast, Cons: Consume}}
	types := []string{"A", "B", "C", "X"}
	rng := rand.New(rand.NewSource(77))
	for name, expr := range exprs {
		for _, mode := range modes {
			for trial := 0; trial < 8; trial++ {
				var store []event.Event
				vs := temporal.Time(0)
				for i := 0; i < 25; i++ {
					vs += temporal.Time(rng.Intn(4) + 1)
					store = append(store, ev(event.ID(i+1), types[rng.Intn(len(types))], vs,
						"i", int64(i)))
				}
				want := ApplySC(Denote(expr, store), mode)

				op := NewPatternOp(expr, mode, "out")
				var got []Match
				for _, e := range store {
					for _, o := range op.Process(0, e) {
						if o.Kind == event.Insert {
							got = append(got, Match{ID: o.ID, V: o.V})
						}
					}
				}
				for _, o := range op.Advance(temporal.Infinity) {
					if o.Kind == event.Insert {
						got = append(got, Match{ID: o.ID, V: o.V})
					}
				}
				if len(got) != len(want) {
					t.Fatalf("%s %v trial %d: got %d, want %d", name, mode, trial, len(got), len(want))
				}
				wantByID := map[event.ID]temporal.Interval{}
				for _, m := range want {
					wantByID[m.ID] = m.V
				}
				for _, g := range got {
					if wantByID[g.ID] != g.V {
						t.Fatalf("%s %v trial %d: match %v has V %v, want %v",
							name, mode, trial, g.ID, g.V, wantByID[g.ID])
					}
				}
			}
		}
	}
}

func TestPatternOpScopePruning(t *testing.T) {
	op := NewPatternOp(SequenceExpr{Kids: []Expr{typ("A", ""), typ("B", "")}, W: 10}, SCMode{}, "out")
	for i := 0; i < 100; i++ {
		op.Process(0, ev(event.ID(i+1), "A", temporal.Time(i*5)))
		op.Advance(temporal.Time(i * 5))
	}
	// Only events within the scope window should remain.
	if op.StateSize() > 10 {
		t.Errorf("state = %d, scope pruning ineffective", op.StateSize())
	}
}

func TestPatternOpFullRemovalRetractsOutputs(t *testing.T) {
	op := NewPatternOp(SequenceExpr{Kids: []Expr{typ("A", "a"), typ("B", "b")}, W: 10}, SCMode{}, "out")
	a := ev(1, "A", 0)
	b := ev(2, "B", 5)
	op.Process(0, a)
	// Time enters the operator only through Advance: B's Vs is past the
	// frontier, so Process alone matures nothing.
	if outs := op.Process(0, b); len(outs) != 0 {
		t.Fatalf("Process matured a detection past the frontier: %v", outs)
	}
	outs := op.Advance(5)
	if len(outs) != 1 {
		t.Fatalf("expected one detection, got %v", outs)
	}
	// Full removal of the A contributor retracts the composite.
	r := event.NewRetract(1, "A", 0, 0, nil)
	outs = op.Process(0, r)
	var retracts int
	for _, o := range outs {
		if o.Kind == event.Retract {
			retracts++
		}
	}
	if retracts != 1 {
		t.Fatalf("expected one retraction, got %v", outs)
	}
}

// Regression: consumed contributors must survive (in the side store /
// consumed-marked store) so that remove()'s un-consume path actually
// revives the instances they had blocked. Previously mature() deleted
// consumed events outright, and a removal that un-consumed an ID had no
// event left to re-derive from — blocked instances never re-materialized.
func TestPatternOpConsumedContributorRevival(t *testing.T) {
	op := NewPatternOp(SequenceExpr{Kids: []Expr{typ("A", "a"), typ("B", "b")}, W: 10},
		SCMode{Cons: Consume}, "out")
	op.Process(0, ev(1, "A", 0))
	op.Process(0, ev(2, "A", 2))
	if outs := op.Process(0, ev(3, "B", 5)); len(outs) != 0 {
		t.Fatalf("Process matured a pair past the frontier: %v", outs)
	}
	outs := op.Advance(5)
	// Chronicle order commits (A@0, B@5), consuming both; (A@2, B@5) is
	// blocked by the consumption of B.
	if len(outs) != 1 || outs[0].Kind != event.Insert {
		t.Fatalf("expected the first pair only, got %v", outs)
	}
	// Removing A@0 retracts the pair and un-consumes B@5, which must
	// revive the blocked (A@2, B@5) instance.
	outs = op.Process(0, event.NewRetract(1, "A", 0, 0, nil))
	var retracts, inserts int
	for _, o := range outs {
		switch o.Kind {
		case event.Retract:
			retracts++
		case event.Insert:
			inserts++
			if len(o.CBT) != 2 || o.CBT[0] != 2 || o.CBT[1] != 3 {
				t.Fatalf("revived instance has wrong lineage: %v", o.CBT)
			}
		}
	}
	if retracts != 1 || inserts != 1 {
		t.Fatalf("want 1 retract + 1 revived insert, got %v", outs)
	}
}

func TestPatternOpRemovalOfBlockerRevives(t *testing.T) {
	// UNLESS(A, B, 5): B blocks; removing B revives the A output.
	op := NewPatternOp(UnlessExpr{A: typ("A", "a"), B: typ("B", "b"), W: 5}, SCMode{}, "out")
	op.Process(0, ev(1, "A", 0))
	op.Process(0, ev(2, "B", 3))
	// Remove the blocker while still within scope (an aligned removal,
	// arriving right after its insert, as monitor replay would deliver it).
	if outs := op.Process(0, event.NewRetract(2, "B", 3, 3, nil)); len(outs) != 0 {
		t.Fatalf("nothing should finalize before the window closes: %v", outs)
	}
	outs := op.Advance(20)
	if len(outs) != 1 || outs[0].Kind != event.Insert {
		t.Fatalf("removal of blocker must revive output: %v", outs)
	}
}

func TestTypesCollection(t *testing.T) {
	expr := UnlessExpr{
		A: SequenceExpr{Kids: []Expr{typ("INSTALL", "x"), typ("SHUTDOWN", "y")}, W: 10},
		B: typ("RESTART", "z"), W: 5,
	}
	ts := Types(expr)
	if len(ts) != 3 {
		t.Errorf("Types = %v", ts)
	}
}

func TestExprStrings(t *testing.T) {
	expr := UnlessExpr{
		A: SequenceExpr{Kids: []Expr{typ("INSTALL", "x"), typ("SHUTDOWN", "y")}, W: 10},
		B: typ("RESTART", "z"), W: 5,
	}
	s := expr.String()
	if s == "" {
		t.Fatal("empty String")
	}
	if expr.MaxScope() != 15 {
		t.Errorf("MaxScope = %v, want 15", expr.MaxScope())
	}
}

func TestSCModeParsersAndString(t *testing.T) {
	if s, err := ParseSelection("FIRST"); err != nil || s != SelectFirst {
		t.Error("ParseSelection FIRST")
	}
	if _, err := ParseSelection("bogus"); err == nil {
		t.Error("ParseSelection should reject bogus")
	}
	if c, err := ParseConsumption("consume"); err != nil || c != Consume {
		t.Error("ParseConsumption consume")
	}
	if _, err := ParseConsumption("bogus"); err == nil {
		t.Error("ParseConsumption should reject bogus")
	}
	if (SCMode{Sel: SelectLast, Cons: Consume}).String() != "sc(last,consume)" {
		t.Error("SCMode String")
	}
}
