package inc

import (
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/event"
	"repro/internal/temporal"
)

func ev(id event.ID, t string, vs temporal.Time, fields ...any) event.Event {
	p := event.Payload{}
	for i := 0; i+1 < len(fields); i += 2 {
		p[fields[i].(string)] = fields[i+1]
	}
	return event.NewInsert(id, t, vs, temporal.Infinity, p)
}

func inserts(evs []event.Event) int {
	n := 0
	for _, e := range evs {
		if e.Kind == event.Insert {
			n++
		}
	}
	return n
}

func TestOpSequenceBasics(t *testing.T) {
	op := NewOp(algebra.SequenceExpr{Kids: []algebra.Expr{typ("A", "a"), typ("B", "b")}, W: 10},
		algebra.SCMode{}, "out")
	op.Process(0, ev(1, "A", 0, "i", int64(1)))
	outs := op.Process(0, ev(2, "B", 5, "i", int64(2)))
	if len(outs) != 1 {
		t.Fatalf("expected one detection, got %v", outs)
	}
	if outs[0].V != temporal.NewInterval(5, 10) {
		t.Errorf("V = %v, want [5, 10)", outs[0].V)
	}
	if len(outs[0].CBT) != 2 || outs[0].CBT[0] != 1 || outs[0].CBT[1] != 2 {
		t.Errorf("lineage: %v", outs[0].CBT)
	}
	if outs[0].Payload["a.i"] != int64(1) || outs[0].Payload["b.i"] != int64(2) {
		t.Errorf("payload not alias-namespaced: %v", outs[0].Payload)
	}
}

func TestOpUnlessHoldsUntilWindowCloses(t *testing.T) {
	op := NewOp(algebra.UnlessExpr{A: typ("A", "a"), B: typ("B", "b"), W: 5},
		algebra.SCMode{}, "out")
	if outs := op.Process(0, ev(1, "A", 0)); len(outs) != 0 {
		t.Fatalf("UNLESS must not emit before its window closes: %v", outs)
	}
	// A blocking B retracts the pending candidate before it ever emits.
	op.Process(0, ev(2, "B", 3))
	if outs := op.Advance(20); len(outs) != 0 {
		t.Fatalf("blocked candidate emitted: %v", outs)
	}
	// An unblocked A emits exactly when the frontier covers Vs+w.
	op.Process(0, ev(3, "A", 20))
	if outs := op.Advance(24); len(outs) != 0 {
		t.Fatalf("premature emission: %v", outs)
	}
	outs := op.Advance(25)
	if len(outs) != 1 || outs[0].V != temporal.NewInterval(20, 25) {
		t.Fatalf("expected the A@20 detection at frontier 25: %v", outs)
	}
}

func TestOpBlockerRemovalRevives(t *testing.T) {
	op := NewOp(algebra.UnlessExpr{A: typ("A", "a"), B: typ("B", "b"), W: 5},
		algebra.SCMode{}, "out")
	op.Process(0, ev(1, "A", 0))
	op.Process(0, ev(2, "B", 3))
	if outs := op.Process(0, event.NewRetract(2, "B", 3, 3, nil)); len(outs) != 0 {
		t.Fatalf("nothing should finalize before the window closes: %v", outs)
	}
	outs := op.Advance(20)
	if inserts(outs) != 1 {
		t.Fatalf("removal of blocker must revive output: %v", outs)
	}
}

func TestOpConsumedContributorRevival(t *testing.T) {
	op := NewOp(algebra.SequenceExpr{Kids: []algebra.Expr{typ("A", "a"), typ("B", "b")}, W: 10},
		algebra.SCMode{Cons: algebra.Consume}, "out")
	op.Process(0, ev(1, "A", 0))
	op.Process(0, ev(2, "A", 2))
	if outs := op.Process(0, ev(3, "B", 5)); inserts(outs) != 1 {
		t.Fatalf("consume mode must commit one pair: %v", outs)
	}
	outs := op.Process(0, event.NewRetract(1, "A", 0, 0, nil))
	var revived bool
	for _, o := range outs {
		if o.Kind == event.Insert && len(o.CBT) == 2 && o.CBT[0] == 2 && o.CBT[1] == 3 {
			revived = true
		}
	}
	if !revived {
		t.Fatalf("un-consumed B must revive the blocked pair: %v", outs)
	}
}

func TestOpScopePruning(t *testing.T) {
	op := NewOp(algebra.SequenceExpr{Kids: []algebra.Expr{typ("A", ""), typ("B", "")}, W: 10},
		algebra.SCMode{}, "out")
	for i := 0; i < 100; i++ {
		op.Process(0, ev(event.ID(i+1), "A", temporal.Time(i*5)))
		op.Advance(temporal.Time(i * 5))
	}
	if op.StateSize() > 10 {
		t.Errorf("state = %d, scope pruning ineffective", op.StateSize())
	}
	// The tree's internal stores must shrink too, not only the driver maps.
	seq := op.root.(*seqNode)
	leaf := seq.kids[0].(*leafNode)
	if len(leaf.live) > 10 || len(seq.lists[0].wild.ms) > 10 {
		t.Errorf("tree state leaked: leaf=%d list=%d", len(leaf.live), len(seq.lists[0].wild.ms))
	}
}

func TestOpMatureFastPathSkipsIdleEvents(t *testing.T) {
	op := NewOp(algebra.UnlessExpr{A: typ("A", "a"), B: typ("B", "b"), W: 1000},
		algebra.SCMode{}, "out")
	op.Process(0, ev(1, "A", 0))
	// A long run of far-from-final events must not trigger full passes;
	// observe indirectly: pending survives, nothing emits, and the op
	// still answers correctly once the window closes.
	for i := 0; i < 50; i++ {
		if outs := op.Process(0, ev(event.ID(i+10), "X", temporal.Time(i+1))); len(outs) != 0 {
			t.Fatalf("spurious emission: %v", outs)
		}
	}
	if outs := op.Advance(1000); inserts(outs) != 1 {
		t.Fatalf("want the A@0 detection at frontier 1000: %v", outs)
	}
}

func TestOpNameAndGuarantee(t *testing.T) {
	expr := algebra.UnlessExpr{A: typ("A", "a"), B: typ("B", "b"), W: 5}
	op := NewOp(expr, algebra.SCMode{}, "out")
	if !strings.HasPrefix(op.Name(), "incpattern:") {
		t.Errorf("Name = %q", op.Name())
	}
	if op.Arity() != 1 {
		t.Errorf("Arity = %d", op.Arity())
	}
	if g := op.OutputGuarantee(100); g != temporal.Time(100)-temporal.Time(expr.MaxScope()) {
		t.Errorf("OutputGuarantee(100) = %v", g)
	}
	if g := op.OutputGuarantee(temporal.Infinity); !g.IsInfinite() {
		t.Errorf("OutputGuarantee(inf) = %v", g)
	}
}

func TestSupportedCoversGrammarOnly(t *testing.T) {
	for name, expr := range exprZoo() {
		if !Supported(expr) {
			t.Errorf("%s unsupported", name)
		}
	}
	if Supported(fakeExpr{}) {
		t.Error("unknown Expr kinds must be unsupported")
	}
	if Supported(algebra.SequenceExpr{Kids: []algebra.Expr{fakeExpr{}}, W: 1}) {
		t.Error("unsupported kids must poison the parent")
	}
}

type fakeExpr struct{}

func (fakeExpr) MaxScope() temporal.Duration { return 1 }
func (fakeExpr) String() string              { return "fake" }
