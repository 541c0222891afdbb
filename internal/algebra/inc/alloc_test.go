//go:build !race

package inc

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/algebra"
	"repro/internal/event"
	"repro/internal/lang"
	"repro/internal/temporal"
)

// Allocation-regression tests: the tentpole claim of the interned-payload /
// per-group-commit design is that the incremental sequence hot path stays
// allocation-lean — a few allocations per event, not a few dozen. These
// ceilings pin that property in `go test ./...` itself, so an allocation
// regression fails the ordinary test run, not just the benchmark gate.
// The bounds sit ~1.5–3× above the measured steady state, loose enough
// for map rehash jitter across Go releases, tight enough to catch a
// return to per-delta allocation (a fresh-cache run measures ~29/event;
// the interned replay ~1.6). (Skipped under -race: instrumentation changes
// allocation counts.)

// allocSeqEvents builds a workload shaped like the sequence-ablation
// benchmark: the given types interleaved over a small key domain.
func allocSeqEvents(n int, types ...string) []event.Event {
	rng := rand.New(rand.NewSource(7))
	out := make([]event.Event, 0, n)
	vs := temporal.Time(0)
	for i := 0; i < n; i++ {
		vs += temporal.Time(rng.Intn(3) + 1)
		out = append(out, event.NewInsert(event.ID(i+1), types[i%len(types)], vs,
			temporal.Infinity, event.Payload{
				"Machine_Id": fmt.Sprintf("m%d", rng.Intn(4)),
			}))
	}
	return out
}

func allocSeqExpr() algebra.Expr {
	return algebra.FilterExpr{
		Kid: algebra.SequenceExpr{Kids: []algebra.Expr{
			algebra.TypeExpr{Type: "INSTALL", Alias: "x"},
			algebra.TypeExpr{Type: "SHUTDOWN", Alias: "y"},
		}, W: 64},
		Pred: func(p event.Payload) bool {
			return event.ValueEqual(p["x.Machine_Id"], p["y.Machine_Id"])
		},
	}
}

// measureSeqHotPath reports allocs/event on the hot path proper: the
// replay the monitor's checkpoint operator performs. Every event was
// already derived once by the live operator, so the interning caches
// (shared through Clone) serve every leaf payload and combined composite.
// Warm the caches through one full pass, then measure replays by clones
// taken from the pre-stream snapshot — each run sees warmed caches and
// empty state, exactly like the checkpoint chasing the live operator.
func measureSeqHotPath(base *Op, events []event.Event) float64 {
	snapshot := base.Clone()
	run := func(op *Op) {
		for i, e := range events {
			op.Process(0, e)
			if i%16 == 15 {
				op.Advance(e.V.Start)
			}
		}
	}
	run(base)
	return testing.AllocsPerRun(5, func() {
		run(snapshot.Clone().(*Op))
	}) / float64(len(events))
}

func TestAllocsSequenceHotPath(t *testing.T) {
	op := NewOp(allocSeqExpr(), algebra.SCMode{Cons: algebra.Consume}, "Pairs")
	perEvent := measureSeqHotPath(op, allocSeqEvents(400, "INSTALL", "SHUTDOWN"))
	const ceiling = 1.5 // measured 0.73 (1.58 while every output copied its payload, 5.84 while the join kept a uses index)
	t.Logf("incremental sequence hot path: %.2f allocs/event (ceiling %.1f)", perEvent, ceiling)
	if perEvent > ceiling {
		t.Fatalf("incremental sequence hot path allocates %.2f/event, above the pinned ceiling %.1f — the interned-payload/scratch-delta discipline regressed", perEvent, ceiling)
	}
}

// TestAllocsJournalMark pins the Versioned capture cost: with the undo
// journal on, Mark is an O(1) append, never O(state). At several hundred
// stored events a regression back to snapshot-by-copy would show up as
// hundreds of allocations per mark; the ceiling admits only the amortized
// growth of the journal's marks.
func TestAllocsJournalMark(t *testing.T) {
	mode := algebra.SCMode{Cons: algebra.Consume}
	op := NewOp(allocSeqExpr(), mode, "Pairs")
	op.Mark() // turn the journal on before state accumulates
	for i, e := range allocSeqEvents(400, "INSTALL", "SHUTDOWN") {
		op.Process(0, e)
		if i%16 == 15 {
			op.Advance(e.V.Start)
		}
	}
	perMark := testing.AllocsPerRun(200, func() {
		op.Mark()
	})
	const ceiling = 3.0
	t.Logf("journal mark: %.2f allocs/mark at state size %d (ceiling %.0f)",
		perMark, op.StateSize(), ceiling)
	if perMark > ceiling {
		t.Fatalf("Mark allocates %.2f per call at state size %d, above the pinned ceiling %.0f — checkpoint capture is no longer O(changed)", perMark, op.StateSize(), ceiling)
	}
}

// TestAllocsKeyedSequenceHotPath pins the same replay path for §3.1's query
// as the planner builds it: lang's analysis supplies the expression — with
// the *compiled* CorrelationKey(Machine_Id, EQUAL) filter and correlation
// predicates, not a hand-written stand-in — the SC mode and the pushdown
// attribute (windows scaled to this stream's clock). With string keys this
// path used to cost several times the flat one: every pos/corr call built a
// []event.Value and every key extraction re-boxed the string it was handed.
// Now the predicates stream over the payload and the key, resolved once
// when the match is interned, travels beside it (key.go).
func TestAllocsKeyedSequenceHotPath(t *testing.T) {
	an, err := lang.Compile(`EVENT Pairs
WHEN UNLESS(SEQUENCE(INSTALL x, SHUTDOWN AS y, 64), RESTART AS z, 8)
WHERE CorrelationKey(Machine_Id, EQUAL) SC(each, consume)`)
	if err != nil {
		t.Fatal(err)
	}
	op := NewOp(an.Expr, an.Mode, an.Query.Name, WithJoinKey(an.PushKeyAttr))
	perEvent := measureSeqHotPath(op, allocSeqEvents(600, "INSTALL", "SHUTDOWN", "RESTART"))
	const ceiling = 2.5 // measured 1.14 (1.50 while every output copied its payload, 2.90 with a uses index and separately allocated re-headed forms; 11.87 before the key was carried)
	t.Logf("keyed sequence hot path: %.2f allocs/event (ceiling %.1f)", perEvent, ceiling)
	if perEvent > ceiling {
		t.Fatalf("keyed sequence hot path allocates %.2f/event, above the pinned ceiling %.1f — the key-indexed join path regressed", perEvent, ceiling)
	}
}

// TestAllocsInternedPayloads pins the payload table's promise (payload.go):
// a repeated payload costs no map. A leaf deriving an event whose content it
// has seen allocates nothing; a composite of interned parts allocates only
// the match-and-lineage block every composite costs.
func TestAllocsInternedPayloads(t *testing.T) {
	op := NewOp(algebra.SequenceExpr{Kids: []algebra.Expr{
		algebra.TypeExpr{Type: "INSTALL", Alias: "x"},
		algebra.TypeExpr{Type: "SHUTDOWN", Alias: "y"},
	}, W: 64}, algebra.SCMode{}, "Pairs", WithJoinKey("Machine_Id"))
	raw := event.Payload{"Machine_Id": "m017", "Load": 0.5, "Seq": int64(9)}
	var x, y keyedMatch
	e := event.NewInsert(1, "INSTALL", 0, temporal.Infinity, raw)
	s := event.NewInsert(2, "SHUTDOWN", 1, temporal.Infinity, raw)
	kx, ky := op.sh.recs.kinds[0], op.sh.recs.kinds[1]
	kx.derive(&x, &e, nil)
	ky.derive(&y, &s, nil)
	leaf := testing.AllocsPerRun(200, func() { kx.derive(&x, &e, nil) })

	comb := op.root.(*seqNode).comb
	parts := []*keyedMatch{&x, &y}
	comb.combined(2, parts, 64)
	delete(comb.m, 2)
	composite := testing.AllocsPerRun(200, func() {
		comb.combined(2, parts, 64)
		delete(comb.m, 2)
	})

	// Under an UNLESS the composite's allocation also holds the slot its
	// re-headed form is derived into: the pair is still one allocation.
	un := NewOp(algebra.UnlessExpr{A: op.Expr, B: algebra.TypeExpr{Type: "RESTART", Alias: "z"}, W: 8},
		algebra.SCMode{}, "Missed", WithJoinKey("Machine_Id"))
	neg := un.root.(*negNode)
	ucomb := neg.pos.(*seqNode).comb
	var a *keyedMatch
	reheaded := testing.AllocsPerRun(200, func() {
		a = ucomb.combined(2, parts, 64)
		neg.interval(a)
		delete(ucomb.m, 2)
	})

	const ceilLeaf, ceilComposite = 0.0, 1.0
	t.Logf("interned payloads: leaf %.2f allocs/match (ceiling %.0f), composite %.2f allocs/match (ceiling %.0f), composite with its re-headed form %.2f (ceiling %.0f)",
		leaf, ceilLeaf, composite, ceilComposite, reheaded, ceilComposite)
	if x.pid == 0 || leaf > ceilLeaf || composite > ceilComposite {
		t.Fatalf("a repeated payload allocates: leaf %.2f (ceiling %.0f), composite %.2f (ceiling %.0f), pid %d — the payload table no longer interns",
			leaf, ceilLeaf, composite, ceilComposite, x.pid)
	}
	if reheaded > ceilComposite || neg.out(a) != a.up || !a.reheaded() || a.up.m.ID == a.m.ID {
		t.Fatalf("a composite under UNLESS and its re-headed form cost %.2f allocations (ceiling %.0f), or the form is not derived into the composite's slot",
			reheaded, ceilComposite)
	}
}

// TestAllocsMatchBlockSizes pins the sizes of the blocks a match lives in,
// each at or just under a runtime size class: one more field in keyedMatch
// would push the leaf block (an event's record and its first leaf match)
// from the 176-byte class into the 192-byte one for every event, and a
// composite with its re-headed slot past 320 bytes.
func TestAllocsMatchBlockSizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes pinned for 64-bit platforms")
	}
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"keyedMatch", unsafe.Sizeof(keyedMatch{}), 136},
		{"leaf block", unsafe.Sizeof(evRec{}) + unsafe.Sizeof(leafMatch{}), 176}, // recCache.of's allocation
	} {
		t.Logf("%s: %d bytes (ceiling %d)", c.name, c.got, c.want)
		if c.got > c.want {
			t.Errorf("%s is %d bytes, above the pinned %d — it crossed into a larger size class", c.name, c.got, c.want)
		}
	}
}

// TestAllocsKeyResolution pins key resolution itself at zero allocations
// for every bucketable value type: the key is a plain struct (no boxing of
// the canonical float64, the string shares the payload's data).
func TestAllocsKeyResolution(t *testing.T) {
	cfg := newKeyCfg("Machine_Id")
	for _, v := range []event.Value{"m017", int64(1 << 40), 2.5, true} {
		p := event.Payload{"x.Machine_Id": v, "y.Machine_Id": v, "x.i": int64(1)}
		var sink event.Key
		allocs := testing.AllocsPerRun(200, func() { sink = cfg.of(p) })
		t.Logf("key resolution over %T: %.2f allocs (ceiling 0)", v, allocs)
		if allocs != 0 || !sink.Def() {
			t.Fatalf("resolving a %T key: %.2f allocs, definite=%v; want 0 and definite", v, allocs, sink.Def())
		}
	}
}
