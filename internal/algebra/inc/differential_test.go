package inc

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/consistency"
	"repro/internal/delivery"
	"repro/internal/event"
	"repro/internal/operators"
	"repro/internal/stream"
	"repro/internal/temporal"
)

// The randomized differential suite: every Expr operator × SC mode ×
// disorder pattern driven through the incremental Op and through the
// frozen semi-naive oracle (algebra.PatternOp), asserting item-for-item
// equality — header, CBT, payload, emission order, Advance order tags and
// state counts — including full-removal retraction streams and the
// monitor's clone/replay path.

func typ(name, alias string) algebra.Expr { return algebra.TypeExpr{Type: name, Alias: alias} }

func corrOn(field string) algebra.CorrPred {
	posKeys := []string{"a." + field, "x." + field}
	negKeys := []string{"b." + field, "c." + field, "z." + field}
	return func(pos, neg event.Payload) bool {
		var pv, nv event.Value
		for _, k := range posKeys {
			if v, ok := pos[k]; ok {
				pv = v
				break
			}
		}
		for _, k := range negKeys {
			if v, ok := neg[k]; ok {
				nv = v
				break
			}
		}
		return event.ValueEqual(pv, nv)
	}
}

// exprZoo covers the full §3.3 grammar, flat and nested.
func exprZoo() map[string]algebra.Expr {
	seqAB := algebra.SequenceExpr{Kids: []algebra.Expr{typ("A", "a"), typ("B", "b")}, W: 12}
	return map[string]algebra.Expr{
		"type":    typ("A", "a"),
		"seq":     seqAB,
		"seq3":    algebra.SequenceExpr{Kids: []algebra.Expr{typ("A", "a"), typ("B", "b"), typ("C", "c")}, W: 16},
		"seq-dup": algebra.SequenceExpr{Kids: []algebra.Expr{typ("A", "a"), typ("A", "a2")}, W: 9},
		"atleast": algebra.AtLeastExpr{N: 2,
			Kids: []algebra.Expr{typ("A", ""), typ("B", ""), typ("C", "")}, W: 14},
		"all":    algebra.All(15, typ("A", ""), typ("B", ""), typ("C", "")),
		"any":    algebra.Any(typ("A", ""), typ("B", "")),
		"atmost": algebra.AtMostExpr{N: 2, Kids: []algebra.Expr{typ("A", "")}, W: 10},
		"atmost2": algebra.AtMostExpr{N: 1,
			Kids: []algebra.Expr{typ("A", "a"), typ("B", "b")}, W: 8},
		"unless":      algebra.UnlessExpr{A: typ("A", "a"), B: typ("B", "b"), W: 7},
		"unless-corr": algebra.UnlessExpr{A: typ("A", "a"), B: typ("B", "b"), W: 9, Corr: corrOn("k")},
		"unless-seq":  algebra.UnlessExpr{A: seqAB, B: typ("C", "c"), W: 6},
		"unless-prime": algebra.UnlessPrimeExpr{
			A: algebra.SequenceExpr{Kids: []algebra.Expr{typ("A", "a"), typ("B", "b")}, W: 10},
			B: typ("C", "c"), N: 2, W: 6},
		"not": algebra.NotExpr{Neg: typ("C", "c"),
			Seq: algebra.SequenceExpr{Kids: []algebra.Expr{typ("A", "a"), typ("B", "b")}, W: 9}},
		"cancel": algebra.CancelWhenExpr{
			E:      algebra.SequenceExpr{Kids: []algebra.Expr{typ("A", "a"), typ("B", "b")}, W: 9},
			Cancel: typ("X", "x")},
		"filter-seq": algebra.FilterExpr{
			Kid: seqAB,
			Pred: func(p event.Payload) bool {
				return event.ValueEqual(p["a.k"], p["b.k"])
			},
		},
		// UNLESS over FILTER over SEQUENCE: the composites' re-headed slot
		// is reserved through the filter.
		"cidr07": algebra.UnlessExpr{
			A: algebra.FilterExpr{
				Kid: algebra.SequenceExpr{Kids: []algebra.Expr{typ("A", "x"), typ("B", "y")}, W: 20},
				Pred: func(p event.Payload) bool {
					return event.ValueEqual(p["x.k"], p["y.k"])
				},
			},
			B: typ("C", "z"), W: 5, Corr: corrOn("k"),
		},
		// The shapes around re-headed slots and retraction by re-enumeration.
		// A duplicate position derives one composite from two position
		// subsets (refs > 1), and a retraction must give back both.
		"atleast-dup": algebra.AtLeastExpr{N: 2,
			Kids: []algebra.Expr{typ("A", ""), typ("A", ""), typ("B", "")}, W: 12},
		// One event leaves both A positions in one call, so only here — a
		// SEQUENCE match a blocker retracts from one position alone — can a
		// composite lose one of its derivations and keep the other.
		"atleast-dup-not": algebra.AtLeastExpr{N: 2, Kids: []algebra.Expr{
			algebra.SequenceExpr{Kids: []algebra.Expr{typ("A", "a"), typ("B", "b")}, W: 6},
			algebra.NotExpr{Neg: typ("C", "c"),
				Seq: algebra.SequenceExpr{Kids: []algebra.Expr{typ("A", "a"), typ("B", "b")}, W: 6}},
			typ("X", "x")}, W: 12},
		"atmost-seq": algebra.AtMostExpr{N: 1, Kids: []algebra.Expr{seqAB}, W: 10},
		// The anchor index lies beyond every composite: each one reserves a
		// slot that is never filled.
		"unless-prime-short": algebra.UnlessPrimeExpr{A: seqAB, B: typ("C", "c"), N: 3, W: 6},
		// Some composites have the anchor (a SEQUENCE under the ANY), some
		// lack it (a lone C): filled and never-filled slots in one node.
		"unless-prime-any": algebra.UnlessPrimeExpr{
			A: algebra.Any(algebra.SequenceExpr{Kids: []algebra.Expr{typ("A", "a"), typ("B", "b")}, W: 8}, typ("C", "c")),
			B: typ("X", "x"), N: 2, W: 6},
		"unless-not": algebra.UnlessExpr{
			A: algebra.NotExpr{Neg: typ("C", "c"),
				Seq: algebra.SequenceExpr{Kids: []algebra.Expr{typ("A", "a"), typ("B", "b")}, W: 9}},
			B: typ("X", "x"), W: 6},
	}
}

func scModes() []algebra.SCMode {
	return []algebra.SCMode{
		{},
		{Cons: algebra.Consume},
		{Sel: algebra.SelectFirst},
		{Sel: algebra.SelectLast, Cons: algebra.Consume},
	}
}

// keyDist controls the correlation-key distribution of a generated stream:
// how many distinct keys, how concentrated the traffic is on the first one
// (hot-key skew), and how often an event omits the attribute entirely (the
// wild path of the key-indexed stores).
type keyDist struct {
	name    string
	keys    int
	hot     float64 // probability of drawing key 0 instead of uniform
	missing float64 // probability of omitting the "k" attribute
	dotted  float64 // probability of writing "sub.k" instead of "k"
	exotic  float64 // probability of drawing the value from exoticValues
}

// exoticValues are the key values on which canonicalization does work:
// NaN (never self-equal: must stay wild), the same number under three
// dynamic types (one bucket), a fraction, and a bool.
func (keyDist) exoticValues() []event.Value {
	return []event.Value{math.NaN(), int64(3), float64(3), 3, 2.5, true}
}

// keyDists is the distribution grid the key-indexed join path and its
// pruning seams are stressed across: degenerate single-key streams (every
// event lands in one bucket), the historical small domain, many distinct
// keys (bucket churn and empty-bucket pruning), hot-key skew (one giant
// bucket among many small ones) and streams with events missing the
// attribute (wild-list interaction with every bucket).
func keyDists() []keyDist {
	return []keyDist{
		{name: "single-key", keys: 1},
		{name: "few-keys", keys: 3},
		{name: "many-keys", keys: 24},
		{name: "hot-skew", keys: 16, hot: 0.8},
		{name: "sparse-attr", keys: 3, missing: 0.3},
		// Dotted payload attributes ("sub.k" namespaces to "a.sub.k",
		// which the CorrelationKey suffix rule inspects but an exact
		// {a.k = b.k} lookup does not): such matches must stay wild, or
		// the index would key on a value pairwise predicates never
		// compare — the seam TestKeyedPairwiseExactLookup pins directly.
		{name: "dotted-attr", keys: 3, dotted: 0.3},
		// Mixed dynamic types under one attribute: int64(3), float64(3) and
		// int(3) must share a bucket the way event.ValueEqual equates them,
		// NaN must stay wild, and none of it may cost the carried key its
		// equivalence with keyCfg.of (carriedkey_test.go).
		{name: "exotic-values", keys: 3, exotic: 0.4},
	}
}

// genDistEvents produces a Sync-ordered stream of primitive inserts over
// the zoo's type alphabet with the given key distribution and deliberate
// timestamp collisions.
func genDistEvents(rng *rand.Rand, n int, d keyDist) []event.Event {
	types := []string{"A", "B", "C", "X"}
	var out []event.Event
	vs := temporal.Time(0)
	for i := 0; i < n; i++ {
		if rng.Intn(4) > 0 { // 1 in 4 events shares the previous timestamp
			vs += temporal.Time(rng.Intn(4) + 1)
		}
		p := event.Payload{"i": int64(i)}
		if d.missing == 0 || rng.Float64() >= d.missing {
			key := 0
			if d.hot == 0 || rng.Float64() >= d.hot {
				key = rng.Intn(d.keys)
			}
			name := "k"
			if d.dotted > 0 && rng.Float64() < d.dotted {
				name = "sub.k"
			}
			p[name] = fmt.Sprintf("k%d", key)
			if d.exotic > 0 && rng.Float64() < d.exotic {
				p[name] = d.exoticValues()[rng.Intn(len(d.exoticValues()))]
			}
		}
		out = append(out, event.NewInsert(event.ID(i+1), types[rng.Intn(len(types))], vs,
			temporal.Infinity, p))
	}
	return out
}

// genEvents is the historical generator: the small three-key domain (so
// correlation predicates both pass and fail), every event carrying the
// attribute.
func genEvents(rng *rand.Rand, n int) []event.Event {
	return genDistEvents(rng, n, keyDist{keys: 3})
}

func eventsEqual(a, b []event.Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Identical(b[i]) {
			return false
		}
	}
	return true
}

// checkStep compares one Process/Advance step of the two implementations,
// including the Advance order tags the sharded merge depends on.
func checkStep(t *testing.T, label string, oracle *algebra.PatternOp, fast *Op,
	got, want []event.Event) {
	t.Helper()
	if !eventsEqual(got, want) {
		t.Fatalf("%s: output diverged\n oracle: %v\n    inc: %v", label, want, got)
	}
	for i := range got {
		if got[i].Kind != event.Insert {
			continue
		}
		ok := oracle.AppendAdvanceKey(nil, want[i])
		ik := fast.AppendAdvanceKey(nil, got[i])
		if !bytes.Equal(ok, ik) {
			t.Fatalf("%s: advance key diverged for %v: oracle %x inc %x", label, got[i], ok, ik)
		}
	}
	if oracle.StateSize() != fast.StateSize() {
		t.Fatalf("%s: state size diverged: oracle %d inc %d", label, oracle.StateSize(), fast.StateSize())
	}
}

// driveAligned pushes one aligned random script — inserts, interleaved
// advances, full removals (of plain, blocking, and consumed contributors)
// and mid-stream clone swaps the way the monitor's checkpointing does —
// through the oracle and the incremental op (built with opts), requiring
// identical behavior at every step.
func driveAligned(t *testing.T, name string, expr algebra.Expr, mode algebra.SCMode,
	seed int64, events []event.Event, rng *rand.Rand, opts ...OpOption) {
	t.Helper()
	oracle := algebra.NewPatternOp(expr, mode, "out")
	fast := NewOp(expr, mode, "out", opts...)
	watchKeys(t, fast)
	label := func(step string, i int) string {
		return fmt.Sprintf("%s %v seed=%d %s %d", name, mode, seed, step, i)
	}

	lastAdvance := temporal.MinTime
	var removable []event.Event
	for i, e := range events {
		og := oracle.Process(0, e)
		ig := fast.Process(0, e)
		checkStep(t, label("push", i), oracle, fast, ig, og)
		removable = append(removable, e)

		// Full removals, aligned: only events whose occurrence
		// is at or after the last advance may still be removed.
		if rng.Intn(5) == 0 && len(removable) > 0 {
			j := rng.Intn(len(removable))
			victim := removable[j]
			if victim.V.Start >= lastAdvance {
				removable = append(removable[:j], removable[j+1:]...)
				r := event.NewRetract(victim.ID, victim.Type, victim.V.Start, victim.V.Start, nil)
				og = oracle.Process(0, r)
				ig = fast.Process(0, r)
				checkStep(t, label("remove", i), oracle, fast, ig, og)
			}
		}

		if rng.Intn(4) == 0 {
			adv := e.V.Start.Add(temporal.Duration(rng.Intn(8)))
			if adv > lastAdvance {
				lastAdvance = adv
			}
			og = oracle.Advance(adv)
			ig = fast.Advance(adv)
			checkStep(t, label("advance", i), oracle, fast, ig, og)
		}

		// Swap in clones mid-stream, as monitor checkpoints do.
		if rng.Intn(10) == 0 {
			oracle = oracle.Clone().(*algebra.PatternOp)
			fast = fast.Clone().(*Op)
		}
	}
	og := oracle.Advance(temporal.Infinity)
	ig := fast.Advance(temporal.Infinity)
	checkStep(t, label("finish", 0), oracle, fast, ig, og)
}

// TestDifferentialAligned drives both implementations with identical
// aligned input across the operator zoo.
func TestDifferentialAligned(t *testing.T) {
	for name, expr := range exprZoo() {
		if !Supported(expr) {
			t.Fatalf("%s: expression not supported by the matcher tree", name)
		}
		for mi, mode := range scModes() {
			for trial := 0; trial < 6; trial++ {
				seed := int64(1000*mi + 10*trial + 1)
				rng := rand.New(rand.NewSource(seed))
				events := genEvents(rng, 40)
				driveAligned(t, name, expr, mode, seed, events, rng)
			}
		}
	}
}

// TestDifferentialUnderMonitor wraps both implementations in consistency
// monitors and replays disordered physical streams through them — the
// straggler rollback/replay path exercises Clone, remove-at-replay and the
// Advance order keys. Outputs and monitor metrics must match exactly.
func TestDifferentialUnderMonitor(t *testing.T) {
	specs := []struct {
		name string
		spec consistency.Spec
	}{
		{"strong", consistency.Strong()},
		{"middle", consistency.Middle()},
	}
	deliveries := []struct {
		name string
		cfg  delivery.Config
	}{
		{"ordered", delivery.Ordered(8)},
		{"disordered", delivery.Disordered(7, 20, 10, 0.25)},
		{"chaotic", delivery.Disordered(11, 40, 25, 0.5)},
	}
	for name, expr := range exprZoo() {
		for _, mode := range scModes() {
			for _, sp := range specs {
				for _, dl := range deliveries {
					rng := rand.New(rand.NewSource(99))
					src := stream.Stream(genEvents(rng, 60))
					delivered := delivery.Deliver(src, dl.cfg)

					oracle := algebra.NewPatternOp(expr, mode, "out")
					fast := NewOp(expr, mode, "out")
					watchKeys(t, fast)
					oOut, oMet := consistency.RunStreams(oracle, sp.spec, delivered)
					iOut, iMet := consistency.RunStreams(fast, sp.spec, delivered)
					if !eventsEqual(iOut, oOut) {
						t.Fatalf("%s %v %s/%s: monitored output diverged (%d vs %d items)",
							name, mode, sp.name, dl.name, len(iOut), len(oOut))
					}
					if oMet != iMet {
						t.Fatalf("%s %v %s/%s: metrics diverged\n oracle: %+v\n    inc: %+v",
							name, mode, sp.name, dl.name, oMet, iMet)
					}
				}
			}
		}
	}
}

// TestDifferentialStragglerBlocker covers contract-violating input the
// oracle tolerates: a blocker insert arriving after the window it blocks
// was already matured and selected over. The oracle's fresh re-derivation
// then emits the freed selection sibling; the incremental op must too.
func TestDifferentialStragglerBlocker(t *testing.T) {
	expr := algebra.UnlessExpr{A: typ("A", "a"), B: typ("B", "b"), W: 7, Corr: corrOn("k")}
	for _, mode := range scModes() {
		oracle := algebra.NewPatternOp(expr, mode, "out")
		fast := NewOp(expr, mode, "out")
		step := func(label string, og, ig []event.Event) {
			checkStep(t, fmt.Sprintf("%v %s", mode, label), oracle, fast, ig, og)
		}
		a1 := ev(1, "A", 0, "k", "k1")
		a2 := ev(2, "A", 0, "k", "k2")
		step("a1", oracle.Process(0, a1), fast.Process(0, a1))
		step("a2", oracle.Process(0, a2), fast.Process(0, a2))
		// Both candidates mature at 7; selection (if any) picks one.
		step("mature", oracle.Advance(7), fast.Advance(7))
		// Straggler blocker inside the already-matured window, correlated
		// with the k2 candidate only.
		b := ev(3, "B", 3, "k", "k2")
		step("straggler", oracle.Process(0, b), fast.Process(0, b))
		step("settle", oracle.Advance(8), fast.Advance(8))
		step("finish", oracle.Advance(temporal.Infinity), fast.Advance(temporal.Infinity))
	}
}

// TestDifferentialRemovalStorm removes *every* inserted event (in random
// order among the still-aligned suffix) so retraction cascades, un-consume
// revival and re-derivation get dense coverage — unkeyed over exprZoo and
// keyed over keyedZoo × every key distribution (wild matches bridging two
// definite keys are where a retraction could miss a composite). Each storm
// runs twice from one journal mark, in two orders, rolled back between.
func TestDifferentialRemovalStorm(t *testing.T) {
	for name, expr := range exprZoo() {
		for _, mode := range scModes() {
			rng := rand.New(rand.NewSource(5))
			driveStorm(t, name, expr, mode, genEvents(rng, 24), rng)
		}
	}
	for name, expr := range keyedZoo() {
		for _, mode := range scModes() {
			for _, d := range keyDists() {
				rng := rand.New(rand.NewSource(6))
				driveStorm(t, name+"/"+d.name, expr, mode, genDistEvents(rng, 24, d), rng, WithJoinKey("k"))
			}
		}
	}
}

func driveStorm(t *testing.T, name string, expr algebra.Expr, mode algebra.SCMode,
	events []event.Event, rng *rand.Rand, opts ...OpOption) {
	t.Helper()
	oracle := algebra.NewPatternOp(expr, mode, "out")
	fast := NewOp(expr, mode, "out", opts...)
	fast.Mark() // journal every mutation below
	for i, e := range events {
		og := oracle.Process(0, e)
		ig := fast.Process(0, e)
		checkStep(t, fmt.Sprintf("%s %v push %d", name, mode, i), oracle, fast, ig, og)
	}
	full, frozen := fast.Mark(), oracle.Clone()
	for round := range 2 {
		if round > 0 {
			if !fast.Rollback(full) {
				t.Fatalf("%s %v: rollback to the pre-storm mark refused", name, mode)
			}
			oracle = frozen.Clone().(*algebra.PatternOp)
			checkStep(t, fmt.Sprintf("%s %v storm-rollback", name, mode), oracle, fast, nil, nil)
		}
		// No advances were issued, so every event is still removable.
		for _, j := range rng.Perm(len(events)) {
			v := events[j]
			r := event.NewRetract(v.ID, v.Type, v.V.Start, v.V.Start, nil)
			og := oracle.Process(0, r)
			ig := fast.Process(0, r)
			checkStep(t, fmt.Sprintf("%s %v storm %d remove %d", name, mode, round, j), oracle, fast, ig, og)
		}
		if n := fast.pending.size(); n != 0 {
			t.Fatalf("%s %v: %d pending matches survived a full removal storm", name, mode, n)
		}
		if n := treeHeld(fast.root); n != 0 {
			t.Fatalf("%s %v: the matcher tree still holds %d entries after a full removal storm", name, mode, n)
		}
	}
	og := oracle.Advance(temporal.Infinity)
	ig := fast.Advance(temporal.Infinity)
	checkStep(t, fmt.Sprintf("%s %v storm-finish", name, mode), oracle, fast, ig, og)
}

// TestAtLeastRetractsOneDerivation pins ATLEAST's reference counts: a
// straggler blocker retracts the SEQUENCE match from the NOT position
// only, so the composite loses one of its two derivations and must stay
// live through the other, then go with the last one. An emitted composite
// leaving the pending set early is invisible in the output, so this reads
// the node's state. (Under consumption the composite's emission would take
// its contributors out of the tree first.)
func TestAtLeastRetractsOneDerivation(t *testing.T) {
	expr := exprZoo()["atleast-dup-not"]
	for _, mode := range []algebra.SCMode{{}, {Sel: algebra.SelectFirst}} {
		oracle := algebra.NewPatternOp(expr, mode, "out")
		fast := NewOp(expr, mode, "out")
		at := fast.root.(*atLeastNode)
		step := func(label string, e event.Event, outs, refs int) {
			checkStep(t, fmt.Sprintf("%v %s", mode, label), oracle, fast, fast.Process(0, e), oracle.Process(0, e))
			got := 0
			for _, n := range at.refs {
				got += n
			}
			if len(at.outs) != outs || got != refs {
				t.Fatalf("%v %s: %d live composites over %d derivations, want %d over %d",
					mode, label, len(at.outs), got, outs, refs)
			}
		}
		step("a", ev(1, "A", 0, "k", "k1"), 0, 0)
		step("b", ev(2, "B", 4, "k", "k1"), 0, 0)
		step("x", ev(3, "X", 6, "k", "k1"), 1, 2)
		step("straggler c", ev(4, "C", 2, "k", "k1"), 1, 1)
		step("remove x", event.NewRetract(3, "X", 6, 6, nil), 0, 0)
	}
}

// treeHeld counts what a matcher tree holds: live leaf matches, join lists
// and outputs, ATMOST entries and references, negation candidates and
// blockers. Once every event is gone it must be zero — a composite a
// retraction failed to find stays counted here even where the root's
// filter keeps it out of the output.
func treeHeld(n node) int {
	listLen := func(l *keyedList) int {
		h := len(l.wild.ms)
		for _, b := range l.buckets {
			h += len(b.ms)
		}
		return h
	}
	switch x := n.(type) {
	case *leafNode:
		return len(x.live)
	case *filterNode:
		return treeHeld(x.kid)
	case *seqNode:
		h := len(x.outs)
		for i, k := range x.kids {
			h += treeHeld(k) + listLen(&x.lists[i])
		}
		return h
	case *atLeastNode:
		h := len(x.outs) + len(x.refs)
		for i, k := range x.kids {
			h += treeHeld(k) + listLen(&x.lists[i])
		}
		return h
	case *atMostNode:
		h := len(x.entries) + len(x.refs)
		for _, k := range x.kids {
			h += treeHeld(k)
		}
		return h
	case *negNode:
		h := treeHeld(x.pos) + treeHeld(x.neg) + len(x.wcands) + len(x.loOf) + listLen(&x.negs)
		for _, cs := range x.kcands {
			h += len(cs)
		}
		return h
	}
	panic(fmt.Sprintf("treeHeld: unknown node %T", n))
}

// --- Correlation-key pushdown differentials ---

// eqOnKey mirrors the language's CorrelationKey(attr, EQUAL) positive
// filter: every payload value under the ".attr" suffix must be one common
// value (vacuously true when absent). Using the exact sema semantics is
// what makes WithJoinKey sound for these expressions on *any* payload,
// including events missing the attribute.
func eqOnKey(attr string) func(event.Payload) bool { return eqOnKeyTrimmed(attr, "") }

// eqOnKeyPrimed is eqOnKey over the prime-renamed names ("A.k'") too.
func eqOnKeyPrimed(attr string) func(event.Payload) bool { return eqOnKeyTrimmed(attr, "'") }

func eqOnKeyTrimmed(attr, cutset string) func(event.Payload) bool {
	suffix := "." + attr
	return func(p event.Payload) bool {
		var first event.Value
		seen := false
		for k, v := range p {
			if !strings.HasSuffix(strings.TrimRight(k, cutset), suffix) {
				continue
			}
			if !seen {
				first, seen = v, true
			} else if !event.ValueEqual(first, v) {
				return false
			}
		}
		return true
	}
}

// corrKeyEqual mirrors sema's CorrelationKey(attr, EQUAL) correlation
// predicate: every negative-side value under the suffix must equal every
// positive-side one.
func corrKeyEqual(attr string) algebra.CorrPred {
	suffix := "." + attr
	values := func(p event.Payload) []event.Value {
		var vs []event.Value
		for k, v := range p {
			if strings.HasSuffix(k, suffix) {
				vs = append(vs, v)
			}
		}
		return vs
	}
	return func(pos, neg event.Payload) bool {
		for _, nv := range values(neg) {
			for _, pv := range values(pos) {
				if !event.ValueEqual(nv, pv) {
					return false
				}
			}
		}
		return true
	}
}

// keyedZoo is the grammar under correlation-key pushdown: every expression
// carries predicates with the exact CorrelationKey(k, EQUAL) semantics, so
// an op built with WithJoinKey("k") must stay byte-compatible with the
// (pushdown-ignorant) oracle on any stream. Negation sites are annotated
// with CorrKey so their candidate/blocker stores key too.
func keyedZoo() map[string]algebra.Expr {
	seqAB := algebra.SequenceExpr{Kids: []algebra.Expr{typ("A", "a"), typ("B", "b")}, W: 12}
	filt := func(kid algebra.Expr) algebra.Expr {
		return algebra.FilterExpr{Kid: kid, Pred: eqOnKey("k"), Desc: "CorrelationKey(k, EQUAL)"}
	}
	return map[string]algebra.Expr{
		"kseq": filt(seqAB),
		// The exact-lookup pairwise shape the planner's spanning-equality
		// pushdown actually compiles ({a.k = b.k} → comparePred over
		// p["a.k"]/p["b.k"], where two absent values compare equal) — its
		// semantics differ from the suffix filters above precisely on
		// dotted and missing attributes.
		"kseq-pair": algebra.FilterExpr{Kid: seqAB, Desc: "{a.k = b.k}",
			Pred: func(p event.Payload) bool {
				return event.ValueEqual(p["a.k"], p["b.k"])
			}},
		"kseq3": filt(algebra.SequenceExpr{
			Kids: []algebra.Expr{typ("A", "a"), typ("B", "b"), typ("C", "c")}, W: 16}),
		"kseq-dup": filt(algebra.SequenceExpr{
			Kids: []algebra.Expr{typ("A", "a"), typ("A", "a2")}, W: 9}),
		"katleast": filt(algebra.AtLeastExpr{N: 2,
			Kids: []algebra.Expr{typ("A", ""), typ("B", ""), typ("C", "")}, W: 14}),
		"kunless": algebra.UnlessExpr{A: typ("A", "a"), B: typ("B", "b"), W: 9,
			Corr: corrKeyEqual("k"), CorrKey: "k"},
		// One alias twice on the negative side: Combine renames the second
		// contributor's "b.k" to "b.k'", a name no suffix rule sees, so the
		// blocker composite's key is the first contributor's value alone —
		// the case a key derived from the parts (instead of resolved over
		// the combined payload) gets wrong. Negative-side joins are never
		// keyed, so the pushdown stays sound; the site still files the
		// composite by its key.
		"kunless-dupneg": algebra.UnlessExpr{A: typ("A", "a"),
			B: algebra.SequenceExpr{Kids: []algebra.Expr{typ("B", "b"), typ("B", "b")}, W: 6},
			W: 9, Corr: corrKeyEqual("k"), CorrKey: "k"},
		"kcidr07": algebra.UnlessExpr{
			A: filt(algebra.SequenceExpr{
				Kids: []algebra.Expr{typ("A", "x"), typ("B", "y")}, W: 20}),
			B: typ("C", "z"), W: 5, Corr: corrKeyEqual("k"), CorrKey: "k",
		},
		"kunless-prime": filt(algebra.UnlessPrimeExpr{
			A: algebra.SequenceExpr{Kids: []algebra.Expr{typ("A", "a"), typ("B", "b")}, W: 10},
			B: typ("C", "c"), N: 2, W: 6, Corr: corrKeyEqual("k"), CorrKey: "k"}),
		"knot": filt(algebra.NotExpr{Neg: typ("C", "c"),
			Seq:  algebra.SequenceExpr{Kids: []algebra.Expr{typ("A", "a"), typ("B", "b")}, W: 9},
			Corr: corrKeyEqual("k"), CorrKey: "k"}),
		"kcancel": filt(algebra.CancelWhenExpr{
			E:      algebra.SequenceExpr{Kids: []algebra.Expr{typ("A", "a"), typ("B", "b")}, W: 9},
			Cancel: typ("X", "x"), Corr: corrKeyEqual("k"), CorrKey: "k"}),
		// ATMOST under the filter: its kids must stay unkeyed (frozen build
		// context) even though the op is keyed — this entry pins that gate.
		"katmost": filt(algebra.AtMostExpr{N: 1,
			Kids: []algebra.Expr{typ("A", "a"), typ("B", "b")}, W: 8}),
		// The keyed mirrors of exprZoo's re-headed-slot shapes (kcidr07 is
		// UNLESS over FILTER over SEQUENCE).
		// Two positions share the alias A, so Combine renames the second
		// one's attribute "A.k'" — a name the suffix rule never compares:
		// the filter must read it too, or keying would prune output.
		"katleast-dup": algebra.FilterExpr{Kid: algebra.AtLeastExpr{N: 2,
			Kids: []algebra.Expr{typ("A", ""), typ("A", ""), typ("B", "")}, W: 12},
			Pred: eqOnKeyPrimed("k"), Desc: "CorrelationKey(k, EQUAL) incl. k'"},
		"katmost-seq": filt(algebra.AtMostExpr{N: 1, Kids: []algebra.Expr{seqAB}, W: 10}),
		"kunless-prime-short": filt(algebra.UnlessPrimeExpr{A: seqAB, B: typ("C", "c"), N: 3, W: 6,
			Corr: corrKeyEqual("k"), CorrKey: "k"}),
		"kunless-prime-any": filt(algebra.UnlessPrimeExpr{
			A: algebra.Any(algebra.SequenceExpr{Kids: []algebra.Expr{typ("A", "a"), typ("B", "b")}, W: 8}, typ("C", "c")),
			B: typ("X", "x"), N: 2, W: 6, Corr: corrKeyEqual("k"), CorrKey: "k"}),
		"kunless-not": filt(algebra.UnlessExpr{
			A: algebra.NotExpr{Neg: typ("C", "c"),
				Seq:  algebra.SequenceExpr{Kids: []algebra.Expr{typ("A", "a"), typ("B", "b")}, W: 9},
				Corr: corrKeyEqual("k"), CorrKey: "k"},
			B: typ("X", "x"), W: 6, Corr: corrKeyEqual("k"), CorrKey: "k"}),
	}
}

// TestDifferentialKeyedPushdown is the keyed mirror of the aligned
// differential: every keyed-zoo operator × SC mode × key distribution,
// with removals, advances and clone swaps, byte-exact against the oracle.
// The distributions stress the seams the flat path never had: single-bucket
// degeneration, bucket churn over many keys, hot-key skew and wild (missing
// attribute) matches crossing every bucket.
func TestDifferentialKeyedPushdown(t *testing.T) {
	for name, expr := range keyedZoo() {
		if !Supported(expr) {
			t.Fatalf("%s: expression not supported by the matcher tree", name)
		}
		for mi, mode := range scModes() {
			for di, dist := range keyDists() {
				for trial := 0; trial < 3; trial++ {
					seed := int64(10000*mi + 100*di + 10*trial + 7)
					rng := rand.New(rand.NewSource(seed))
					events := genDistEvents(rng, 40, dist)
					driveAligned(t, name+"/"+dist.name, expr, mode, seed, events, rng,
						WithJoinKey("k"))
				}
			}
		}
	}
}

// TestDifferentialKeyedUnderMonitor wraps the keyed op and the oracle in
// consistency monitors and replays disordered physical streams across the
// key-distribution grid — the straggler rollback/replay path exercises the
// keyed stores' Clone, remove-at-replay and prune seams. Outputs and
// monitor metrics must match exactly.
func TestDifferentialKeyedUnderMonitor(t *testing.T) {
	deliveries := []struct {
		name string
		cfg  delivery.Config
	}{
		{"ordered", delivery.Ordered(8)},
		{"disordered", delivery.Disordered(7, 20, 10, 0.25)},
	}
	for name, expr := range keyedZoo() {
		for _, mode := range scModes() {
			for _, dist := range keyDists() {
				for _, dl := range deliveries {
					rng := rand.New(rand.NewSource(321))
					src := stream.Stream(genDistEvents(rng, 60, dist))
					delivered := delivery.Deliver(src, dl.cfg)

					oracle := algebra.NewPatternOp(expr, mode, "out")
					fast := NewOp(expr, mode, "out", WithJoinKey("k"))
					watchKeys(t, fast)
					oOut, oMet := consistency.RunStreams(oracle, consistency.Middle(), delivered)
					iOut, iMet := consistency.RunStreams(fast, consistency.Middle(), delivered)
					if !eventsEqual(iOut, oOut) {
						t.Fatalf("%s %v %s/%s: monitored output diverged (%d vs %d items)",
							name, mode, dist.name, dl.name, len(iOut), len(oOut))
					}
					if oMet != iMet {
						t.Fatalf("%s %v %s/%s: metrics diverged\n oracle: %+v\n    inc: %+v",
							name, mode, dist.name, dl.name, oMet, iMet)
					}
				}
			}
		}
	}
}

// TestProcessEmitsOnlyItsOwnKey pins what a sharded head (the engine's
// ownKeys) relies on: time enters the op only through Advance, so
// Process(e) emits only detections whose contributors share e's key, and a
// shard that skips the keys it does not own misses none of its own. Every
// keyed shape the planner shards (each-instance selection, no ATMOST) runs
// with an Advance only before every fifth item, so most events land past
// the frontier, where a Process that moved the frontier itself would
// mature other keys' pending detections. Only the distributions where every
// event carries a definite "k" take part: a keyless item routes to one
// fixed shard and may join any key.
func TestProcessEmitsOnlyItsOwnKey(t *testing.T) {
	for _, dist := range keyDists() {
		if dist.missing > 0 || dist.dotted > 0 {
			continue
		}
		checked := 0
		for name, expr := range keyedZoo() {
			if strings.HasPrefix(name, "katmost") {
				continue
			}
			for _, mode := range scModes() {
				if mode.Sel != algebra.SelectEach {
					continue
				}
				for trial := int64(0); trial < 3; trial++ {
					events := genDistEvents(rand.New(rand.NewSource(40+trial)), 60, dist)
					key := make(map[event.ID]event.Key, len(events))
					for _, e := range events {
						key[e.ID] = event.KeyOf(e.Payload["k"])
					}
					op := NewOp(expr, mode, "out", WithJoinKey("k"))
					for i, e := range events {
						if i%5 == 0 {
							op.Advance(e.Sync())
						}
						for _, o := range op.Process(0, e) {
							checked++
							for _, c := range o.CBT {
								if key[c] != key[e.ID] {
									t.Fatalf("%s %v %s trial %d: Process(#%d, k=%v) emitted %v with contributor #%d of another key",
										name, mode, dist.name, trial, e.ID, e.Payload["k"], o, c)
								}
							}
						}
					}
				}
			}
		}
		if checked == 0 {
			t.Fatalf("%s: no Process call emitted anything; the property went unchecked", dist.name)
		}
		t.Logf("%s: %d outputs of Process checked", dist.name, checked)
	}
}

// TestKeyedStoresPruneBuckets pins the pruning seam of the key-indexed
// stores: a stream cycling through ever-new keys must not accumulate dead
// buckets once the watermark passes their matches (the empty-bucket GC in
// keyedList/negNode), and wild matches must not leak either.
func TestKeyedStoresPruneBuckets(t *testing.T) {
	expr := keyedZoo()["kcidr07"].(algebra.UnlessExpr)
	op := NewOp(expr, algebra.SCMode{}, "out", WithJoinKey("k"))
	for i := 0; i < 400; i++ {
		p := event.Payload{"k": fmt.Sprintf("key%d", i)}
		op.Process(0, event.NewInsert(event.ID(2*i+1), "A", temporal.Time(i*4), temporal.Infinity, p))
		op.Process(0, event.NewInsert(event.ID(2*i+2), "B", temporal.Time(i*4+1), temporal.Infinity, p))
		op.Advance(temporal.Time(i * 4))
	}
	neg := op.root.(*negNode)
	seq := neg.pos.(*filterNode).kid.(*seqNode)
	for pos, kl := range seq.lists {
		if len(kl.buckets) > 16 {
			t.Errorf("seq position %d: %d key buckets survived pruning", pos, len(kl.buckets))
		}
	}
	if len(neg.kcands) > 16 {
		t.Errorf("%d candidate buckets survived pruning", len(neg.kcands))
	}
	if got := op.StateSize(); got > 40 {
		t.Errorf("state = %d, scope pruning ineffective under keyed stores", got)
	}
}

// TestKeyedPairwiseExactLookup pins the dotted-attribute seam of the
// pairwise pushdown: a payload attribute literally named "sub.k"
// namespaces to "a.sub.k", which ends in ".k" — the CorrelationKey suffix
// rule sees it, but the compiled {a.k = b.k} predicate reads the exact
// names and treats both *absent* values as equal. Keying such a match on
// the dotted value would prune a pair the filter accepts (missing output,
// not wasted work); the index must classify it wild instead.
func TestKeyedPairwiseExactLookup(t *testing.T) {
	expr := keyedZoo()["kseq-pair"]
	for _, mode := range scModes() {
		oracle := algebra.NewPatternOp(expr, mode, "out")
		fast := NewOp(expr, mode, "out", WithJoinKey("k"))
		step := func(label string, og, ig []event.Event) {
			checkStep(t, fmt.Sprintf("%v %s", mode, label), oracle, fast, ig, og)
		}
		evs := []event.Event{
			ev(1, "A", 0, "sub.k", "k1"), // a.k absent, a.sub.k = k1
			ev(2, "B", 2, "sub.k", "k2"), // b.k absent, b.sub.k = k2 — pred: nil == nil, matches
			ev(3, "A", 3, "k", "k1"),
			ev(4, "B", 5, "k", "k2"), // pred: k1 != k2, no match
			ev(5, "B", 6, "k", "k1"), // pred: k1 == k1, matches
		}
		for i, e := range evs {
			step(fmt.Sprintf("push %d", i), oracle.Process(0, e), fast.Process(0, e))
		}
		step("finish", oracle.Advance(temporal.Infinity), fast.Advance(temporal.Infinity))
	}
}

// TestKeyedNaNStaysWild pins the NaN seam: float64 NaN is not self-equal,
// so a NaN map key could be inserted but never found again — a NaN-keyed
// match must therefore go wild, or keyed removals would silently miss
// (leaking a bucket per event and resurrecting retracted matches). The
// keyed op must stay byte-exact with the oracle on NaN-keyed streams.
func TestKeyedNaNStaysWild(t *testing.T) {
	if event.KeyOf(math.NaN()).Def() {
		t.Fatal("NaN must not be a definite bucket key")
	}
	expr := keyedZoo()["kcidr07"]
	for _, mode := range scModes() {
		oracle := algebra.NewPatternOp(expr, mode, "out")
		fast := NewOp(expr, mode, "out", WithJoinKey("k"))
		step := func(label string, og, ig []event.Event) {
			checkStep(t, fmt.Sprintf("%v %s", mode, label), oracle, fast, ig, og)
		}
		evs := []event.Event{
			ev(1, "A", 0, "k", math.NaN()),
			ev(2, "B", 2, "k", math.NaN()),
			ev(3, "A", 3, "k", "k1"),
			ev(4, "B", 5, "k", "k1"),
			ev(5, "C", 6, "k", math.NaN()),
		}
		for i, e := range evs {
			step(fmt.Sprintf("push %d", i), oracle.Process(0, e), fast.Process(0, e))
		}
		r := event.NewRetract(1, "A", 0, 0, nil)
		step("remove", oracle.Process(0, r), fast.Process(0, r))
		// The NaN matches must have landed in the wild lists, not in
		// per-key buckets (where removal could never find them again).
		// Read before Advance(∞), which lets go of the tree.
		seq := fast.root.(*negNode).pos.(*filterNode).kid.(*seqNode)
		for pos := range seq.lists {
			for k := range seq.lists[pos].buckets {
				if k != k { // only a NaN key is not self-equal
					t.Fatalf("position %d grew a NaN bucket", pos)
				}
			}
		}
		step("finish", oracle.Advance(temporal.Infinity), fast.Advance(temporal.Infinity))
	}
}

var _ operators.AdvanceOrdered = (*Op)(nil)
