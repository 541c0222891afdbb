package consistency

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"testing"

	"repro/internal/algebra"
	"repro/internal/algebra/inc"
	"repro/internal/delivery"
	"repro/internal/event"
	"repro/internal/operators"
	"repro/internal/stream"
	"repro/internal/temporal"
	"repro/internal/workload"
)

// The monitor-equivalence property: the optimized Monitor must produce
// item-for-item identical physical output (and identical metrics) to the
// frozen pre-optimization reference in reference_test.go, for every
// consistency level, operator shape, and delivery disorder. This is the
// proof that the hot-path rewrite is a pure performance change.

func randSource(rng *rand.Rand, n int) stream.Stream {
	s := make(stream.Stream, 0, n)
	at := temporal.Time(0)
	for i := 0; i < n; i++ {
		at = at.Add(temporal.Duration(rng.Intn(7)))
		length := temporal.Duration(rng.Intn(40) + 1)
		ve := at.Add(length)
		if rng.Intn(8) == 0 {
			ve = temporal.Infinity
		}
		s = append(s, event.NewInsert(event.ID(i+1), "E", at, ve, event.Payload{
			"g": int64(rng.Intn(4)),
			"x": float64(rng.Intn(100)) / 4,
		}))
	}
	return s.SortBySync()
}

var seqEE = algebra.SequenceExpr{Kids: []algebra.Expr{
	algebra.TypeExpr{Type: "E", Alias: "a"},
	algebra.TypeExpr{Type: "E", Alias: "b"},
}, W: 25}

// equivalenceOps covers every way an operator reaches the monitor: the
// stateless shortcut (select), the journaled operators (aggregates, window,
// join, difference — the two-port ones fed by pushPorts), and the
// clone-backed fallback (the oracle pattern evaluator).
func equivalenceOps() map[string]func() operators.Op {
	return map[string]func() operators.Op{
		"select": func() operators.Op {
			return operators.NewSelect(func(p event.Payload) bool {
				v, _ := event.Num(p["x"])
				return v >= 5
			})
		},
		"count-by-g": func() operators.Op { return operators.NewAggregate(operators.Count, "", "g") },
		"avg-by-g":   func() operators.Op { return operators.NewAggregate(operators.Avg, "x", "g") },
		"sum":        func() operators.Op { return operators.NewAggregate(operators.Sum, "x", "") },
		"window":     func() operators.Op { return operators.Window(15) },
		"join": func() operators.Op {
			return operators.NewJoin(func(l, r event.Payload) bool { return event.ValueEqual(l["g"], r["g"]) })
		},
		"difference": func() operators.Op { return operators.NewDifference() },
		"oracle-seq": func() operators.Op {
			// A narrow scope keeps the semi-naive evaluator's store — and
			// with it the cost of the reference's full replays — small.
			near := seqEE
			near.W = 8
			return algebra.NewPatternOp(near, algebra.SCMode{}, "out")
		},
	}
}

// foreign hides every method but Op's — the inner operator's journal
// included — so the monitor runs it through the clone-backed fallback.
type foreign struct{ operators.Op }

func (f foreign) Clone() operators.Op { return foreign{f.Op.Clone()} }

// pushPorts delivers one item of the single physical stream to push: a
// one-port operator takes everything on port 0; a two-port operator gets
// everything on its left port and, on its right, every guarantee and every
// third data item again — so a join has partners and a difference has
// equal payloads to subtract.
func pushPorts(arity int, e event.Event, push func(port int, e event.Event)) {
	push(0, e)
	if arity == 2 && (e.IsCTI() || e.ID%3 == 0) {
		push(1, e)
	}
}

func equivalenceLevels(rng *rand.Rand) []Spec {
	return []Spec{
		Strong(),
		Middle(),
		Weak(0),
		Weak(temporal.Duration(rng.Intn(60) + 1)),
		Level(temporal.Duration(rng.Intn(30)), Unbounded),
		Level(temporal.Duration(rng.Intn(20)), temporal.Duration(rng.Intn(80)+20)),
	}
}

// compareTables cross-checks the monitors' internal net-fact tables; a
// divergence here surfaces long before it corrupts output, which makes
// property-test failures debuggable.
func compareTables(t *testing.T, label string, i int, opt *Monitor, ref *refMonitor) {
	t.Helper()
	if len(opt.emitted) != len(ref.emitted) {
		t.Fatalf("%s: item %d: emitted table size %d, reference %d\n got: %v\nwant: %v",
			label, i, len(opt.emitted), len(ref.emitted), opt.emitted, ref.emitted)
	}
	for id, nf := range opt.emitted {
		rf, ok := ref.emitted[id]
		if !ok {
			t.Fatalf("%s: item %d: emitted has extra fact %v=%v", label, i, id, nf.ev)
		}
		if !reflect.DeepEqual(nf.ev, rf.ev) || nf.gen != rf.gen {
			t.Fatalf("%s: item %d: fact %v differs\n got: %v gen %d\nwant: %v gen %d",
				label, i, id, nf.ev, nf.gen, rf.ev, rf.gen)
		}
	}
}

// runBoth feeds the identical stream to the optimized and reference
// monitors, comparing every Push return item for item.
func runBoth(t *testing.T, label string, opt *Monitor, ref *refMonitor, delivered stream.Stream, switchAt int, switchTo Spec) {
	t.Helper()
	check := func(i int, got, want []event.Event) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: item %d: output length %d, reference %d\n got: %v\nwant: %v",
				label, i, len(got), len(want), got, want)
		}
		for j := range got {
			if !reflect.DeepEqual(got[j], want[j]) {
				t.Fatalf("%s: item %d: output[%d] differs\n got: %v\nwant: %v",
					label, i, j, got[j], want[j])
			}
		}
	}
	for i, e := range delivered {
		pushPorts(len(opt.portG), e, func(port int, e event.Event) {
			check(i, opt.Push(port, e), ref.Push(port, e))
			compareTables(t, label, i, opt, ref)
		})
		if switchAt > 0 && i == switchAt {
			check(i, opt.SetSpec(switchTo), ref.SetSpec(switchTo))
		}
	}
	check(len(delivered), opt.Finish(), ref.Finish())
	if gm, wm := opt.Metrics(), ref.Metrics(); gm != wm {
		t.Fatalf("%s: metrics diverge\n got: %+v\nwant: %+v", label, gm, wm)
	}
}

// shortStream halves the stream under plain `go test`. The reference
// monitor rebuilds from its full log on every repair, so the two operators
// that are quadratic in their own right dominate the package's run time;
// the fault-injection CI job, which sets CEDR_EVERY_BOUNDARY, feeds them
// the full stream.
func shortStream(in stream.Stream) stream.Stream {
	if os.Getenv("CEDR_EVERY_BOUNDARY") != "" {
		return in
	}
	return in[:len(in)/2]
}

func TestMonitorEquivalenceRandomized(t *testing.T) {
	ops := equivalenceOps()
	names := make([]string, 0, len(ops))
	for name := range ops {
		names = append(names, name)
	}
	sort.Strings(names)
	for trial := 0; trial < 12; trial++ {
		// A fresh rng per trial keeps every case reproducible from its
		// trial number alone.
		rng := rand.New(rand.NewSource(1729 + int64(trial)))
		src := randSource(rng, 150+rng.Intn(150))
		var cfg delivery.Config
		switch trial % 3 {
		case 0:
			cfg = delivery.Ordered(temporal.Duration(rng.Intn(40) + 5))
		case 1:
			cfg = delivery.Disordered(rng.Int63(), temporal.Duration(rng.Intn(100)+20),
				temporal.Duration(rng.Intn(80)+10), 0.1+rng.Float64()*0.4)
		default:
			cfg = delivery.Config{Seed: rng.Int63(),
				Latency:       delivery.Latency{Base: 1, Jitter: 25, StragglerProb: 0.3, StragglerDelay: 60},
				CTIPeriod:     temporal.Duration(rng.Intn(120) + 10),
				DuplicateProb: 0.1}
		}
		delivered := delivery.Deliver(src, cfg)
		levels := equivalenceLevels(rng)
		for _, name := range names {
			// The two operators that are quadratic in their own right get
			// each disorder class twice, not four times.
			quadratic := name == "difference" || name == "oracle-seq"
			if quadratic && trial >= 6 {
				continue
			}
			mk, in := ops[name], delivered
			if quadratic {
				in = shortStream(in)
			}
			if name == "difference" {
				in = in[:len(in)/2] // each Advance compares every co-live pair
			}
			for _, spec := range levels {
				label := fmt.Sprintf("trial %d op %s level %s", trial, name, spec.Name())
				runBoth(t, label, NewMonitor(mk(), spec), newRefMonitor(mk(), spec), in, 0, Spec{})
			}
		}
	}
}

// TestMonitorEquivalenceVersionedImpls pins the monitor's use of the
// Versioned protocol — a mark per admitted item, a rollback per straggler, a
// compact per checkpoint — against the frozen seed reference, which clones
// and replays from its checkpoint. The operator grid has one of each
// implementation: the incremental matcher's journal, the map journal
// (aggregate), the join's, and the clone-backed fallback (the same aggregate
// behind foreign). Each also starts at a level that records no versions and
// loosens to Middle mid-stream: after Strong the stragglers that follow land
// before every versioned item and repair from the base; after Weak(0) a live
// item without a version can become a checkpoint boundary.
func TestMonitorEquivalenceVersionedImpls(t *testing.T) {
	all := equivalenceOps()
	ops := map[string]func() operators.Op{
		"inc-seq":    func() operators.Op { return inc.NewOp(seqEE, algebra.SCMode{}, "out") },
		"count-by-g": all["count-by-g"],
		"join":       all["join"],
		"fallback":   func() operators.Op { return foreign{all["count-by-g"]()} },
	}
	names := make([]string, 0, len(ops))
	for name := range ops {
		names = append(names, name)
	}
	sort.Strings(names)
	for trial := 0; trial < 4; trial++ {
		rng := rand.New(rand.NewSource(4200 + int64(trial)))
		src := randSource(rng, 120+rng.Intn(80))
		delivered := delivery.Deliver(src, delivery.Disordered(rng.Int63(),
			temporal.Duration(rng.Intn(80)+20), temporal.Duration(rng.Intn(60)+10),
			0.15+rng.Float64()*0.3))
		for _, name := range names {
			mk := ops[name]
			for _, spec := range []Spec{Strong(), Middle(), Weak(40), Level(10, 50)} {
				label := fmt.Sprintf("versioned trial %d op %s level %s", trial, name, spec.Name())
				runBoth(t, label, NewMonitor(mk(), spec), newRefMonitor(mk(), spec), delivered, 0, Spec{})
			}
			for _, from := range []Spec{Strong(), Weak(0)} {
				at := len(delivered)/4 + rng.Intn(len(delivered)/2)
				label := fmt.Sprintf("versioned trial %d op %s %s->middle@%d", trial, name, from.Name(), at)
				runBoth(t, label, NewMonitor(mk(), from), newRefMonitor(mk(), from), delivered, at, Middle())
			}
		}
	}
}

// Retractions in the input reach the net-fact table as shrinks and removals
// — through select unchanged, through the stateful operators as corrections
// of their own output — and a disordered delivery can hand the monitor a
// retraction before the insert it corrects.
func TestMonitorEquivalenceWithRetractions(t *testing.T) {
	all := equivalenceOps()
	for trial := 0; trial < 4; trial++ {
		rng := rand.New(rand.NewSource(8800 + int64(trial)))
		src := workload.Corrections(rng.Int63(), 0.5, randSource(rng, 100+rng.Intn(60)))
		delivered := delivery.Deliver(src, delivery.Disordered(rng.Int63(),
			temporal.Duration(rng.Intn(80)+20), temporal.Duration(rng.Intn(60)+10),
			0.15+rng.Float64()*0.3))
		for _, name := range []string{"select", "count-by-g", "window", "join"} {
			for _, spec := range []Spec{Middle(), Weak(40), Level(10, 50)} {
				label := fmt.Sprintf("retraction trial %d op %s level %s", trial, name, spec.Name())
				runBoth(t, label, NewMonitor(all[name](), spec), newRefMonitor(all[name](), spec), delivered, 0, Spec{})
			}
		}
	}
}

// A live item admitted at a level that records no versions becomes the
// checkpoint boundary after the level loosens: Weak(0) keeps the newest item
// in its window, Middle admits a later one behind it, and a sync point falls
// between the two. The stragglers that follow repair from that base.
func TestMonitorEquivalenceUnversionedBoundary(t *testing.T) {
	ins := func(id event.ID, vs temporal.Time) event.Event {
		return event.NewInsert(id, "E", vs, vs+40, event.Payload{"g": int64(id % 2), "x": 1.0})
	}
	delivered := stream.Stream{ins(1, 5), ins(2, 10), ins(3, 20), // Weak(0): 3 stays live
		ins(4, 30), event.NewCTI(25), ins(5, 27), ins(6, 26), event.NewCTI(60)}
	for name, mk := range equivalenceOps() {
		opt, ref := NewMonitor(mk(), Weak(0)), newRefMonitor(mk(), Weak(0))
		runBoth(t, "unversioned boundary op "+name, opt, ref, delivered, 2, Middle())
	}
}

// Level switching mid-stream must also be equivalent (SetSpec shares the
// release/trim machinery).
func TestMonitorEquivalenceWithLevelSwitch(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	mk := func() operators.Op { return operators.NewAggregate(operators.Count, "", "g") }
	levels := []Spec{Strong(), Middle(), Weak(25), Level(10, 50)}
	for trial := 0; trial < 8; trial++ {
		src := randSource(rng, 120)
		delivered := delivery.Deliver(src,
			delivery.Disordered(rng.Int63(), 40, 50, 0.3))
		from := levels[rng.Intn(len(levels))]
		to := levels[rng.Intn(len(levels))]
		at := len(delivered)/3 + rng.Intn(len(delivered)/3)
		label := fmt.Sprintf("switch trial %d %s->%s@%d", trial, from.Name(), to.Name(), at)
		runBoth(t, label, NewMonitor(mk(), from), newRefMonitor(mk(), from), delivered, at, to)
	}
}

// Two-port operators exercise the per-port guarantee combination.
func TestMonitorEquivalenceTwoPort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		left := randSource(rng, 80)
		right := randSource(rng, 80)
		dl := delivery.Deliver(left, delivery.Disordered(rng.Int63(), 50, 40, 0.25))
		dr := delivery.Deliver(right, delivery.Disordered(rng.Int63(), 60, 30, 0.25))
		theta := func(l, r event.Payload) bool { return event.ValueEqual(l["g"], r["g"]) }
		for _, spec := range []Spec{Strong(), Middle(), Weak(40)} {
			opt := NewMonitor(operators.NewJoin(theta), spec)
			ref := newRefMonitor(operators.NewJoin(theta), spec)
			// Merge the two ports in arrival order, as FeedMerged would.
			type portItem struct {
				port int
				ev   event.Event
			}
			var all []portItem
			for _, e := range dl {
				all = append(all, portItem{0, e})
			}
			for _, e := range dr {
				all = append(all, portItem{1, e})
			}
			for i := 1; i < len(all); i++ {
				for j := i; j > 0 && all[j].ev.C.Start < all[j-1].ev.C.Start; j-- {
					all[j], all[j-1] = all[j-1], all[j]
				}
			}
			label := fmt.Sprintf("join trial %d %s", trial, spec.Name())
			for i, pi := range all {
				got := opt.Push(pi.port, pi.ev)
				want := ref.Push(pi.port, pi.ev)
				if !reflect.DeepEqual(append([]event.Event{}, got...), append([]event.Event{}, want...)) {
					t.Fatalf("%s: item %d differs\n got: %v\nwant: %v", label, i, got, want)
				}
			}
			got := opt.Finish()
			want := ref.Finish()
			if !reflect.DeepEqual(append([]event.Event{}, got...), append([]event.Event{}, want...)) {
				t.Fatalf("%s: Finish differs\n got: %v\nwant: %v", label, got, want)
			}
			if gm, wm := opt.Metrics(), ref.Metrics(); gm != wm {
				t.Fatalf("%s: metrics diverge\n got: %+v\nwant: %+v", label, gm, wm)
			}
		}
	}
}
