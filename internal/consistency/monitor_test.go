package consistency

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/algebra/inc"
	"repro/internal/delivery"
	"repro/internal/event"
	"repro/internal/history"
	"repro/internal/operators"
	"repro/internal/stream"
	"repro/internal/temporal"
)

// mkSource builds a deterministic logical source: n events, one every
// spacing ticks, each valid for length ticks, with a numeric payload.
func mkSource(n int, spacing, length temporal.Time) stream.Stream {
	s := make(stream.Stream, 0, n)
	for i := 0; i < n; i++ {
		vs := temporal.Time(i) * spacing
		s = append(s, event.NewInsert(event.ID(i+1), "E", vs, vs+length,
			event.Payload{"x": int64(i % 7), "g": int64(i % 3)}))
	}
	return s
}

func idealOf(src stream.Stream, op operators.Op) history.UniTable {
	return operators.OutputTable(operators.RunAligned(op, src))
}

func passAll(event.Payload) bool { return true }

func TestStrongBlocksUntilGuarantee(t *testing.T) {
	op := operators.NewSelect(passAll)
	m := NewMonitor(op, Strong())
	e := event.NewInsert(1, "E", 5, 10, nil)
	e.C = temporal.From(100)
	if out := m.Push(0, e); len(out) != 0 {
		t.Fatalf("strong must buffer, got %v", out)
	}
	cti := event.NewCTI(6)
	cti.C = temporal.From(101)
	out := m.Push(0, cti)
	// The buffered event is released plus an output CTI.
	var data, ctis int
	for _, o := range out {
		if o.IsCTI() {
			ctis++
		} else {
			data++
		}
	}
	if data != 1 || ctis != 1 {
		t.Fatalf("release produced %d data, %d CTIs: %v", data, ctis, out)
	}
	met := m.Metrics()
	if met.BlockedEvents != 1 || met.TotalBlocking != 1 {
		t.Errorf("blocking metrics: %+v", met)
	}
}

func TestMiddleEmitsImmediately(t *testing.T) {
	op := operators.NewSelect(passAll)
	m := NewMonitor(op, Middle())
	e := event.NewInsert(1, "E", 5, 10, nil)
	e.C = temporal.From(100)
	out := m.Push(0, e)
	if len(out) != 1 {
		t.Fatalf("middle must emit immediately, got %v", out)
	}
	if m.Metrics().BlockedEvents != 0 {
		t.Error("middle must not block")
	}
}

// TestMonitorIgnoresInputAfterFinish: Finish is terminal. Whatever reaches
// a finished monitor — an in-order event, a straggler, a guarantee, a level
// switch, a second Finish, plain or tagged — emits nothing and moves no
// counter.
func TestMonitorIgnoresInputAfterFinish(t *testing.T) {
	at := func(e event.Event, c temporal.Time) event.Event {
		e.C = temporal.From(c)
		return e
	}
	for _, spec := range []Spec{Strong(), Middle(), Weak(5)} {
		m := NewMonitor(operators.NewAggregate(operators.Count, "", ""), spec)
		m.Push(0, at(event.NewInsert(1, "E", 0, 10, nil), 100))
		m.Push(0, at(event.NewInsert(2, "E", 20, 30, nil), 101))
		m.Push(0, at(event.NewInsert(3, "E", 5, 25, nil), 102))
		if len(m.Finish()) == 0 {
			t.Fatalf("%s: Finish emitted nothing", spec.Name())
		}
		want := m.Metrics()
		var sink Burst
		after := map[string][]event.Event{
			"in-order push":  m.Push(0, at(event.NewInsert(4, "E", 40, 50, nil), 103)),
			"straggler push": m.Push(0, at(event.NewInsert(5, "E", 1, 2, nil), 104)),
			"guarantee":      m.Push(0, at(event.NewCTI(60), 105)),
			"level switch":   m.SetSpec(Middle()),
			"second Finish":  m.Finish(),
		}
		m.PushTaggedInto(0, at(event.NewInsert(6, "E", 70, 80, nil), 106), true, &sink)
		m.FinishTaggedInto(true, &sink)
		after["tagged calls"] = sink.Evs
		for call, out := range after {
			if len(out) != 0 {
				t.Errorf("%s: %s after Finish emitted %v", spec.Name(), call, out)
			}
		}
		if got := m.Metrics(); got != want {
			t.Errorf("%s: input after Finish moved the metrics\n got: %+v\nwant: %+v", spec.Name(), got, want)
		}
	}
}

func TestMiddleRepairsWithRetractions(t *testing.T) {
	// An aggregate sees events out of order; the optimistic count must be
	// repaired by compensating retractions when the straggler lands.
	op := operators.NewAggregate(operators.Count, "", "")
	m := NewMonitor(op, Middle())

	a := event.NewInsert(1, "E", 0, 10, nil)
	a.C = temporal.From(100)
	b := event.NewInsert(2, "E", 20, 30, nil)
	b.C = temporal.From(101)
	late := event.NewInsert(3, "E", 5, 25, nil) // straggler
	late.C = temporal.From(102)

	var out stream.Stream
	out = append(out, m.Push(0, a)...)
	out = append(out, m.Push(0, b)...)
	preRepair := len(out)
	out = append(out, m.Push(0, late)...)
	out = append(out, m.Finish()...)

	met := m.Metrics()
	if met.Replays != 1 {
		t.Errorf("replays = %d, want 1", met.Replays)
	}
	if met.Compensations == 0 {
		t.Error("expected compensating retractions")
	}
	if preRepair == 0 {
		t.Error("expected optimistic output before the straggler")
	}
	// Despite the disorder, the final history must match the aligned run.
	want := idealOf(stream.Stream{a, b, late}, operators.NewAggregate(operators.Count, "", ""))
	if !operators.OutputTable(out).EquivalentStar(want) {
		t.Errorf("repaired output diverges:\n got %+v\nwant %+v",
			operators.OutputTable(out).Ideal().Star(), want.Ideal().Star())
	}
}

func TestWeakForgetsOldStragglers(t *testing.T) {
	op := operators.NewAggregate(operators.Count, "", "")
	m := NewMonitor(op, Weak(2))

	a := event.NewInsert(1, "E", 0, 10, nil)
	b := event.NewInsert(2, "E", 100, 110, nil)
	late := event.NewInsert(3, "E", 5, 25, nil) // 95 behind the frontier
	for i, e := range []event.Event{a, b, late} {
		e.C = temporal.From(temporal.Time(100 + i))
		m.Push(0, e)
	}
	if m.Metrics().Dropped != 1 {
		t.Errorf("dropped = %d, want 1", m.Metrics().Dropped)
	}
	if m.Metrics().Replays != 0 {
		t.Error("weak(2) must not repair a straggler 95 ticks late")
	}
}

// The central §4/§6 property: at strong and middle levels, the output of a
// standing query over a disordered delivery is logically equivalent to the
// output over the ordered delivery.
func TestLevelsConvergeUnderDisorder(t *testing.T) {
	src := mkSource(120, 5, 12)
	mkOps := map[string]func() operators.Op{
		"select": func() operators.Op {
			return operators.NewSelect(func(p event.Payload) bool {
				v, _ := event.Num(p["x"])
				return v >= 2
			})
		},
		"count-by-g": func() operators.Op { return operators.NewAggregate(operators.Count, "", "g") },
		"window":     func() operators.Op { return operators.Window(20) },
	}
	cfgs := []delivery.Config{
		delivery.Ordered(25),
		delivery.Disordered(7, 50, 60, 0.3),
		delivery.Disordered(13, 100, 200, 0.5),
	}
	for name, mk := range mkOps {
		want := idealOf(src, mk())
		for ci, cfg := range cfgs {
			delivered := delivery.Deliver(src, cfg)
			for _, spec := range []Spec{Strong(), Middle()} {
				out, met := RunStreams(mk(), spec, delivered)
				if !operators.OutputTable(out).EquivalentStar(want) {
					t.Errorf("%s cfg %d %s: output diverges (met %+v)", name, ci, spec.Name(), met)
				}
			}
		}
	}
}

// Definition 3 flavor: two logically equivalent physical inputs produce the
// same final output state at strong consistency.
func TestStrongDeterministicAcrossDeliveries(t *testing.T) {
	src := mkSource(100, 3, 9)
	mk := func() operators.Op { return operators.NewAggregate(operators.Sum, "x", "g") }
	outA, _ := RunStreams(mk(), Strong(), delivery.Deliver(src, delivery.Disordered(1, 30, 100, 0.4)))
	outB, _ := RunStreams(mk(), Strong(), delivery.Deliver(src, delivery.Disordered(99, 60, 40, 0.2)))

	// Strong never retracts due to disorder: data outputs are final.
	for _, o := range outA.Events() {
		if o.Kind == event.Retract {
			t.Fatal("strong emitted a disorder-induced retraction")
		}
	}
	ta, tb := operators.OutputTable(outA), operators.OutputTable(outB)
	if !ta.EquivalentStar(tb) {
		t.Error("strong outputs differ across logically equivalent deliveries")
	}
}

func TestFigure8Qualitative(t *testing.T) {
	// The qualitative shape of Figure 8 on a disordered stream:
	//   blocking: strong > middle = weak (= 0)
	//   output size: middle >= strong (retractions)
	//   state size: weak < middle
	src := mkSource(200, 4, 10)
	delivered := delivery.Deliver(src, delivery.Disordered(5, 80, 120, 0.35))
	mk := func() operators.Op { return operators.NewAggregate(operators.Count, "", "") }

	_, strongMet := RunStreams(mk(), Strong(), delivered)
	_, middleMet := RunStreams(mk(), Middle(), delivered)
	_, weakMet := RunStreams(mk(), Weak(0), delivered)

	if strongMet.BlockedEvents == 0 {
		t.Error("strong should block on a disordered stream")
	}
	if middleMet.BlockedEvents != 0 || weakMet.BlockedEvents != 0 {
		t.Error("middle/weak must not block")
	}
	if middleMet.OutputEvents() < strongMet.OutputEvents() {
		t.Errorf("middle output (%d) should be >= strong output (%d) under disorder",
			middleMet.OutputEvents(), strongMet.OutputEvents())
	}
	if middleMet.Compensations == 0 {
		t.Error("middle should emit compensations under disorder")
	}
	if weakMet.MaxState > middleMet.MaxState {
		t.Errorf("weak state (%d) should not exceed middle state (%d)",
			weakMet.MaxState, middleMet.MaxState)
	}
	if weakMet.Dropped == 0 {
		t.Error("weak(0) should drop stragglers on this stream")
	}
}

func TestBinaryJoinGuaranteeIsMinOverPorts(t *testing.T) {
	op := operators.NewJoin(func(l, r event.Payload) bool { return true })
	m := NewMonitor(op, Strong())
	l := event.NewInsert(1, "L", 0, 10, event.Payload{"a": int64(1)})
	l.C = temporal.From(1)
	r := event.NewInsert(2, "R", 0, 10, event.Payload{"b": int64(2)})
	r.C = temporal.From(2)
	m.Push(0, l)
	m.Push(1, r)
	// Guarantee on the left only: combined min is still the right's -∞.
	cl := event.NewCTI(50)
	cl.C = temporal.From(3)
	out := m.Push(0, cl)
	if len(out) != 0 {
		t.Fatalf("combined guarantee must wait for both ports, got %v", out)
	}
	cr := event.NewCTI(50)
	cr.C = temporal.From(4)
	out = m.Push(1, cr)
	var data int
	for _, o := range out {
		if !o.IsCTI() {
			data++
		}
	}
	if data != 1 {
		t.Fatalf("join release produced %d data items: %v", data, out)
	}
}

func TestGuaranteeViolationRejected(t *testing.T) {
	op := operators.NewSelect(passAll)
	m := NewMonitor(op, Middle())
	cti := event.NewCTI(100)
	m.Push(0, cti)
	stale := event.NewInsert(1, "E", 5, 10, nil) // Sync 5 < guarantee 100
	if out := m.Push(0, stale); len(out) != 0 {
		t.Fatalf("violating event must be rejected, got %v", out)
	}
	if m.Metrics().Violations != 1 {
		t.Error("violation not counted")
	}
}

// Section 5: "one can seamlessly switch from one consistency level to
// another at these [sync] points, producing the same subsequent stream as
// if CEDR had been running at that consistency level all along."
func TestSeamlessLevelSwitchAtSyncPoint(t *testing.T) {
	src := mkSource(100, 4, 9)
	delivered := delivery.Deliver(src, delivery.Disordered(3, 40, 50, 0.3))
	mk := func() operators.Op { return operators.NewAggregate(operators.Count, "", "") }
	want := idealOf(src, mk())

	// Run at middle, switching to strong at the first sync point past the
	// midpoint, then compare the final logical state with the all-one-level
	// runs.
	m := NewMonitor(mk(), Middle())
	var out stream.Stream
	switched := false
	for i, e := range delivered {
		out = append(out, m.Push(0, e)...)
		if !switched && e.IsCTI() && i > len(delivered)/2 {
			out = append(out, m.SetSpec(Strong())...)
			switched = true
		}
	}
	out = append(out, m.Finish()...)
	if !switched {
		t.Fatal("test stream had no sync point past midpoint")
	}
	if !operators.OutputTable(out).EquivalentStar(want) {
		t.Error("switched run diverges from ideal")
	}
}

func TestSwitchToLooserLevelReleasesBuffer(t *testing.T) {
	op := operators.NewSelect(passAll)
	m := NewMonitor(op, Strong())
	e1 := event.NewInsert(1, "E", 5, 10, nil)
	e2 := event.NewInsert(2, "E", 50, 60, nil)
	m.Push(0, e1)
	m.Push(0, e2) // frontier now 50
	out := m.SetSpec(Middle())
	if len(out) == 0 {
		t.Fatal("loosening to middle should release the buffer")
	}
}

// Randomized end-to-end convergence across the spectrum interior.
func TestSpectrumInteriorConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	src := mkSource(80, 5, 15)
	want := idealOf(src, operators.Window(25))
	for trial := 0; trial < 10; trial++ {
		cfg := delivery.Disordered(rng.Int63(), 40, 60, 0.3)
		delivered := delivery.Deliver(src, cfg)
		// Any level with unbounded memory must converge, whatever B is.
		b := temporal.Duration(rng.Intn(100))
		out, _ := RunStreams(operators.Window(25), Level(b, Unbounded), delivered)
		if !operators.OutputTable(out).EquivalentStar(want) {
			t.Errorf("trial %d: level (B=%d, M=∞) diverges", trial, b)
		}
	}
}

func TestSpecNames(t *testing.T) {
	if Strong().Name() != "strong" || Middle().Name() != "middle" {
		t.Error("corner names wrong")
	}
	if Weak(5).Name() != "weak(M=5)" {
		t.Errorf("weak name = %s", Weak(5).Name())
	}
	if Level(3, 9).Name() != "level(B=3,M=9)" {
		t.Errorf("interior name = %s", Level(3, 9).Name())
	}
	if Level(10, 5).B != 5 {
		t.Error("Level must clamp B to M")
	}
	if !Strong().Blocking() || Middle().Blocking() {
		t.Error("Blocking() wrong")
	}
}

func TestRunStreamsEmptyInput(t *testing.T) {
	out, met := RunStreams(operators.NewSelect(passAll), Middle())
	// Only the Finish punctuation.
	if len(out.Events()) != 0 {
		t.Errorf("outputs from empty input: %v", out)
	}
	if met.InputEvents != 0 {
		t.Errorf("metrics: %+v", met)
	}
}

func TestCTIOnlyStreamAdvancesGuarantee(t *testing.T) {
	m := NewMonitor(operators.NewAggregate(operators.Count, "", ""), Strong())
	for _, tt := range []temporal.Time{10, 20, 30} {
		cti := event.NewCTI(tt)
		m.Push(0, cti)
	}
	if m.Guarantee() != 30 {
		t.Errorf("guarantee = %v", m.Guarantee())
	}
	// Regressing punctuation is ignored.
	m.Push(0, event.NewCTI(5))
	if m.Guarantee() != 30 {
		t.Errorf("guarantee regressed to %v", m.Guarantee())
	}
}

func TestInvalidPortIgnored(t *testing.T) {
	m := NewMonitor(operators.NewSelect(passAll), Middle())
	if out := m.Push(7, event.NewInsert(1, "E", 0, 1, nil)); out != nil {
		t.Error("invalid port produced output")
	}
	if out := m.Push(-1, event.NewInsert(1, "E", 0, 1, nil)); out != nil {
		t.Error("negative port produced output")
	}
}

// Duplicate delivery (an at-least-once transport): the duplicate carries
// the same event ID, so folding the output by ID stays correct for
// stateless operators — the duplicated insert overwrites itself.
func TestDuplicateDeliveryIsIdempotentInHistory(t *testing.T) {
	src := mkSource(40, 5, 12)
	cfg := delivery.Config{Seed: 3, Latency: delivery.Latency{Base: 1},
		CTIPeriod: 50, DuplicateProb: 0.5}
	delivered := delivery.Deliver(src, cfg)
	out, _ := RunStreams(operators.NewSelect(passAll), Middle(), delivered)
	want := idealOf(src, operators.NewSelect(passAll))
	if !operators.OutputTable(out).EquivalentStar(want) {
		t.Error("duplicates corrupted the select history")
	}
}

func TestMetricsAccessors(t *testing.T) {
	met := Metrics{OutputInserts: 3, OutputRetractions: 2,
		BlockedEvents: 4, TotalBlocking: 20}
	if met.OutputEvents() != 5 {
		t.Errorf("OutputEvents = %d", met.OutputEvents())
	}
	if met.MeanBlocking() != 5 {
		t.Errorf("MeanBlocking = %v", met.MeanBlocking())
	}
	if (Metrics{}).MeanBlocking() != 0 {
		t.Error("MeanBlocking of zero metrics")
	}
}

func TestFinishFlushesBlockingOp(t *testing.T) {
	m := NewMonitor(operators.NewAggregate(operators.Count, "", ""), Strong())
	e := event.NewInsert(1, "E", 5, 10, nil)
	m.Push(0, e)
	out := m.Finish()
	var data int
	for _, o := range out {
		if !o.IsCTI() && o.Kind == event.Insert {
			data++
		}
	}
	if data == 0 {
		t.Fatal("Finish must flush the buffered event through the aggregate")
	}
}

// liveVersions wraps a Versioned operator and tracks which of its versions
// the Versioned contract still obliges it to keep: marked, and not yet
// ended by a Compact above them or a Rollback below them.
type liveVersions struct {
	operators.Versioned
	live map[uint64]bool
	max  int
}

func (l *liveVersions) Mark() operators.Version {
	v := l.Versioned.Mark()
	l.live[v.Pos] = true
	if len(l.live) > l.max {
		l.max = len(l.live)
	}
	return v
}

func (l *liveVersions) Rollback(v operators.Version) bool {
	if !l.Versioned.Rollback(v) {
		return false
	}
	for pos := range l.live {
		if pos > v.Pos {
			delete(l.live, pos)
		}
	}
	return true
}

func (l *liveVersions) Compact(v operators.Version) {
	l.Versioned.Compact(v)
	for pos := range l.live {
		if pos < v.Pos {
			delete(l.live, pos)
		}
	}
}

// TestRetainedVersionsBounded: the monitor keeps exactly one operator
// version per item of the live window plus the base — what matters for the
// clone-backed fallback, which holds an operator copy per live version — and
// a sync point covering the window leaves the base alone.
func TestRetainedVersionsBounded(t *testing.T) {
	src := mkSource(400, 3, 20)
	delivered := delivery.Deliver(src, delivery.Config{Seed: 11,
		Latency: delivery.Latency{Base: 1, Jitter: 10, StragglerProb: 0.1, StragglerDelay: 40}})
	op := &liveVersions{live: map[uint64]bool{},
		Versioned: operators.AsVersioned(foreign{operators.NewAggregate(operators.Count, "", "g")})}
	m := NewMonitor(op, Middle())
	for i, e := range delivered {
		if e.IsCTI() {
			t.Fatal("the delivery was meant to carry no guarantees")
		}
		m.Push(0, e)
		if window := len(m.log) - m.head; len(op.live) != window+1 {
			t.Fatalf("item %d: %d live versions over a window of %d items, want one each plus the base",
				i, len(op.live), window)
		}
	}
	if m.Metrics().Replays == 0 {
		t.Fatal("stream did not exercise repair")
	}
	m.Push(0, event.NewCTI(m.frontier))
	if len(m.log) != m.head || len(op.live) != 1 {
		t.Fatalf("after a covering sync point: window %d, %d live versions, want 0 and the base alone",
			len(m.log)-m.head, len(op.live))
	}
}

// countingOp is a stateful-looking identity operator — every input event is
// its own output fact — that counts Process calls across all its clones.
type countingOp struct{ calls *int }

func (countingOp) Name() string { return "counting" }
func (countingOp) Arity() int   { return 1 }
func (c countingOp) Process(_ int, e event.Event) []event.Event {
	*c.calls++
	return []event.Event{e}
}
func (countingOp) Advance(temporal.Time) []event.Event           { return nil }
func (countingOp) OutputGuarantee(t temporal.Time) temporal.Time { return t }
func (countingOp) StateSize() int                                { return 0 }
func (c countingOp) Clone() operators.Op                         { return c }

// windowWithStraggler admits n in-order items at Middle with no sync point,
// then one straggler with depth items after it, and returns the Process
// calls and the net-fact entries examined that the straggler cost.
func windowWithStraggler(t *testing.T, n, depth int) (calls, examined int) {
	t.Helper()
	op := countingOp{calls: new(int)}
	m := NewMonitor(op, Middle())
	for i := 1; i <= n; i++ {
		m.Push(0, event.NewInsert(event.ID(i), "E", temporal.Time(10*i), temporal.Infinity, nil))
	}
	if len(m.emitted) != n || m.examined != 0 {
		t.Fatalf("window of %d items: %d live facts, %d entries examined before any repair", n, len(m.emitted), m.examined)
	}
	before := *op.calls
	m.Push(0, event.NewInsert(event.ID(n+1), "E", temporal.Time(10*(n-depth)+5), temporal.Infinity, nil))
	if m.Metrics().Replays != 1 {
		t.Fatalf("straggler at depth %d of %d caused %d replays", depth, n, m.Metrics().Replays)
	}
	return *op.calls - before, m.examined
}

// TestRepairCostTracksStragglerDepth pins repair's cost in counts: it
// re-drives the straggler and the items it displaced, nothing before them,
// and the table entries it examines do not grow with the table.
func TestRepairCostTracksStragglerDepth(t *testing.T) {
	for _, d := range []int{1, 3, 24, 500, 1000} {
		if calls, _ := windowWithStraggler(t, 1000, d); calls != d+1 {
			t.Errorf("straggler at depth %d of a 1000-item window: %d Process calls, want %d", d, calls, d+1)
		}
	}
	_, small := windowWithStraggler(t, 10, 4)
	_, large := windowWithStraggler(t, 10000, 4)
	if small != large || small == 0 {
		t.Errorf("repair at depth 4 examined %d entries with 10 live facts, %d with 10000", small, large)
	}
}

// TestRepairKeepsUnchangedNaNFact: a straggler replay re-derives a fact
// whose payload carries NaN. The re-derived fact is unchanged, so the repair
// diff must keep it — not retract it and re-insert it — whether or not the
// operator hands back the payload map it emitted before. The straggler is of
// a type the pattern ignores, so the only right output is the one insert.
func TestRepairKeepsUnchangedNaNFact(t *testing.T) {
	expr := algebra.SequenceExpr{Kids: []algebra.Expr{
		algebra.TypeExpr{Type: "A", Alias: "a"},
		algebra.TypeExpr{Type: "B", Alias: "b"},
	}, W: 100}
	arrive := func(e event.Event, c temporal.Time) event.Event {
		e.C = temporal.From(c)
		return e
	}
	in := stream.Stream{
		arrive(event.NewInsert(1, "A", 10, temporal.Infinity, event.Payload{"v": math.NaN()}), 1),
		arrive(event.NewInsert(2, "B", 20, temporal.Infinity, event.Payload{"v": int64(1)}), 2),
		arrive(event.NewInsert(3, "C", 15, temporal.Infinity, nil), 3), // straggler
	}
	for name, op := range map[string]operators.Op{
		"inc":    inc.NewOp(expr, algebra.SCMode{}, "out"),
		"oracle": algebra.NewPatternOp(expr, algebra.SCMode{}, "out"),
	} {
		out, met := RunStreams(op, Middle(), in)
		if met.Replays != 1 {
			t.Errorf("%s: replays = %d, want 1 (the straggler no longer repairs)", name, met.Replays)
		}
		var data stream.Stream
		for _, e := range out {
			if !e.IsCTI() {
				data = append(data, e)
			}
		}
		if len(data) != 1 || data[0].Kind != event.Insert {
			t.Errorf("%s: got %v, want the one insert of the NaN-carrying match", name, data)
		}
	}
}

// TestMonitorLogStaysWindowSized: the log compacts at every checkpoint
// that absorbs at least half of it, so its array stays at about the live
// window. Middle over 10k ordered events with a sync point every 10 keeps
// a window of a dozen items; while compaction waited for 64 absorbed items,
// the array grew to 128 slots.
func TestMonitorLogStaysWindowSized(t *testing.T) {
	m := NewMonitor(operators.NewSelect(passAll), Middle())
	window, size := 0, 0
	for i, ev := range mkSource(10_000, 2, 5) {
		m.Push(0, ev)
		if i%10 == 9 {
			m.Push(0, event.NewCTI(ev.V.Start+1))
		}
		window, size = max(window, m.Window()), max(size, cap(m.log))
	}
	t.Logf("largest window %d items, largest log array %d slots", window, size)
	if window == 0 || size > 2*window {
		t.Fatalf("the log array reached %d slots for a window of at most %d items", size, window)
	}
}
