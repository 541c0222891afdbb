package engine

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/consistency"
	"repro/internal/delivery"
	"repro/internal/event"
	"repro/internal/leakcheck"
	"repro/internal/operators"
	"repro/internal/plan"
	"repro/internal/stream"
	"repro/internal/temporal"
	"repro/internal/workload"
)

// The sharded-equivalence property: for every key-partitionable operator,
// consistency level and delivery disorder, running N shards behind the
// deterministic merge produces byte-identical output — and identical
// combined metrics — to the single-shard monitor, for every shard count.
// Together with internal/consistency's frozen-reference property tests this
// proves the sharded runtime is a pure performance change.

func shardRandSource(rng *rand.Rand, n int) stream.Stream {
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
			"g": int64(rng.Intn(6)),
			"x": float64(rng.Intn(100)) / 4,
		}))
	}
	return s.SortBySync()
}

type shardOpCase struct {
	name  string
	mk    func() operators.Op
	route func(shards int) func(event.Event) int
}

func shardOpCases() []shardOpCase {
	byAttr := func(attr string) func(int) func(event.Event) int {
		return func(n int) func(event.Event) int { return RouteByAttr(attr, n) }
	}
	byID := func(n int) func(event.Event) int { return RouteByID(n) }
	return []shardOpCase{
		{"count-by-g", func() operators.Op { return operators.NewAggregate(operators.Count, "", "g") }, byAttr("g")},
		{"avg-by-g", func() operators.Op { return operators.NewAggregate(operators.Avg, "x", "g") }, byAttr("g")},
		{"select", func() operators.Op {
			return operators.NewSelect(func(p event.Payload) bool {
				v, _ := event.Num(p["x"])
				return v >= 5
			})
		}, byID},
		{"window", func() operators.Op { return operators.Window(15) }, byID},
	}
}

// runPlainOp is the single-shard reference: one monitor, pushed in arrival
// order, optionally switching levels mid-stream.
func runPlainOp(mk func() operators.Op, spec consistency.Spec, in stream.Stream,
	switchAt int, switchTo consistency.Spec) (stream.Stream, consistency.Metrics) {
	m := consistency.NewMonitor(mk(), spec)
	var out stream.Stream
	for i, e := range in {
		out = append(out, m.Push(0, e)...)
		if switchAt > 0 && i+1 == switchAt {
			out = append(out, m.SetSpec(switchTo)...)
		}
	}
	out = append(out, m.Finish()...)
	return out, m.Metrics()
}

// runPlainPlan is the plan-level reference, independent of the shard
// runtime: fresh instances of the plan's stages, one monitor around the
// head driven by the plain Push/SetSpec/Finish calls, and every data item
// it emits mapped through the later stages' Process in order, punctuation
// passed unchanged. It is fed the plan's routed input: the items of in
// that reacts admits, as the engine delivers them. With switchAt > 0 the
// level switches to switchTo after the first switchAt items of in.
func runPlainPlan(t *testing.T, p *plan.Plan, in stream.Stream,
	switchAt int, switchTo consistency.Spec) (stream.Stream, []consistency.Metrics) {
	t.Helper()
	fp := p.Fresh()
	head := consistency.NewMonitor(fp.Stages[0], fp.Spec)
	var out stream.Stream
	emit := func(batch []event.Event) {
		out = append(out, mapStages(fp.Stages[1:], batch)...)
	}
	for i, e := range in {
		if reacts(p, e) {
			emit(head.Push(0, e))
		}
		if switchAt > 0 && i+1 == switchAt {
			emit(head.SetSpec(switchTo))
		}
	}
	emit(head.Finish())
	return out, []consistency.Metrics{head.Metrics()}
}

// mapStages maps every data item of batch through stages by their Process,
// in order, and passes punctuation unchanged.
func mapStages(stages []operators.Op, batch []event.Event) []event.Event {
	var out []event.Event
	for _, e := range batch {
		items := []event.Event{e}
		if !e.IsCTI() {
			for _, op := range stages {
				var next []event.Event
				for _, it := range items {
					next = append(next, op.Process(0, it)...)
				}
				items = next
			}
		}
		out = append(out, items...)
	}
	return out
}

// shardBurstGrid is the router burst-size sweep the differential grids run
// under: single-item handoff, a bound that straddles run boundaries
// unevenly, the default, and unbounded (flush only on punctuation and
// control items). Output must be byte-identical across all of them.
var shardBurstGrid = []int{1, 7, DefaultBurst, -1}

// runShardedOpSwitch drives the sharded runtime over the same sequence.
func runShardedOpSwitch(mk func() operators.Op, spec consistency.Spec, n, burst int,
	route func(event.Event) int, in stream.Stream,
	switchAt int, switchTo consistency.Spec) (stream.Stream, consistency.Metrics) {
	var c collector
	sh, err := newSharded("test", n, burst,
		func(int) []operators.Op { return []operators.Op{mk()} },
		spec, route, &c)
	if err != nil {
		panic(err)
	}
	for i, e := range in {
		sh.push(e)
		if switchAt > 0 && i+1 == switchAt {
			sh.setSpec(switchTo)
		}
	}
	sh.finish()
	met := sh.metrics()[0]
	return c.out, met
}

// compareStreams requires got and want to be identical item for item:
// reflect.DeepEqual, except that a NaN payload value — which DeepEqual
// never accepts, not even against itself — compares by its bits.
func compareStreams(t *testing.T, label string, got, want stream.Stream) {
	t.Helper()
	n := len(got)
	if len(want) < n {
		n = len(want)
	}
	for i := 0; i < n; i++ {
		if !reflect.DeepEqual(nanBits(got[i]), nanBits(want[i])) {
			t.Fatalf("%s: output[%d] differs\n got: %v\nwant: %v", label, i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: output length %d, want %d (first %d identical)", label, len(got), len(want), n)
	}
}

// nanBits returns e with every NaN payload value replaced by its bits, a
// uint64, which no payload value otherwise is.
func nanBits(e event.Event) event.Event {
	var p event.Payload
	for k, v := range e.Payload {
		if f, ok := v.(float64); ok && f != f {
			if p == nil {
				p = maps.Clone(e.Payload)
			}
			p[k] = math.Float64bits(f)
		}
	}
	if p != nil {
		e.Payload = p
	}
	return e
}

func TestShardedOpEquivalence(t *testing.T) {
	cases := shardOpCases()
	for trial := 0; trial < 6; trial++ {
		rng := rand.New(rand.NewSource(4242 + int64(trial)))
		src := shardRandSource(rng, 150+rng.Intn(150))
		if trial%2 == 1 {
			// Optimistic insert-then-retract rewrites exercise retraction
			// routing (the retract carries the key and follows its insert).
			src = workload.Corrections(rng.Int63(), 0.3, src)
		}
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
		levels := []consistency.Spec{
			consistency.Strong(),
			consistency.Middle(),
			consistency.Weak(0),
			consistency.Weak(temporal.Duration(rng.Intn(60) + 1)),
			consistency.Level(temporal.Duration(rng.Intn(30)), consistency.Unbounded),
			consistency.Level(temporal.Duration(rng.Intn(20)), temporal.Duration(rng.Intn(80)+20)),
		}
		for ci, tc := range cases {
			for li, spec := range levels {
				want, wantMet := runPlainOp(tc.mk, spec, delivered, 0, consistency.Spec{})
				for ni, n := range []int{1, 2, 4, 8} {
					// Every (trial, op, level, shards) cell runs under a
					// burst size from the grid, rotated so each size covers
					// every op, level and shard count across the suite; the
					// dedicated sweeps below additionally run the full
					// cross-product on one op.
					burst := shardBurstGrid[(trial+ci+li+ni)%len(shardBurstGrid)]
					label := fmt.Sprintf("trial %d op %s level %s shards %d burst %d", trial, tc.name, spec.Name(), n, burst)
					got, gotMet := runShardedOpSwitch(tc.mk, spec, n, burst, tc.route(n), delivered, 0, consistency.Spec{})
					compareStreams(t, label, got, want)
					if gotMet != wantMet {
						t.Fatalf("%s: metrics diverge\n got: %+v\nwant: %+v", label, gotMet, wantMet)
					}
				}
			}
		}
	}
}

// Mid-stream level switching must commute with sharding: the switch takes
// effect at the same input position on every shard.
func TestShardedSetSpecMidStream(t *testing.T) {
	levels := []consistency.Spec{
		consistency.Strong(), consistency.Middle(),
		consistency.Weak(25), consistency.Level(10, 50),
	}
	mk := func() operators.Op { return operators.NewAggregate(operators.Count, "", "g") }
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(777 + int64(trial)))
		src := shardRandSource(rng, 120)
		delivered := delivery.Deliver(src,
			delivery.Disordered(rng.Int63(), 40, 50, 0.3))
		from := levels[rng.Intn(len(levels))]
		to := levels[rng.Intn(len(levels))]
		at := len(delivered)/3 + rng.Intn(len(delivered)/3)
		n := 1 + rng.Intn(8)
		want, wantMet := runPlainOp(mk, from, delivered, at, to)
		for _, burst := range shardBurstGrid {
			label := fmt.Sprintf("switch trial %d %s->%s@%d shards %d burst %d", trial, from.Name(), to.Name(), at, n, burst)
			got, gotMet := runShardedOpSwitch(mk, from, n, burst, RouteByAttr("g", n), delivered, at, to)
			compareStreams(t, label, got, want)
			if gotMet != wantMet {
				t.Fatalf("%s: metrics diverge\n got: %+v\nwant: %+v", label, gotMet, wantMet)
			}
		}
	}
}

// The full burst-size cross-product on one op: shards × burst × disorder,
// with Corrections in the stream so retract routing crosses run
// boundaries. Proves the router's flush boundaries are semantics-free.
func TestShardedBurstGridEquivalence(t *testing.T) {
	mk := func() operators.Op { return operators.NewAggregate(operators.Count, "", "g") }
	for trial := 0; trial < 2; trial++ {
		rng := rand.New(rand.NewSource(606 + int64(trial)))
		src := workload.Corrections(rng.Int63(), 0.3, shardRandSource(rng, 200))
		var cfg delivery.Config
		if trial == 0 {
			cfg = delivery.Ordered(temporal.Duration(rng.Intn(40) + 5))
		} else {
			cfg = delivery.Disordered(rng.Int63(), 80, 40, 0.3)
		}
		delivered := delivery.Deliver(src, cfg)
		want, wantMet := runPlainOp(mk, consistency.Middle(), delivered, 0, consistency.Spec{})
		for _, n := range []int{1, 2, 4, 8} {
			for _, burst := range shardBurstGrid {
				label := fmt.Sprintf("burst grid trial %d shards %d burst %d", trial, n, burst)
				got, gotMet := runShardedOpSwitch(mk, consistency.Middle(), n, burst, RouteByAttr("g", n), delivered, 0, consistency.Spec{})
				compareStreams(t, label, got, want)
				if gotMet != wantMet {
					t.Fatalf("%s: metrics diverge\n got: %+v\nwant: %+v", label, gotMet, wantMet)
				}
			}
		}
	}
}

// pairsQuery is a two-stage plan: a keyed matcher head and the OUTPUT
// projection mapped over its output.
const pairsQuery = `EVENT Pairs WHEN SEQUENCE(INSTALL x, SHUTDOWN y, 12 hours)
WHERE CorrelationKey(Machine_Id, EQUAL) SC(each, consume)
OUTPUT x.Machine_Id AS machine`

// Compiled plans (pattern head, stateless stages after it) through the
// engine: at every shard count, level and mid-stream level switch the query
// must reproduce the plain head monitor's output mapped item by item and
// its metrics exactly (runPlainPlan, which shares no code with the shard
// runtime). Only the head runs under a monitor, so the chain reports one
// entry of metrics.
func TestShardedPlanEquivalence(t *testing.T) {
	defer leakcheck.Check(t)()
	queries := []struct {
		name string
		src  string
	}{
		{"unless", monitorQuery},
		{"sequence-output", pairsQuery},
	}
	events, _ := workload.MachineEvents(workload.DefaultMachines())
	// strong-keys: a matcher that moved its own frontier inside Process
	// matured every key's detections on the owning shard only, so sharded
	// Strong swapped alerts of different keys on this stream (output[30]
	// at 2 shards).
	swapped, _ := workload.MachineEvents(workload.Machines{Seed: 4, Machines: 12, Cycles: 6,
		RestartDeadline: 5 * temporal.Minute, MissProb: 0.4, CycleGap: 30 * temporal.Minute})
	streams := []struct {
		name string
		in   stream.Stream
	}{
		{"ordered", delivery.Deliver(events, delivery.Ordered(10*temporal.Minute))},
		{"disordered", delivery.Deliver(events,
			delivery.Disordered(9, 10*temporal.Minute, 2*temporal.Minute, 0.3))},
		{"durability", durabilityWorkload()},
		{"strong-keys", delivery.Deliver(swapped,
			delivery.Disordered(4, 10*temporal.Minute, 20*temporal.Minute, 0.2))},
	}
	levels := []consistency.Spec{
		consistency.Strong(),
		consistency.Middle(),
		consistency.Level(temporal.Minute, consistency.Unbounded),
		consistency.Weak(5 * temporal.Minute),
	}
	// Each level runs without a switch and with a switch to Middle and to
	// Strong at a third of the stream.
	switches := []*consistency.Spec{nil, ptr(consistency.Middle()), ptr(consistency.Strong())}
	for _, qc := range queries {
		for _, sc := range streams {
			for _, spec := range levels {
				p, err := plan.Compile(qc.src, plan.WithSpec(spec))
				if err != nil {
					t.Fatal(err)
				}
				for _, to := range switches {
					switchAt, switchTo, label := 0, consistency.Spec{}, spec.Name()
					if to != nil {
						switchAt, switchTo = len(sc.in)/3, *to
						label += "->" + to.Name()
					}
					want, wantMet := runPlainPlan(t, p, sc.in, switchAt, switchTo)
					for _, n := range []int{1, 2, 4, 8} {
						label := fmt.Sprintf("%s %s %s shards=%d", qc.name, sc.name, label, n)
						e := New()
						q, err := e.RegisterText(qc.src, plan.WithSpec(spec), plan.WithShards(n))
						if err != nil {
							t.Fatal(err)
						}
						if q.Shards() != n {
							t.Fatalf("%s: plan did not shard: %s", label, q.Plan().Explain())
						}
						for i, ev := range sc.in {
							e.Push(ev)
							if i+1 == switchAt {
								q.SetSpec(switchTo)
							}
						}
						e.Finish()
						compareStreams(t, label, q.Results(), want)
						gotMet := q.Metrics()
						if len(gotMet) != len(wantMet) {
							t.Fatalf("%s: %d metric stages, want %d", label, len(gotMet), len(wantMet))
						}
						for j := range gotMet {
							if gotMet[j] != wantMet[j] {
								t.Fatalf("%s: stage %d metrics diverge\n got: %+v\nwant: %+v", label, j, gotMet[j], wantMet[j])
							}
						}
					}
				}
			}
		}
	}
}

func ptr[T any](v T) *T { return &v }

// The shard router keys on what CorrelationKey(attr, EQUAL) compares
// (event.Key): a key sent once as an int64 and once as a float64 is one key
// to the matcher, so it must be one shard — rendering the two apart ("1234570"
// vs "1.23457e+06") split the pair and lost its alert. −0 and 0 are one key
// too; NaN, never equal to itself, is wild and matches nothing.
func TestShardedMixedNumericKeys(t *testing.T) {
	defer leakcheck.Check(t)()
	const src = `EVENT Pair WHEN SEQUENCE(INSTALL x, SHUTDOWN y, 1 hour)
WHERE CorrelationKey(Machine_Id, EQUAL)`
	var events stream.Stream
	at := temporal.Time(0)
	add := func(typ string, key event.Value) {
		at = at.Add(temporal.Second)
		events = append(events, event.NewInsert(event.ID(len(events)+1), typ, at, temporal.Infinity,
			event.Payload{"Machine_Id": key}))
	}
	const keys = 16
	for k := 0; k < keys; k++ {
		v := int64(123457+1009*k) * 10 // %v renders float64(v) in exponent form
		add("INSTALL", v)
		add("SHUTDOWN", float64(v))
	}
	add("INSTALL", math.Copysign(0, -1))
	add("SHUTDOWN", 0.0)
	add("INSTALL", math.NaN())
	add("SHUTDOWN", math.NaN())
	delivered := delivery.Deliver(events, delivery.Ordered(10*temporal.Minute))
	want := run(t, src, delivered)
	if got := alerts(want); got != keys+1 {
		t.Fatalf("one shard found %d alerts, want %d", got, keys+1)
	}
	for _, n := range []int{2, 4, 8} {
		q := run(t, src, delivered, plan.WithShards(n))
		if q.Shards() != n {
			t.Fatalf("shards=%d: plan did not shard: %s", n, q.Plan().Explain())
		}
		compareStreams(t, fmt.Sprintf("shards=%d", n), q.Results(), want.Results())
	}
}

// Non-partitionable plans must fall back to one shard, with the verdict
// visible in Explain.
func TestShardedPartitionFallback(t *testing.T) {
	cases := []struct {
		src string
		why string
	}{
		// No correlation key: state does not decompose.
		{`EVENT Seq WHEN SEQUENCE(A a, B b, 10)`, "no CorrelationKey"},
		// first-selection couples keys.
		{`EVENT Seq WHEN SEQUENCE(A a, B b, 10)
WHERE CorrelationKey(k, EQUAL) SC(first, consume)`, "first/last"},
	}
	for _, tc := range cases {
		e := New()
		q, err := e.RegisterText(tc.src, plan.WithShards(4))
		if err != nil {
			t.Fatal(err)
		}
		if q.Shards() != 1 {
			t.Errorf("%q: sharded despite %s", tc.src, tc.why)
		}
		if q.Plan().Part.OK() {
			t.Errorf("%q: partition analysis passed, want refusal (%s)", tc.src, tc.why)
		}
	}
	// And the partitionable case does shard.
	e := New(WithShards(4))
	q, err := e.RegisterText(monitorQuery)
	if err != nil {
		t.Fatal(err)
	}
	if q.Shards() != 4 {
		t.Errorf("partitionable query not sharded: %s", q.Plan().Explain())
	}
}

// Subscribers on sharded queries observe the merged deterministic order.
func TestShardedSubscribe(t *testing.T) {
	defer leakcheck.Check(t)()
	events, expected := workload.MachineEvents(workload.DefaultMachines())
	delivered := delivery.Deliver(events, delivery.Ordered(10*temporal.Minute))
	e := New()
	q, err := e.RegisterText(monitorQuery, plan.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	var seen []event.Event
	subscribe(q, func(ev event.Event) { seen = append(seen, ev) })
	e.Run(delivered)
	got := 0
	for _, ev := range seen {
		if !ev.IsCTI() && ev.Kind == event.Insert {
			got++
		}
	}
	if got != expected {
		t.Errorf("subscriber alerts = %d, want %d", got, expected)
	}
	compareStreams(t, "subscribe vs results", stream.Stream(seen), q.Results())
}

// TestShardsShareOneChain: a shard count is not part of the sharing
// identity. Sharing registrations of one query at 4 shards, 1 shard and
// AutoShards — in that order and in reverse — attach to the first
// registrant's chain and report its shard count, and every endpoint's
// results and tags equal an unshared one-shard run's.
func TestShardsShareOneChain(t *testing.T) {
	defer leakcheck.Check(t)()
	in := durabilityWorkload()
	want := run(t, monitorQuery, in, plan.WithShards(1))
	for _, order := range [][]int{{4, 1, plan.AutoShards}, {plan.AutoShards, 1, 4}} {
		e := New()
		var qs []*Query
		for _, n := range order {
			q, err := e.RegisterText(monitorQuery, plan.WithSharing(), plan.WithShards(n))
			if err != nil {
				t.Fatal(err)
			}
			qs = append(qs, q)
		}
		e.Run(in)
		if order[0] == 4 && qs[0].Shards() != 4 {
			t.Fatalf("%v: first registrant runs on %d shards, want 4", order, qs[0].Shards())
		}
		for i, q := range qs {
			label := fmt.Sprintf("%v: endpoint %d", order, i)
			if q.ch != qs[0].ch {
				t.Errorf("%s has its own chain", label)
			}
			if q.Shards() != qs[0].Shards() {
				t.Errorf("%s reports %d shards, the chain runs %d", label, q.Shards(), qs[0].Shards())
			}
			compareStreams(t, label, q.Results(), want.Results())
			if !reflect.DeepEqual(q.Tags(), want.Tags()) {
				t.Errorf("%s: tags differ from the unshared run's", label)
			}
		}
	}
}

// The compile cache must hand out independent operator instances per
// registration: two queries from one source never share state.
func TestCompileCacheIndependentInstances(t *testing.T) {
	p1, err := plan.Compile(monitorQuery)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := plan.Compile(monitorQuery)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p1.Stages {
		if p1.Stages[i] == p2.Stages[i] {
			t.Fatalf("stage %d shared between compilations", i)
		}
	}
	if fp := p1.Fresh(); fp.Stages[0] == p1.Stages[0] {
		t.Fatal("Fresh returned the original stage instance")
	}
}

// Finish closes a query on every execution mode: later pushes are dropped
// on single-shard and sharded queries alike.
func TestPushAfterFinishUniform(t *testing.T) {
	defer leakcheck.Check(t)()
	events, _ := workload.MachineEvents(workload.DefaultMachines())
	delivered := delivery.Deliver(events, delivery.Ordered(10*temporal.Minute))
	half := len(delivered) / 2
	for _, n := range []int{1, 4} {
		e := New()
		q, err := e.RegisterText(monitorQuery, plan.WithShards(n))
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range delivered[:half] {
			q.ch.push(ev)
		}
		q.ch.sh.finish()
		got := len(q.Results())
		for _, ev := range delivered[half:] {
			q.ch.push(ev)
		}
		q.ch.sh.finish()
		if after := len(q.Results()); after != got {
			t.Errorf("shards=%d: %d items appeared after Finish (closed query must drop pushes)", n, after-got)
		}
	}
}

// Concurrent RegisterText traffic (same and different sources) while events
// are in flight: exercises the compile cache and the Register/Push snapshot
// under the race detector. Without a sync point the ~100 private chains
// never trim their alignment state and every push walks all of it, so plain
// `go test` punctuates the stream; with CEDR_EVERY_BOUNDARY set (the
// fault-injection CI job) it runs unpunctuated as before.
func TestConcurrentRegisterTextAndPush(t *testing.T) {
	syncEvery := 100
	if fullSweep {
		syncEvery = 0
	}
	defer leakcheck.Check(t)()
	eng := New()
	if _, err := eng.RegisterText(`EVENT Out WHEN ANY(E e)`); err != nil {
		t.Fatal(err)
	}
	done := make(chan error)
	for g := 0; g < 4; g++ {
		go func(g int) {
			var err error
			for i := 0; i < 25; i++ {
				src := `EVENT Out WHEN ANY(E e)`
				if i%2 == 0 {
					src = fmt.Sprintf(`EVENT Out%d WHEN ANY(E e)`, g)
				}
				if _, e := eng.RegisterText(src); e != nil {
					err = e
					break
				}
			}
			done <- err
		}(g)
	}
	for i := 0; i < 3000; i++ {
		ev := event.NewInsert(event.ID(i+1), "E", temporal.Time(i), temporal.Time(i+5), nil)
		ev.C = temporal.From(temporal.Time(i))
		eng.Push(ev)
		if syncEvery > 0 && i%syncEvery == syncEvery-1 {
			eng.Push(event.NewCTI(temporal.Time(i)))
		}
	}
	for g := 0; g < 4; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	eng.Finish()
	if qs := eng.Queries(); len(qs) != 101 {
		t.Fatalf("registered %d queries, want 101", len(qs))
	}
}

// RouteByID routes events by their fact ID; retractions share their
// insert's ID and follow it to the same shard.
func RouteByID(shards int) func(event.Event) int {
	return func(ev event.Event) int {
		return int(uint64(event.Pair(ev.ID)) % uint64(shards))
	}
}
