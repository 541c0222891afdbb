package engine

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/algebra"
	"repro/internal/consistency"
	"repro/internal/delivery"
	"repro/internal/event"
	"repro/internal/lang"
	"repro/internal/leakcheck"
	"repro/internal/operators"
	"repro/internal/plan"
	"repro/internal/stream"
	"repro/internal/temporal"
	"repro/internal/workload"
)

const monitorQuery = `
EVENT MissedRestart
WHEN UNLESS(SEQUENCE(INSTALL x, SHUTDOWN AS y, 12 hours),
            RESTART AS z, 5 minutes)
WHERE CorrelationKey(Machine_Id, EQUAL)
SC(each, consume)
`

// TestEndpointSize: an endpoint is its window over a chain and little
// else — its name and engine are the chain's, and its query id is an
// int32 beside the unregistered flag — so a fabric of 10,000 endpoints
// costs 48 B each, an exact size class (64 B while the id was an int).
func TestEndpointSize(t *testing.T) {
	if n := unsafe.Sizeof(Query{}); n > 48 {
		t.Fatalf("a Query endpoint takes %d B, above 48", n)
	}
}

func run(t *testing.T, src string, s stream.Stream, opts ...plan.Option) *Query {
	t.Helper()
	e := New()
	q, err := e.RegisterText(src, opts...)
	if err != nil {
		t.Fatal(err)
	}
	e.Run(s)
	return q
}

func alerts(q *Query) int { return inserts(q.Results()) }

func inserts(s stream.Stream) int {
	n := 0
	for _, ev := range s.Events() {
		if ev.Kind == event.Insert {
			n++
		}
	}
	return n
}

func TestEndToEndCIDR07OnOrderedDelivery(t *testing.T) {
	src, expected := workload.MachineEvents(workload.DefaultMachines())
	delivered := delivery.Deliver(src, delivery.Ordered(10*temporal.Minute))
	q := run(t, monitorQuery, delivered)
	if got := alerts(q); got != expected {
		t.Errorf("alerts = %d, want %d", got, expected)
	}
}

func TestEndToEndConvergesUnderDisorder(t *testing.T) {
	src, expected := workload.MachineEvents(workload.DefaultMachines())
	for _, spec := range []consistency.Spec{consistency.Strong(), consistency.Middle()} {
		delivered := delivery.Deliver(src,
			delivery.Disordered(11, int64ToDur(10*temporal.Minute), 2*temporal.Minute, 0.3))
		q := run(t, monitorQuery, delivered, plan.WithSpec(spec))
		// Net alerts: inserts minus retractions must equal the expected
		// count once the stream completes.
		net := 0
		for _, ev := range q.Results().Events() {
			if ev.Kind == event.Insert {
				net++
			} else {
				net--
			}
		}
		if net != expected {
			t.Errorf("%s: net alerts = %d, want %d", spec.Name(), net, expected)
		}
	}
}

func int64ToDur(d temporal.Duration) temporal.Duration { return d }

func TestSubscribeCallback(t *testing.T) {
	src, expected := workload.MachineEvents(workload.DefaultMachines())
	delivered := delivery.Deliver(src, delivery.Ordered(10*temporal.Minute))
	e := New()
	q, err := e.RegisterText(monitorQuery)
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	subscribe(q, func(ev event.Event) {
		if !ev.IsCTI() && ev.Kind == event.Insert {
			got++
		}
	})
	e.Run(delivered)
	if got != expected {
		t.Errorf("callback alerts = %d, want %d", got, expected)
	}
}

func TestMultipleQueriesShareInput(t *testing.T) {
	src, expected := workload.MachineEvents(workload.DefaultMachines())
	delivered := delivery.Deliver(src, delivery.Ordered(10*temporal.Minute))
	e := New()
	q1, err := e.RegisterText(monitorQuery)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := e.RegisterText(`EVENT AnyInstall WHEN ANY(INSTALL i)`)
	if err != nil {
		t.Fatal(err)
	}
	e.Run(delivered)
	if alerts(q1) != expected {
		t.Errorf("q1 alerts = %d, want %d", alerts(q1), expected)
	}
	cfg := workload.DefaultMachines()
	wantInstalls := cfg.Machines * cfg.Cycles
	if alerts(q2) != wantInstalls {
		t.Errorf("q2 outputs = %d, want %d", alerts(q2), wantInstalls)
	}
	if e.Query(q1.ID()) != q1 || e.Query(q2.ID()) != q2 {
		t.Error("query lookup failed")
	}
	if e.Query(-1) != nil || e.Query(2) != nil {
		t.Error("phantom query found")
	}
	q1.Unregister()
	if e.Query(q1.ID()) != nil || e.Query(q2.ID()) != q2 {
		t.Error("an unregistered id still resolves, or a survivor's id moved")
	}
}

func TestRuntimeSpecSwitch(t *testing.T) {
	src, expected := workload.MachineEvents(workload.DefaultMachines())
	delivered := delivery.Deliver(src,
		delivery.Disordered(5, 10*temporal.Minute, 2*temporal.Minute, 0.25))
	e := New()
	q, err := e.RegisterText(monitorQuery, plan.WithSpec(consistency.Middle()))
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range delivered {
		e.Push(ev)
		if i == len(delivered)/2 {
			q.SetSpec(consistency.Strong())
		}
	}
	e.Finish()
	net := 0
	for _, ev := range q.Results().Events() {
		if ev.Kind == event.Insert {
			net++
		} else {
			net--
		}
	}
	if net != expected {
		t.Errorf("net alerts after switch = %d, want %d", net, expected)
	}
}

func TestPlanSpecializationFires(t *testing.T) {
	p, err := plan.Compile(`EVENT Seq WHEN SEQUENCE(A a, B b, 10)
WHERE {a.k = b.k}`)
	if err != nil {
		t.Fatal(err)
	}
	// The spanning {a.k = b.k} equality also triggers correlation-key
	// pushdown into the matcher tree, ahead of the incremental-pattern tag.
	fired := map[string]bool{}
	for _, r := range p.Rewrites {
		fired[r] = true
	}
	if !fired["incremental-pattern"] || !fired["correlation-pushdown(k)"] {
		t.Errorf("rewrites = %v", p.Rewrites)
	}
	if !strings.HasPrefix(p.Stages[0].Name(), "incpattern:") {
		t.Errorf("stage 0 = %s", p.Stages[0].Name())
	}
	if generic := oracleOp(t, `EVENT Seq WHEN SEQUENCE(A a, B b, 10)`); !strings.HasPrefix(generic.Name(), "pattern:") {
		t.Errorf("reference op = %s", generic.Name())
	}
	if p.Explain() == "" {
		t.Error("Explain empty")
	}
}

// TestRunningPlanExplainsItsStages: a registered query's plan holds no
// operator instances — the chain's runtime owns them, so a spent chain can
// let go of them — yet it explains itself exactly as the plan compiled
// from the same source and options does, before input and after Finish.
func TestRunningPlanExplainsItsStages(t *testing.T) {
	defer leakcheck.Check(t)()
	for _, c := range []struct {
		src  string
		opts []plan.Option
	}{
		{monitorQuery, nil},
		{pairsQuery, []plan.Option{plan.WithShards(4)}},
		{keyedTemplate, []plan.Option{bindM("m001"), plan.WithSharing(), plan.WithSpec(consistency.Strong())}},
	} {
		p, err := plan.Compile(c.src, c.opts...)
		if err != nil {
			t.Fatal(err)
		}
		e := New()
		q, err := e.RegisterText(c.src, c.opts...)
		if err != nil {
			t.Fatal(err)
		}
		check := func(when string) {
			t.Helper()
			if got := q.Plan(); len(got.Stages) != 0 || got.Explain() != p.Explain() {
				t.Errorf("%s %s: a running plan holds %d stages and explains\n%s\nwant none and\n%s",
					p.Name, when, len(got.Stages), got.Explain(), p.Explain())
			}
		}
		check("before input")
		e.Run(durabilityWorkload())
		check("after Finish")
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// oracleOp builds the reference operator of a pattern-only query: the
// semi-naive re-deriving evaluator where plan.Compile puts the incremental
// matcher tree.
func oracleOp(t *testing.T, src string) operators.Op {
	t.Helper()
	an, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	return algebra.NewPatternOp(an.Expr, an.Mode, an.Query.Name)
}

// The specialized plan (the incremental matcher tree plan.Compile builds)
// and the semi-naive re-deriving oracle must produce identical detections.
func TestSpecializedPlanEquivalence(t *testing.T) {
	src, _ := workload.MachineEvents(workload.DefaultMachines())
	delivered := delivery.Deliver(src, delivery.Ordered(10*temporal.Minute))
	const q = `EVENT InstallShutdown WHEN SEQUENCE(INSTALL x, SHUTDOWN y, 12 hours)
WHERE {x.Machine_Id = y.Machine_Id} SC(each, consume)`
	fast := run(t, q, delivered)
	slow, _ := consistency.RunStreams(oracleOp(t, q), consistency.Middle(), delivered)
	if alerts(fast) == 0 || alerts(fast) != inserts(slow) {
		t.Errorf("fast = %d, slow = %d", alerts(fast), inserts(slow))
	}
}

func TestOutputClauseProjection(t *testing.T) {
	src, _ := workload.MachineEvents(workload.DefaultMachines())
	delivered := delivery.Deliver(src, delivery.Ordered(10*temporal.Minute))
	q := run(t, `EVENT Pairs WHEN SEQUENCE(INSTALL x, SHUTDOWN y, 12 hours)
WHERE {x.Machine_Id = y.Machine_Id} SC(each, consume)
OUTPUT x.Machine_Id AS machine`, delivered)
	evs := q.Results().Events()
	if len(evs) == 0 {
		t.Fatal("no outputs")
	}
	for _, ev := range evs {
		if ev.Kind != event.Insert {
			continue
		}
		if _, ok := ev.Payload["machine"]; !ok {
			t.Fatalf("projected payload missing field: %v", ev.Payload)
		}
		if len(ev.Payload) != 1 {
			t.Fatalf("projection kept extra fields: %v", ev.Payload)
		}
	}
}

func TestSlicedQuery(t *testing.T) {
	var src stream.Stream
	for i := 0; i < 20; i++ {
		src = append(src, event.NewInsert(event.ID(i+1), "A",
			temporal.Time(i*10), temporal.Time(i*10+5), nil))
	}
	delivered := delivery.Deliver(src, delivery.Ordered(50))
	q := run(t, `EVENT Sliced WHEN ANY(A a) # [50, 100)`, delivered)
	for _, ev := range q.Results().Events() {
		if ev.V.Start < 50 || ev.V.End > 100 {
			t.Fatalf("output outside slice: %v", ev.V)
		}
	}
	if alerts(q) == 0 {
		t.Fatal("slice removed everything")
	}
}

// Concurrent Register while Push traffic is flowing: the engine snapshots
// the query list per push instead of locking and copying it per event, and
// late-registered queries must only see subsequent events.
func TestConcurrentRegisterAndPush(t *testing.T) {
	defer leakcheck.Check(t)()
	eng := New()
	register := func() (*Query, error) { return eng.RegisterText(`EVENT Out WHEN ANY(E e)`) }
	first, err := register()
	if err != nil {
		t.Fatal(err)
	}

	const n = 2000
	type regResult struct {
		late []*Query
		err  error
	}
	done := make(chan regResult)
	go func() {
		var r regResult
		for i := 0; i < 40; i++ {
			q, err := register()
			if err != nil {
				r.err = err
				break
			}
			r.late = append(r.late, q)
		}
		done <- r
	}()
	for i := 0; i < n; i++ {
		ev := event.NewInsert(event.ID(i+1), "E", temporal.Time(i), temporal.Time(i+5), nil)
		ev.C = temporal.From(temporal.Time(i))
		eng.Push(ev)
	}
	reg := <-done
	eng.Finish()
	if reg.err != nil {
		t.Fatal(reg.err)
	}
	late := reg.late

	if got := len(first.Results().Events()); got != n {
		t.Fatalf("first query saw %d events, want %d", got, n)
	}
	for i, q := range late {
		if got := len(q.Results().Events()); got > n {
			t.Fatalf("late query %d saw %d events (> %d pushed)", i, got, n)
		}
	}
	if qs := eng.Queries(); len(qs) != 41 {
		t.Fatalf("registered %d queries, want 41", len(qs))
	}
}

// The slice returned by chain.push aliases the one-shard runtime's reused
// burst; it must carry the per-push outputs correctly across consecutive
// pushes.
func TestQueryPushReusesBatchBuffers(t *testing.T) {
	eng := New()
	q, err := eng.RegisterText(`EVENT Out WHEN ANY(E e)`)
	if err != nil {
		t.Fatal(err)
	}
	var collected []event.ID
	for i := 0; i < 100; i++ {
		ev := event.NewInsert(event.ID(i+1), "E", temporal.Time(i), temporal.Time(i+1), nil)
		ev.C = temporal.From(temporal.Time(i))
		for _, o := range q.ch.push(ev) {
			if o.Kind == event.Insert {
				collected = append(collected, o.ID)
			}
		}
	}
	if len(collected) != 100 {
		t.Fatalf("collected %d outputs, want 100", len(collected))
	}
	seen := map[event.ID]bool{}
	for _, id := range collected {
		if seen[id] {
			t.Fatalf("duplicate output id %v: buffer reuse leaked stale items", id)
		}
		seen[id] = true
	}
}

// TestMetricsWhilePushing: Metrics may be read while another goroutine
// pushes, as a served query's are (its pushes run on the server's
// goroutine). It reads under the chain's lock once the shards have drained,
// so the race detector sees no race, and the metrics at the end are a
// sequential run's.
func TestMetricsWhilePushing(t *testing.T) {
	src, _ := workload.MachineEvents(workload.DefaultMachines())
	in := delivery.Deliver(src, delivery.Ordered(10*temporal.Minute))
	for _, shards := range []int{1, 2} {
		drive := func(read bool) ([]consistency.Metrics, int) {
			e := New()
			defer e.Close()
			q, err := e.RegisterText(monitorQuery, plan.WithShards(shards))
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				for _, ev := range in {
					e.Push(ev)
				}
			}()
			reads := 0
			for ; read; reads++ {
				select {
				case <-done:
					read = false
				default:
					q.Metrics()
				}
			}
			<-done
			return q.Metrics(), reads
		}
		got, reads := drive(true)
		want, _ := drive(false)
		t.Logf("%d shards: %d reads while pushing", shards, reads)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d shards: metrics read while pushing end at %+v, a sequential run's at %+v", shards, got, want)
		}
	}
}
