// Standing-query fabric differentials: a fleet of shared-plan queries must
// be byte-identical — outputs, order tags, metrics — to the same queries
// registered on independent engines fed the pre-filtered stream, across
// spec switches, stragglers, and mid-stream unregistration. Plus the fabric's
// structural guarantees: chain dedup, routing-index buckets, zero-alloc
// routing, last-reference teardown, and durable unregistration. Runs under
// -race in the dedicated CI fault-injection job.
package engine

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/consistency"
	"repro/internal/event"
	"repro/internal/leakcheck"
	"repro/internal/plan"
	"repro/internal/stream"
	"repro/internal/temporal"
	"repro/internal/wal"
)

// keyedTemplate is the CIDR07 query narrowed to one machine via a template
// parameter: binding m selects the routing key.
const keyedTemplate = `
EVENT MissedRestart
WHEN UNLESS(SEQUENCE(INSTALL x, SHUTDOWN AS y, 12 hours),
            RESTART AS z, 5 minutes)
WHERE CorrelationKey(Machine_Id, EQUAL) AND [Machine_Id Equal $m]
SC(each, consume)
`

func bindM(id string) plan.Option {
	return plan.WithBindings(map[string]event.Value{"m": id})
}

// reacts is the pre-filter routing must equal, written from the plan's
// routing claims alone: every CTI, and data whose TYPE the plan consumes
// and, for a keyed plan, whose key attribute holds the plan's key or no
// definite value, or which retracts.
func reacts(p *plan.Plan, ev event.Event) bool {
	if ev.IsCTI() {
		return true
	}
	if !slices.Contains(p.RouteTypes, ev.Type) {
		return false
	}
	want := event.KeyOf(p.RouteKeyVal)
	if p.RouteKeyAttr == "" || !want.Def() || ev.Kind == event.Retract {
		return true
	}
	k := event.KeyOf(ev.Payload[p.RouteKeyAttr])
	return !k.Def() || k == want
}

// withStrays interleaves the items routing must treat specially into a
// stream: after every third data item, at its arrival, one of a TYPE no
// query consumes, its twin with no Machine_Id or with a NaN one (wild
// keys), or a payload-less retraction removing it.
func withStrays(in stream.Stream) stream.Stream {
	out := make(stream.Stream, 0, len(in)+len(in)/3)
	n := 0
	for _, ev := range in {
		out = append(out, ev)
		if ev.IsCTI() {
			continue
		}
		if n++; n%3 != 0 {
			continue
		}
		stray := ev
		stray.ID = ev.ID + 1<<40
		switch n / 3 % 4 {
		case 0:
			stray.Type = "FIRMWARE"
		case 1:
			stray.Payload = event.Payload{"Build": int64(n)}
		case 2:
			stray.Payload = event.Payload{"Machine_Id": math.NaN()}
		case 3:
			stray = event.NewRetract(ev.ID, ev.Type, ev.V.Start, ev.V.Start, nil)
			stray.C = ev.C
		}
		out = append(out, stray)
	}
	return out
}

// TestFabricDifferentialFleet is the fabric's byte-identity witness, and
// the proof that routing equals pre-filtering: a fleet engine hosting a
// shared trio, a template pair, a template instance of its own and a plain
// query is driven over a disordered stream with stray items (withStrays),
// with a mid-stream consistency switch on the trio, a mid-stream
// unregistration of one template sibling, and a late (warm) attachment.
// Every endpoint's results, order tags and metrics must match a twin on an
// independent engine whose chain is fed directly, past the fabric, only
// the items reacts admits for its plan.
func TestFabricDifferentialFleet(t *testing.T) {
	defer leakcheck.Check(t)()
	in := withStrays(durabilityWorkload())
	text := func(src string, opts ...plan.Option) func(*Engine) *Query {
		return func(e *Engine) *Query {
			q, err := e.RegisterText(src, append(opts, plan.WithSharing())...)
			if err != nil {
				t.Fatal(err)
			}
			return q
		}
	}
	members := []func(*Engine) *Query{
		text(monitorQuery),                           // 0 ┐ shared trio:
		text(monitorQuery),                           // 1 │ one chain,
		text(monitorQuery),                           // 2 ┘ three endpoints
		text(keyedTemplate, bindM("m000")),           // 3 ┐ template pair,
		text(keyedTemplate, bindM("m000")),           // 4 ┘ one chain
		text(keyedTemplate, bindM("m001")),           // 5: own chain
		text(`EVENT AnyInstall WHEN ANY(INSTALL i)`), // 6: plain
	}
	specSwitchAt := len(in) / 3
	unregisterAt := 2 * len(in) / 3

	fleet := New()
	var fq, iq []*Query
	for _, reg := range members {
		fq = append(fq, reg(fleet))
		iq = append(iq, reg(New()))
	}
	if fq[0].ch != fq[1].ch || fq[1].ch != fq[2].ch {
		t.Fatal("shared trio did not dedup onto one chain")
	}
	if fq[3].ch != fq[4].ch || fq[3].ch == fq[5].ch {
		t.Fatal("template instances grouped wrong")
	}

	var late *Query
	for i, ev := range in {
		if i == specSwitchAt {
			// The switch addresses the shared chain, so it applies to the
			// whole trio; mirror it on all three twins.
			fq[0].SetSpec(consistency.Strong())
			for _, j := range []int{0, 1, 2} {
				iq[j].SetSpec(consistency.Strong())
			}
			// Late warm attachment to the trio's chain.
			late = text(monitorQuery)(fleet)
			if late.ch != fq[0].ch {
				t.Fatal("late registration did not join the warm chain")
			}
		}
		if i == unregisterAt {
			fq[4].Unregister()
			fq[4].Unregister() // idempotent
		}
		fleet.Push(ev)
		for j, q := range iq {
			if j == 4 && i >= unregisterAt {
				continue // frozen twin: the unregistered endpoint's prefix
			}
			if reacts(q.Plan(), ev) {
				q.ch.push(ev)
			}
		}
	}
	fleet.Finish()
	for j, q := range iq {
		if j != 4 {
			q.ch.sh.finish()
		}
	}

	for j := range members {
		compareStreams(t, fmt.Sprintf("query %d results", j), fq[j].Results(), iq[j].Results())
		if !reflect.DeepEqual(fq[j].Tags(), iq[j].Tags()) {
			t.Errorf("query %d order tags diverge", j)
		}
		// The unregistered endpoint's results are frozen at its prefix,
		// but Metrics reads the (still running) shared chain — skip it.
		if got, want := fq[j].Metrics(), iq[j].Metrics(); j != 4 && !reflect.DeepEqual(got, want) {
			t.Errorf("query %d metrics diverge\n got: %+v\nwant: %+v", j, got, want)
		}
	}
	// The late endpoint saw exactly the suffix of its sibling's output,
	// tagged with the sibling's positions.
	full, fullTags := fq[0].Results(), fq[0].Tags()
	off := len(full) - len(late.Results())
	compareStreams(t, "late attach", late.Results(), full[off:])
	if lt := late.Tags(); len(lt) > 0 && lt[0] != fullTags[off] {
		t.Errorf("late endpoint first tag %d, want %d", lt[0], fullTags[off])
	}
	if got, want := len(fleet.Queries()), len(members); got != want {
		t.Errorf("%d live queries after unregister, want %d", got, want)
	}
}

// TestFabricRoutingIndexBuckets pins the routing index's delivery sets:
// keyed events reach only their group (plus type-plain chains), wild and
// retracted events reach the whole family, unknown types reach no chain.
func TestFabricRoutingIndexBuckets(t *testing.T) {
	e := New()
	reg := func(src string, opts ...plan.Option) *Query {
		t.Helper()
		q, err := e.RegisterText(src, append(opts, plan.WithSharing())...)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	plain := reg(`EVENT AnyInstall WHEN ANY(INSTALL i)`)
	k0 := reg(keyedTemplate, bindM("m000"))
	k1 := reg(keyedTemplate, bindM("m001"))

	route := func(ev event.Event) map[*chain]bool {
		got := map[*chain]bool{}
		for _, ch := range e.fabric.route(ev, nil) {
			got[ch] = true
		}
		return got
	}
	install := func(id int, payload event.Payload) event.Event {
		return event.NewInsert(event.ID(id), "INSTALL", 0, 10, payload)
	}

	set := route(install(1, event.Payload{"Machine_Id": "m000"}))
	if !set[plain.ch] || !set[k0.ch] || set[k1.ch] {
		t.Errorf("keyed INSTALL m000 routed to wrong set: %v", set)
	}
	set = route(install(2, event.Payload{"Machine_Id": "m999"}))
	if !set[plain.ch] || set[k0.ch] || set[k1.ch] {
		t.Errorf("unmatched key routed to wrong set: %v", set)
	}
	set = route(install(3, event.Payload{"other": 1}))
	if !set[plain.ch] || !set[k0.ch] || !set[k1.ch] {
		t.Errorf("wild (missing attr) INSTALL must reach the whole family: %v", set)
	}
	set = route(event.NewRetract(1, "INSTALL", 0, 0, nil))
	if !set[plain.ch] || !set[k0.ch] || !set[k1.ch] {
		t.Errorf("retraction must route conservatively: %v", set)
	}
	set = route(event.NewInsert(4, "UNRELATED", 0, 10, nil))
	if len(set) != 0 {
		t.Errorf("unknown type routed to %d chains, want 0", len(set))
	}

	// Unregistering prunes every bucket.
	k0.Unregister()
	set = route(install(6, event.Payload{"Machine_Id": "m000"}))
	if set[k0.ch] {
		t.Errorf("unregistered chains still routed: %v", set)
	}
}

// TestFabricRoutingAllocs pins the per-event routing step at zero heap
// allocations when the match set fits the caller's buffer.
func TestFabricRoutingAllocs(t *testing.T) {
	e := New()
	for _, id := range []string{"m000", "m001", "m002"} {
		if _, err := e.RegisterText(keyedTemplate, bindM(id), plan.WithSharing()); err != nil {
			t.Fatal(err)
		}
	}
	ev := event.NewInsert(1, "INSTALL", 0, 10, event.Payload{"Machine_Id": "m001"})
	buf := make([]*chain, 0, routeBufCap)
	var n int
	allocs := testing.AllocsPerRun(200, func() {
		n = len(e.fabric.route(ev, buf[:0]))
	})
	if n != 1 {
		t.Fatalf("routed to %d chains, want 1", n)
	}
	if allocs != 0 {
		t.Errorf("routing step allocates %.1f per event, want 0", allocs)
	}
}

// TestFabricTemplateInstanceIdentity pins the sharing identity: same
// bindings share a chain, different bindings or different configuration do
// not, and opting out of sharing always builds a private chain.
func TestFabricTemplateInstanceIdentity(t *testing.T) {
	e := New()
	reg := func(opts ...plan.Option) *Query {
		t.Helper()
		q, err := e.RegisterText(keyedTemplate, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	a := reg(bindM("m000"), plan.WithSharing())
	b := reg(bindM("m000"), plan.WithSharing())
	c := reg(bindM("m001"), plan.WithSharing())
	d := reg(bindM("m000"), plan.WithSharing(), plan.WithSpec(consistency.Strong()))
	private := reg(bindM("m000"))
	if a.ch != b.ch {
		t.Error("identical bindings did not share")
	}
	if a.ch == c.ch {
		t.Error("different bindings shared a chain")
	}
	if a.ch == d.ch {
		t.Error("different spec shared a chain")
	}
	if a.ch == private.ch {
		t.Error("unshared registration joined a chain")
	}
	if !a.Shared() || private.Shared() {
		t.Error("Shared() misreports")
	}
	if _, err := e.RegisterText(keyedTemplate, plan.WithSharing()); err == nil {
		t.Error("unbound template parameter accepted")
	}
}

// TestFabricCollidingBindingsSeparate: two binding sets whose values spell
// out each other's boundaries — rendered as `name=type:value` joined by
// `;`, both read "a=string:m1;b=string:z;b=string:q" — are two identities.
// Each registration gets its own chain and detects only its own machine's
// alert; attaching the second to the first's chain would hand it the other
// binding's output.
func TestFabricCollidingBindingsSeparate(t *testing.T) {
	const tmpl = `
EVENT Shutdown
WHEN SEQUENCE(INSTALL x, SHUTDOWN AS y, 12 hours)
WHERE CorrelationKey(Machine_Id, EQUAL) AND [Machine_Id Equal $a] AND {y.Reason = $b}
`
	sets := []map[string]event.Value{
		{"a": "m1;b=string:z", "b": "q"},
		{"a": "m1", "b": "z;b=string:q"},
	}
	e := New()
	var qs []*Query
	for _, b := range sets {
		q, err := e.RegisterText(tmpl, plan.WithBindings(b), plan.WithSharing())
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q)
	}
	if qs[0].ch == qs[1].ch {
		t.Fatal("colliding binding sets share one chain")
	}
	for i, b := range sets {
		m := event.Payload{"Machine_Id": b["a"]}
		e.Push(event.NewInsert(event.ID(2*i+1), "INSTALL", temporal.Time(10*i+1), temporal.Infinity, m))
		e.Push(event.NewInsert(event.ID(2*i+2), "SHUTDOWN", temporal.Time(10*i+2), temporal.Infinity,
			event.Payload{"Machine_Id": b["a"], "Reason": b["b"]}))
	}
	e.Finish()
	for i, q := range qs {
		var got []event.Value
		for _, ev := range q.Results().Events() {
			if ev.Kind == event.Insert {
				got = append(got, ev.Payload["x.Machine_Id"])
			}
		}
		if len(got) != 1 || got[0] != sets[i]["a"] {
			t.Errorf("binding set %d detected machines %q, want only %q", i, got, sets[i]["a"])
		}
	}
}

// TestFabricBindingsOwnedByTheChain: a registration reads its bindings map
// and keeps none of it: the chain's plan holds what the analysis bound.
// Changing the map once RegisterText returns changes neither the running
// chain's plan (its route key and explanation) nor what a snapshot
// restores, and registering with the changed map is another identity, with
// a chain of its own.
func TestFabricBindingsOwnedByTheChain(t *testing.T) {
	defer leakcheck.Check(t)()
	dir := t.TempDir()
	e := durableEngine(t, filepath.Join(dir, "orig.wal"))
	defer e.Close()
	m := map[string]event.Value{"m": "m000"}
	q, err := e.RegisterText(keyedTemplate, plan.WithBindings(m), plan.WithSharing())
	if err != nil {
		t.Fatal(err)
	}
	explain := q.Plan().Explain()
	m["m"] = "m001"
	check := func(what string, q *Query) {
		t.Helper()
		p := q.Plan()
		if p.RouteKeyVal != "m000" || p.Explain() != explain {
			t.Errorf("%s: plan routed by %v, explained\n%s\nwant m000 and\n%s", what, p.RouteKeyVal, p.Explain(), explain)
		}
	}
	check("running chain", q)
	var snap bytes.Buffer
	if err := e.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	log, err := wal.Open(filepath.Join(dir, "restored.wal"))
	if err != nil {
		t.Fatal(err)
	}
	r, err := Restore(&snap, log)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	check("restored chain", r.Queries()[0])
	q2, err := e.RegisterText(keyedTemplate, plan.WithBindings(m), plan.WithSharing())
	if err != nil {
		t.Fatal(err)
	}
	if q2.ch == q.ch || len(e.chainsSnapshot()) != 2 || q2.Plan().RouteKeyVal != "m001" {
		t.Error("the changed map did not get a chain of its own")
	}
}

// TestFabricIdentityOutlivesTheAnalysisCache: chains are keyed by what a
// registration says — source text, bindings, spec — never by the cached
// analysis, which the plan package drops once its cache fills (at 512
// entries). Q registered again after more distinct sources than that
// attaches to Q's running chain, and its window continues the chain's
// order tags.
func TestFabricIdentityOutlivesTheAnalysisCache(t *testing.T) {
	in := durabilityWorkload()
	half := len(in) / 2
	e := New()
	q1, err := e.RegisterText(monitorQuery, plan.WithSharing())
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range in[:half] {
		e.Push(ev)
	}
	for i := range 600 {
		if _, err := plan.Prepare(fmt.Sprintf("EVENT E%d WHEN ANY(A a)", i)); err != nil {
			t.Fatal(err)
		}
	}
	at := q1.Len()
	q2, err := e.RegisterText(monitorQuery, plan.WithSharing())
	if err != nil {
		t.Fatal(err)
	}
	if q2.ch != q1.ch || !q2.Shared() || len(e.chainsSnapshot()) != 1 {
		t.Fatal("Q registered after the analysis cache cleared did not attach to its chain")
	}
	for _, ev := range in[half:] {
		e.Push(ev)
	}
	e.Finish()
	tags := q1.Tags()
	if at == 0 || !reflect.DeepEqual(q2.Tags(), tags[at:]) {
		t.Errorf("the attached window's tags do not continue the chain's from %d", at)
	}
}

// TestFabricUnregisterTeardown: endpoints detach independently; the last
// reference tears the shared sharded chain down and every goroutine exits
// (leakcheck). The surviving sibling's output is unaffected by its peer's
// departure.
func TestFabricUnregisterTeardown(t *testing.T) {
	defer leakcheck.Check(t)()
	in := durabilityWorkload()
	e := New()
	q1, err := e.RegisterText(monitorQuery, plan.WithShards(4), plan.WithSharing())
	if err != nil {
		t.Fatal(err)
	}
	q2, err := e.RegisterText(monitorQuery, plan.WithShards(4), plan.WithSharing())
	if err != nil {
		t.Fatal(err)
	}
	if q1.ch != q2.ch {
		t.Fatal("sharded twins did not share")
	}
	half := len(in) / 2
	for _, ev := range in[:half] {
		e.Push(ev)
	}
	q1.ch.sh.barrier()
	frozen := len(q1.Results())
	q1.Unregister()
	for _, ev := range in[half:] {
		e.Push(ev)
	}
	e.Finish()
	if got := len(q1.Results()); got != frozen {
		t.Errorf("unregistered endpoint kept accumulating: %d -> %d", frozen, got)
	}
	oracle := run(t, monitorQuery, in)
	compareStreams(t, "surviving sibling", q2.Results(), oracle.Results())
	q2.Unregister() // last reference: chain torn down, workers exit
	if len(e.Queries()) != 0 {
		t.Errorf("%d queries remain after full unregistration", len(e.Queries()))
	}
	e.Push(in[0]) // dropped, not delivered to anything
}

// TestFabricUnregisterDurableRoundTrip: registrations, template bindings,
// and unregistrations replay from the WAL — the recovered engine has the
// same live queries with byte-identical histories, and a snapshot cut
// after the unregistration restores the same state against a fresh log.
func TestFabricUnregisterDurableRoundTrip(t *testing.T) {
	defer leakcheck.Check(t)()
	dir := t.TempDir()
	in := durabilityWorkload()
	half := len(in) / 2

	log1, err := wal.Open(filepath.Join(dir, "fabric.wal"), wal.SyncEvery(1))
	if err != nil {
		t.Fatal(err)
	}
	e1, err := Restore(nil, log1)
	if err != nil {
		t.Fatal(err)
	}
	qa, err := e1.RegisterText(monitorQuery, plan.WithSharing())
	if err != nil {
		t.Fatal(err)
	}
	qb, err := e1.RegisterText(monitorQuery, plan.WithSharing())
	if err != nil {
		t.Fatal(err)
	}
	qt, err := e1.RegisterText(keyedTemplate, bindM("m000"), plan.WithSharing())
	if err != nil {
		t.Fatal(err)
	}
	if qa.ch != qb.ch {
		t.Fatal("durable twins did not share")
	}
	for _, ev := range in[:half] {
		e1.Push(ev)
	}
	qb.Unregister()
	for _, ev := range in[half:] {
		e1.Push(ev)
	}
	wantA, wantB, wantT := qa.Results(), qb.Results(), qt.Results()
	// Crash: no Finish, no Close — the log is all that survives.

	log2, err := wal.Open(filepath.Join(dir, "fabric.wal"))
	if err != nil {
		t.Fatal(err)
	}
	e2, err := Restore(nil, log2)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	live := e2.Queries()
	if len(live) != 2 {
		t.Fatalf("recovered %d live queries, want 2 (one was unregistered)", len(live))
	}
	compareStreams(t, "recovered shared survivor", live[0].Results(), wantA)
	compareStreams(t, "recovered template", live[1].Results(), wantT)
	// The unregistration replayed too: its entry is a tombstone that keeps
	// no chain. The original handle still reads its window, frozen at the
	// unregister: a prefix of its shared survivor's.
	if e2.snapshot()[1] != nil {
		t.Error("the recovered unregistration left its endpoint in the registration list")
	}
	if len(wantB) == 0 || len(wantB) > len(wantA) {
		t.Fatalf("the unregistered handle reads %d items, its survivor %d", len(wantB), len(wantA))
	}
	compareStreams(t, "unregistered handle", wantB, wantA[:len(wantB)])

	var snap bytes.Buffer
	if err := e2.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	log3, err := wal.Open(filepath.Join(dir, "rotated.wal"))
	if err != nil {
		t.Fatal(err)
	}
	e3, err := Restore(&snap, log3)
	if err != nil {
		t.Fatal(err)
	}
	defer e3.Close()
	if got := len(e3.Queries()); got != 2 {
		t.Fatalf("snapshot restore: %d live queries, want 2", got)
	}
	compareStreams(t, "rotated survivor", e3.Queries()[0].Results(), wantA)
}

// TestFabricConcurrentSubscribeUnregister is the race smoke test: endpoints
// join, subscribe, and leave a shared chain while pushes are in flight —
// the pusher runs until every registrar is done. Success is the absence of
// data races (-race), deadlocks, and leaks, and a subscription from tag 0
// whose tags start at its window's start and run consecutively.
func TestFabricConcurrentSubscribeUnregister(t *testing.T) {
	defer leakcheck.Check(t)()
	in := durabilityWorkload()
	e := New()
	anchor, err := e.RegisterText(monitorQuery, plan.WithSharing())
	if err != nil {
		t.Fatal(err)
	}
	started, stop, pushed := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(pushed)
		for pass := 0; ; pass++ {
			for _, ev := range in {
				select {
				case <-stop:
					return
				default:
				}
				e.Push(ev)
			}
			if pass == 0 {
				close(started)
			}
		}
	}()
	<-started
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				q, err := e.RegisterText(monitorQuery, plan.WithSharing())
				if err != nil {
					t.Error(err)
					return
				}
				subscribe(q, func(event.Event) {})
				// Replay against in-flight delivery: no gap, no duplicate.
				_, next, _ := q.window()
				q.SubscribeTagged(0, func(_ event.Event, tag uint64) {
					if tag != next {
						t.Errorf("subscription from 0 expected tag %d, got %d", next, tag)
					}
					next = tag + 1
				})
				_ = q.Results()
				q.Unregister()
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-pushed
	if anchor.Err() != nil {
		t.Fatal(anchor.Err())
	}
	e.Finish()
	if len(anchor.Results()) == 0 {
		t.Fatal("anchor query emitted nothing")
	}
}

// TestFabricSharingThroughput: a fleet of identical standing queries on the
// fabric does the work of one query; on private chains it does the work of
// all of them. The assertion is on operation counts — chains built, events
// evaluated by the head monitors — which is what the wall-clock win follows
// from; the timing itself is bench/e2e's engine.fanout_self_ns_per_ev on
// the fabric-10k workload.
func TestFabricSharingThroughput(t *testing.T) {
	const fleet = 1500
	in := durabilityWorkload()
	events := 0
	for _, ev := range in {
		if !ev.IsCTI() {
			events++
		}
	}

	work := func(opts ...plan.Option) (chains, evaluated int) {
		e := New()
		for i := 0; i < fleet; i++ {
			if _, err := e.RegisterText(monitorQuery, opts...); err != nil {
				t.Fatal(err)
			}
		}
		e.Run(in)
		live := e.chainsSnapshot()
		for _, ch := range live {
			evaluated += ch.sh.metrics()[0].InputEvents
		}
		return len(live), evaluated
	}
	if chains, evaluated := work(plan.WithSharing()); chains != 1 || evaluated != events {
		t.Errorf("shared fleet: %d chains evaluated %d events, want 1 chain and %d", chains, evaluated, events)
	}
	if chains, evaluated := work(); chains != fleet || evaluated != fleet*events {
		t.Errorf("private fleet: %d chains evaluated %d events, want %d chains and %d",
			chains, evaluated, fleet, fleet*events)
	}
}
