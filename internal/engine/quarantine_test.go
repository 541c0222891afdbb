// Panic isolation: a panicking operator, shard worker, or subscriber
// callback must quarantine its own query — error surfaced through
// Query.Err, output frozen — while sibling queries on the same engine keep
// running and every goroutine drains. Runs under -race in the dedicated CI
// fault-injection job.
package engine

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/consistency"
	"repro/internal/delivery"
	"repro/internal/event"
	"repro/internal/faultinject"
	"repro/internal/leakcheck"
	"repro/internal/operators"
	"repro/internal/plan"
	"repro/internal/stream"
	"repro/internal/temporal"
	"repro/internal/workload"
)

// TestOperatorPanicQuarantinesQuery: a panicking stage on one query is
// isolated — its error names the query and says it was quarantined, the same
// at every shard count; its output is frozen; and a sibling query fed the
// same input stays byte-identical to an unshared oracle run.
func TestOperatorPanicQuarantinesQuery(t *testing.T) {
	in := durabilityWorkload()
	doomed := strings.Replace(monitorQuery, "EVENT MissedRestart", "EVENT Doomed", 1)
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			defer leakcheck.Check(t)()
			e := New()
			bad, err := e.RegisterText(doomed, plan.WithShards(shards))
			if err != nil {
				t.Fatal(err)
			}
			if bad.Shards() != shards {
				t.Fatalf("query runs %d shards, want %d", bad.Shards(), shards)
			}
			armOperatorPanic(t, bad, 10)
			good, err := e.RegisterText(monitorQuery)
			if err != nil {
				t.Fatal(err)
			}
			e.Run(in)

			if bad.Err() == nil {
				t.Fatal("panicking query reports no error")
			}
			if msg := bad.Err().Error(); !strings.Contains(msg, "query Doomed quarantined: operator stage panicked") {
				t.Fatalf("unexpected quarantine error: %v", msg)
			}
			frozen := bad.Results()
			bad.ch.push(in[0])
			if n := len(bad.Results()); n != len(frozen) {
				t.Fatalf("quarantined query kept emitting: %d -> %d items", len(frozen), n)
			}
			if good.Err() != nil {
				t.Fatalf("sibling query was poisoned: %v", good.Err())
			}
			oracle := run(t, monitorQuery, in)
			compareStreams(t, "sibling isolation", good.Results(), oracle.Results())
		})
	}
}

// TestSubscriberPanicQuarantines: a panicking subscriber callback
// quarantines the query instead of unwinding into the engine; remaining
// subscribers and input are skipped.
func TestSubscriberPanicQuarantines(t *testing.T) {
	defer leakcheck.Check(t)()
	in := durabilityWorkload()
	e := New()
	q, err := e.RegisterText(monitorQuery)
	if err != nil {
		t.Fatal(err)
	}
	sibling, err := e.RegisterText(monitorQuery)
	if err != nil {
		t.Fatal(err)
	}
	delivered, after := 0, 0
	q.Subscribe(func(event.Event) {
		delivered++
		if delivered == 3 {
			panic("subscriber exploded")
		}
	})
	q.Subscribe(func(event.Event) { after++ })
	e.Run(in)
	if q.Err() == nil || !strings.Contains(q.Err().Error(), "subscriber callback") {
		t.Fatalf("subscriber panic not surfaced: %v", q.Err())
	}
	if delivered != 3 {
		t.Fatalf("subscriber ran %d times after panicking on call 3", delivered)
	}
	if after > 2 {
		t.Fatalf("later subscriber saw %d items after the quarantine batch", after)
	}
	if sibling.Err() != nil {
		t.Fatalf("sibling poisoned: %v", sibling.Err())
	}
	oracle := run(t, monitorQuery, in)
	compareStreams(t, "sibling under subscriber panic", sibling.Results(), oracle.Results())
}

// TestShardedWorkerPanicIsolation: a shard worker panic must not deadlock
// the merger or leak workers; the failure surfaces through RunShardedOp's
// error (the same onFail path the engine wires to Query.Err).
func TestShardedWorkerPanicIsolation(t *testing.T) {
	defer leakcheck.Check(t)()
	cfg := workload.Uniform{Seed: 3, Events: 600, Groups: 16, Spacing: 4, Lifetime: 10}
	in := delivery.Deliver(workload.UniformEvents(cfg), delivery.Ordered(8))

	// The trigger counter is shared across clones, so exactly one worker
	// (whichever processes the armed event) panics mid-stream.
	armed := faultinject.NewPanicOp(operators.NewAggregate(operators.Count, "", "g"), 150)
	out, _, err := RunShardedOp(
		func() operators.Op { return armed.Clone() },
		consistency.Middle(), 4, 0, RouteByAttr("g", 4), in)
	if err == nil {
		t.Fatal("worker panic not surfaced")
	}
	if !strings.Contains(err.Error(), "quarantined: operator stage panicked") {
		t.Fatalf("unexpected error: %v", err)
	}
	// Output up to the failure is a prefix of the healthy run.
	healthy, _, err := RunShardedOp(
		func() operators.Op { return operators.NewAggregate(operators.Count, "", "g") },
		consistency.Middle(), 4, 0, RouteByAttr("g", 4), in)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) > len(healthy) {
		t.Fatalf("failed run emitted more (%d) than the healthy run (%d)", len(out), len(healthy))
	}
	compareStreams(t, "pre-failure prefix", out, healthy[:len(out)])
}

// TestShardedWorkerPanicEveryBurstOffset: with a tiny router burst, sweep
// the panic trigger across several bursts' worth of Process calls so the
// failure lands at every intra-run offset — first item of a run, every
// middle position, and the run boundary itself. The PanicOp counter is
// shared across worker clones, so each sweep value arms exactly one
// global call site. Whatever the offset, the worker must hand the merger
// an aligned (empty-output) burst, the merged output must be a prefix of
// the healthy run, and finish must drain without deadlock.
func TestShardedWorkerPanicEveryBurstOffset(t *testing.T) {
	defer leakcheck.Check(t)()
	const (
		shards = 3
		burst  = 4
	)
	cfg := workload.Uniform{Seed: 7, Events: 240, Groups: 9, Spacing: 4, Lifetime: 10}
	in := delivery.Deliver(workload.UniformEvents(cfg), delivery.Ordered(8))
	mk := func() operators.Op { return operators.NewAggregate(operators.Count, "", "g") }

	healthy, _, err := RunShardedOp(mk, consistency.Middle(), shards, burst,
		RouteByAttr("g", shards), in)
	if err != nil {
		t.Fatal(err)
	}
	// 4 full bursts per shard: offsets 0..burst-1 within a run are all hit
	// on every worker, several times over.
	for after := 1; after <= 4*shards*burst; after++ {
		armed := faultinject.NewPanicOp(mk(), after)
		out, _, err := RunShardedOp(
			func() operators.Op { return armed.Clone() },
			consistency.Middle(), shards, burst, RouteByAttr("g", shards), in)
		if err == nil {
			t.Fatalf("after=%d: worker panic not surfaced", after)
		}
		if !strings.Contains(err.Error(), "quarantined: operator stage panicked") {
			t.Fatalf("after=%d: unexpected error: %v", after, err)
		}
		if len(out) > len(healthy) {
			t.Fatalf("after=%d: failed run emitted more (%d) than the healthy run (%d)",
				after, len(out), len(healthy))
		}
		compareStreams(t, "pre-failure prefix", out, healthy[:len(out)])
	}
}

// TestShardedQueryWorkerPanicQuarantines: the engine-level wiring — a
// worker panic under a sharded standing query quarantines that query via
// onFail, Finish still drains, and a single-shard sibling is untouched.
func TestShardedQueryWorkerPanicQuarantines(t *testing.T) {
	defer leakcheck.Check(t)()
	in := durabilityWorkload()
	e := New()
	q, err := e.RegisterText(monitorQuery, plan.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	if q.Shards() != 4 {
		t.Fatalf("query runs %d shards, want 4", q.Shards())
	}
	sibling, err := e.RegisterText(monitorQuery)
	if err != nil {
		t.Fatal(err)
	}
	// Reach into the runtime and arm every shard's head operator with its
	// own early trigger (the swap happens before any push, so each worker
	// goroutine owns its op). Several workers may panic; the first failure
	// wins and the rest must be absorbed without deadlock.
	armOperatorPanic(t, q, 3)

	e.Run(in)
	if q.Err() == nil || !strings.Contains(q.Err().Error(), "quarantined: operator stage panicked") {
		t.Fatalf("worker panic not quarantined: %v", q.Err())
	}
	if sibling.Err() != nil {
		t.Fatalf("sibling poisoned: %v", sibling.Err())
	}
	oracle := run(t, monitorQuery, in)
	compareStreams(t, "sibling under worker panic", sibling.Results(), oracle.Results())
	// The quarantined query keeps dropping input without deadlock.
	q.ch.push(in[0])
	q.ch.sh.finish()
}

// TestShardedTailPanicQuarantines: the stages after the head run inside
// each worker, under the recover barrier that guards its head. A panicking
// map stage quarantines the chain with the operator-stage error, its
// output stops at a prefix of the healthy run, and Drain, Metrics and
// Finish all return. Every worker's stage shares one trigger, so it fires
// at the fifth mapped item whichever shard maps it.
func TestShardedTailPanicQuarantines(t *testing.T) {
	in := durabilityWorkload()
	p, err := plan.Compile(pairsQuery)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			defer leakcheck.Check(t)()
			e := New()
			q, err := e.RegisterText(pairsQuery, plan.WithShards(shards))
			if err != nil {
				t.Fatal(err)
			}
			ws := q.ch.sh.workers
			if q.Shards() != shards || len(ws[0].stages) != 1 {
				t.Fatalf("query runs %d shards and %d map stages, want %d and 1", q.Shards(), len(ws[0].stages), shards)
			}
			// Swapped before any push: each worker's goroutine owns its
			// clone from here, and the clones share the trigger's count.
			trigger := faultinject.NewPanicOp(p.Stages[1], 5)
			for i := range ws {
				ws[i].stages[0] = trigger.Clone()
			}
			for _, ev := range in {
				e.Push(ev)
			}
			e.Drain()
			if q.Err() == nil || !strings.Contains(q.Err().Error(), "query Pairs quarantined: operator stage panicked") {
				t.Fatalf("map stage panic not quarantined: %v", q.Err())
			}
			if met := q.Metrics(); len(met) != 1 {
				t.Fatalf("%d metric stages, want 1", len(met))
			}
			frozen := q.Results()
			q.ch.sh.finish()
			e.Finish()
			if n := len(q.Results()); n != len(frozen) {
				t.Fatalf("quarantined query kept emitting: %d -> %d items", len(frozen), n)
			}
			healthy := run(t, pairsQuery, in, plan.WithShards(shards)).Results()
			if len(frozen) >= len(healthy) {
				t.Fatalf("failed run emitted %d items, the healthy run %d", len(frozen), len(healthy))
			}
			compareStreams(t, "pre-failure prefix", frozen, healthy[:len(frozen)])
		})
	}
}

func mustStages(t *testing.T) []operators.Op {
	t.Helper()
	p, err := plan.Compile(monitorQuery)
	if err != nil {
		t.Fatal(err)
	}
	return p.Stages
}

// TestStalledShardStillDrains: a stalled worker delays output but loses
// nothing — finish waits for the slow shard and the merged output is
// byte-identical to the un-stalled run.
func TestStalledShardStillDrains(t *testing.T) {
	defer leakcheck.Check(t)()
	cfg := workload.Uniform{Seed: 5, Events: 400, Groups: 16, Spacing: 4, Lifetime: 10}
	in := delivery.Deliver(workload.UniformEvents(cfg), delivery.Ordered(8))
	armed := faultinject.NewStallOp(operators.NewAggregate(operators.Count, "", "g"), 100, 150*time.Millisecond)
	start := time.Now()
	out, _, err := RunShardedOp(
		func() operators.Op { return armed.Clone() },
		consistency.Middle(), 4, 0, RouteByAttr("g", 4), in)
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < 150*time.Millisecond {
		t.Fatal("stall did not fire")
	}
	want, _, err := RunShardedOp(
		func() operators.Op { return operators.NewAggregate(operators.Count, "", "g") },
		consistency.Middle(), 4, 0, RouteByAttr("g", 4), in)
	if err != nil {
		t.Fatal(err)
	}
	compareStreams(t, "stalled shard", out, want)
}

// TestDuplicatedPunctuationIsIdempotent: re-delivered CTIs (at-least-once
// transport) must not change the query's data output — guarantees are
// idempotent.
func TestDuplicatedPunctuationIsIdempotent(t *testing.T) {
	defer leakcheck.Check(t)()
	in := durabilityWorkload()
	dataOnly := func(s stream.Stream) stream.Stream {
		var out stream.Stream
		for _, ev := range s {
			if !ev.IsCTI() {
				out = append(out, ev)
			}
		}
		return out
	}
	want := run(t, monitorQuery, in)
	got := run(t, monitorQuery, faultinject.DuplicatePunctuation(in, 2))
	compareStreams(t, "duplicated punctuation", dataOnly(got.Results()), dataOnly(want.Results()))
}

// TestDelayedDeliveryConverges: delivery held back within its guarantees
// (never past a CTI) must still converge to the same alert set under the
// blocking middle spec.
func TestDelayedDeliveryConverges(t *testing.T) {
	defer leakcheck.Check(t)()
	src, expected := workload.MachineEvents(workload.Machines{
		Seed: 11, Machines: 5, Cycles: 2,
		RestartDeadline: 5 * temporal.Minute, MissProb: 0.5, CycleGap: 30 * temporal.Minute,
	})
	in := delivery.Deliver(src, delivery.Ordered(temporal.Minute))
	chaotic := faultinject.DelayDelivery(in, 99, 0.3, 3)
	q := run(t, monitorQuery, chaotic)
	if got := alerts(q); got != expected {
		t.Fatalf("delayed delivery: %d alerts, want %d", got, expected)
	}
}

// TestEngineCloseIdempotent: Close is a no-op the second time, drains the
// sharded runtime, and a closed engine drops input without processing it.
func TestEngineCloseIdempotent(t *testing.T) {
	defer leakcheck.Check(t)()
	in := durabilityWorkload()
	e := New()
	q, err := e.RegisterText(monitorQuery, plan.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range in[:len(in)/2] {
		e.Push(ev)
	}
	q.ch.sh.barrier()
	before := len(q.Results())
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	for _, ev := range in[len(in)/2:] {
		e.Push(ev)
	}
	e.Finish()
	if got := len(q.Results()); got != before {
		t.Fatalf("closed engine kept emitting: %d -> %d items", before, got)
	}
}
