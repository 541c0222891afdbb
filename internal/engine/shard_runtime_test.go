// Runtime-shape tests for the batched sharded runtime: the auto-shard
// heuristic's decision table, the alloc-free steady-state handoff
// guarantee, and a true multi-core smoke run (raised GOMAXPROCS, race-
// checked in CI's fault-injection job).
package engine

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/consistency"
	"repro/internal/event"
	"repro/internal/leakcheck"
	"repro/internal/operators"
	"repro/internal/plan"
	"repro/internal/temporal"
	"repro/internal/workload"
)

// TestAutoShardHeuristic pins the WithShards(AutoShards) decision table:
// non-partitionable and cheap plans never shard, a single-core process
// never shards, and a heavy partitionable plan gets its cost-amortized
// width clamped to the cores actually available.
func TestAutoShardHeuristic(t *testing.T) {
	heavy, err := plan.Compile(monitorQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !heavy.Part.OK() || heavy.CostNs() < 2*shardTaxNs {
		t.Fatalf("fixture drifted: monitorQuery part=%v cost=%d", heavy.Part, heavy.CostNs())
	}
	flat, err := plan.Compile(`EVENT Seq WHEN SEQUENCE(A a, B b, 10)`)
	if err != nil {
		t.Fatal(err)
	}
	cheap, err := plan.Compile(`EVENT E WHEN ANY(A a) WHERE CorrelationKey(k, EQUAL)`)
	if err != nil {
		t.Fatal(err)
	}
	if !cheap.Part.OK() || cheap.CostNs() >= 2*shardTaxNs {
		t.Fatalf("fixture drifted: cheap plan part=%v cost=%d", cheap.Part, cheap.CostNs())
	}

	// The single-core branch is reachable on any host by narrowing
	// GOMAXPROCS: even the heavy plan must refuse to shard.
	prev := runtime.GOMAXPROCS(1)
	if got := autoShards(heavy); got != 1 {
		runtime.GOMAXPROCS(prev)
		t.Fatalf("heavy plan on 1 core: %d shards, want 1", got)
	}
	runtime.GOMAXPROCS(prev)

	// The remaining rows depend on the live core count the same way
	// production resolution does.
	cores := runtime.GOMAXPROCS(0)
	if c := runtime.NumCPU(); c < cores {
		cores = c
	}
	want := heavy.CostNs() / shardTaxNs
	if want > cores {
		want = cores
	}
	if want > maxAutoShards {
		want = maxAutoShards
	}
	if cores < 2 {
		want = 1
	}
	if got := autoShards(heavy); got != want {
		t.Fatalf("heavy plan on %d cores: %d shards, want %d", cores, got, want)
	}
	if cores >= 2 && want < 2 {
		t.Fatalf("heavy plan failed to earn a second shard on %d cores", cores)
	}
	if got := autoShards(flat); got != 1 {
		t.Fatalf("non-partitionable plan: %d shards, want 1", got)
	}
	if got := autoShards(cheap); got != 1 {
		t.Fatalf("cheap plan: %d shards, want 1", got)
	}

	// Registration-level wiring: AutoShards resolves to the same verdict.
	e := New()
	defer e.Close()
	q, err := e.RegisterText(monitorQuery, plan.WithShards(plan.AutoShards))
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Shards(); got != want {
		t.Fatalf("AutoShards registration: %d shards, want %d", got, want)
	}
}

// TestShardedHandoffAllocFree pins the batched handoff's steady-state
// allocations per run of 32 events and a CTI at the last one's Sync. The
// stream's Sync keeps advancing, so every event is admitted — at Middle on
// arrival, at Strong and Level(100, ∞) through the alignment buffer — and
// none is dropped as a violation. A never-matching Select keeps output out
// of the measurement (punctuation aside), so the number is the handoff
// machinery and the monitors' own bookkeeping; with one shard the same
// pushes run inline into one reused burst.
func TestShardedHandoffAllocFree(t *testing.T) {
	levels := []struct {
		name string
		spec consistency.Spec
	}{
		{"middle", consistency.Middle()},
		{"strong", consistency.Strong()},
		{"level(100,∞)", consistency.Level(100, consistency.Unbounded)},
	}
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			for _, l := range levels {
				t.Run(l.name, func(t *testing.T) {
					testHandoffAllocFree(t, l.name, l.spec, shards)
				})
			}
		})
	}
}

func testHandoffAllocFree(t *testing.T, name string, spec consistency.Spec, shards int) {
	defer leakcheck.Check(t)()
	const burst = 8
	sh, err := newSharded("test", shards, burst,
		func(int) []operators.Op {
			return []operators.Op{operators.NewSelect(func(event.Payload) bool { return false })}
		},
		spec, RouteByAttr("g", shards), discard{})
	if err != nil {
		t.Fatal(err)
	}
	data := workload.UniformEvents(workload.Uniform{Seed: 9, Events: 8192, Groups: 8, Spacing: 4, Lifetime: 10})
	next := 0
	run := func() {
		for i := 0; i < 32; i++ {
			sh.push(data[next])
			next++
		}
		sh.push(event.NewCTI(data[next-1].Sync()))
	}
	// Warmup: cycle every run/burst buffer several times and let the
	// monitor logs reach their steady capacity.
	for i := 0; i < 32; i++ {
		run()
	}
	allocs := testing.AllocsPerRun(100, run)
	sh.finish()
	t.Logf("%s handoff at %d shards: measured %.2f allocs/run", name, shards, allocs)
	if allocs != 0 {
		t.Fatalf("steady-state handoff allocates %.2f per run, want 0", allocs)
	}
}

// discard is a shardSink that keeps nothing.
type discard struct{}

func (discard) deliverMerged([]event.Event) {}
func (discard) quarantine(error)            {}

// settledGoroutines returns the goroutine count once it has stopped
// falling, polled with runtime.Gosched: an earlier test's chains may still
// be exiting, and a baseline read at once counts them.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for still := 0; still < 100; still++ {
		runtime.Gosched()
		if m := runtime.NumGoroutine(); m < n {
			n, still = m, 0
		}
	}
	return n
}

// TestPrivateChainsStartNoGoroutines: a one-shard chain runs inline, so
// registering, feeding and closing a thousand private chains never raises
// the goroutine count above its settled baseline.
func TestPrivateChainsStartNoGoroutines(t *testing.T) {
	defer leakcheck.Check(t)()
	before := settledGoroutines()
	e := New()
	for i := 0; i < 1000; i++ {
		q, err := e.RegisterText(`EVENT Out WHEN ANY(E e)`)
		if err != nil {
			t.Fatal(err)
		}
		if q.Shards() != 1 {
			t.Fatalf("private chain runs %d shards, want 1", q.Shards())
		}
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("1,000 one-shard registrations: %d goroutines, %d before", n, before)
	}
	for i := 0; i < 10; i++ {
		ev := event.NewInsert(event.ID(i+1), "E", temporal.Time(i), temporal.Time(i+5), nil)
		ev.C = temporal.From(temporal.Time(i))
		e.Push(ev)
	}
	e.Finish()
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("after push and finish: %d goroutines, %d before", n, before)
	}
	for _, q := range e.Queries() {
		if len(q.Results()) == 0 {
			t.Fatalf("%s: no output", q.Name())
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedMultiCoreSmoke runs the full sharded query path with
// GOMAXPROCS raised above one so router, workers, and merger execute
// truly concurrently (and under -race in CI's fault-injection job), then
// checks the merged output is byte-identical to the plain head monitor's
// (runPlainPlan) and every goroutine drains.
func TestShardedMultiCoreSmoke(t *testing.T) {
	defer leakcheck.Check(t)()
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	in := durabilityWorkload()
	e := New()
	q, err := e.RegisterText(monitorQuery, plan.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	if q.Shards() != 4 {
		t.Fatalf("query runs %d shards, want 4", q.Shards())
	}
	e.Run(in)
	if q.Err() != nil {
		t.Fatal(q.Err())
	}
	want, _ := runPlainPlan(t, q.Plan(), in, 0, consistency.Spec{})
	compareStreams(t, "multi-core smoke", q.Results(), want)
}
