package cedr

// Benchmarks regenerating the paper's evaluation artifacts, one per figure
// or experiment (see DESIGN.md §4 for the index). Run:
//
//	go test -bench=. -benchmem
//
// Absolute timings are hardware-dependent; the semantic shapes (who blocks,
// who retracts, who forgets) are asserted by the unit tests in
// internal/core. The benchmarks here measure the costs those shapes imply.

import (
	"fmt"
	"testing"

	"repro/internal/algebra"
	"repro/internal/algebra/inc"
	"repro/internal/baseline"
	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/delivery"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/history"
	"repro/internal/lang"
	"repro/internal/operators"
	"repro/internal/plan"
	"repro/internal/stream"
	"repro/internal/temporal"
	"repro/internal/workload"
)

// --- Figures 1–6, 10: the temporal model machinery ---

func BenchmarkFigure1ConceptualModel(b *testing.B) {
	tbl, _ := history.Figure1()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = tbl.CanonicalTo(3)
	}
}

func BenchmarkFigure2TritemporalReduce(b *testing.B) {
	tbl, _, _ := history.Figure2()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = tbl.Reduce()
	}
}

func BenchmarkFigure5Canonicalization(b *testing.B) {
	left, right, _ := history.Figure3()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !left.EquivalentTo(right, 3) {
			b.Fatal("figure 5 equivalence broken")
		}
	}
}

func BenchmarkFigure6SyncPoints(b *testing.B) {
	tbl, _ := history.Figure6()
	ann := tbl.Annotate()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = history.SyncPoints(ann)
	}
}

func BenchmarkFigure10IdealTable(b *testing.B) {
	src := workload.StockTicks(workload.DefaultTicks())
	tbl := history.FromEvents(src)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = tbl.Ideal().Star()
	}
}

// --- Figure 8: consistency levels × orderliness ---

func fig8Bench(b *testing.B, spec consistency.Spec, orderly bool) {
	b.Helper()
	cfg := core.DefaultFig8()
	cfg.Events = 300
	src := workload.UniformEvents(workload.Uniform{
		Seed: cfg.Seed, Events: cfg.Events, Groups: 5,
		Spacing: cfg.Spacing, Lifetime: temporal.Duration(cfg.Lifetime)})
	var dcfg delivery.Config
	if orderly {
		dcfg = delivery.Ordered(cfg.DenseCTIPeriod)
	} else {
		dcfg = delivery.Disordered(cfg.Seed, cfg.SparseCTI, cfg.StragglerDelay, cfg.StragglerProb)
	}
	delivered := delivery.Deliver(src, dcfg)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		op := operators.NewAggregate(operators.Count, "", "g")
		out, _ := consistency.RunStreams(op, spec, delivered)
		if len(out) == 0 {
			b.Fatal("no output")
		}
	}
	b.ReportMetric(float64(len(delivered))*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

func BenchmarkFigure8StrongOrdered(b *testing.B)    { fig8Bench(b, consistency.Strong(), true) }
func BenchmarkFigure8StrongDisordered(b *testing.B) { fig8Bench(b, consistency.Strong(), false) }
func BenchmarkFigure8MiddleOrdered(b *testing.B)    { fig8Bench(b, consistency.Middle(), true) }
func BenchmarkFigure8MiddleDisordered(b *testing.B) { fig8Bench(b, consistency.Middle(), false) }
func BenchmarkFigure8WeakOrdered(b *testing.B)      { fig8Bench(b, consistency.Weak(0), true) }
func BenchmarkFigure8WeakDisordered(b *testing.B)   { fig8Bench(b, consistency.Weak(0), false) }

// --- Figure 9: an interior point of the (B, M) spectrum ---

func BenchmarkFigure9InteriorLevel(b *testing.B) {
	fig8Bench(b, consistency.Level(30, 150), false)
}

// --- §3.1 end-to-end: the CIDR07 example through language+plan+engine ---

func BenchmarkCIDR07EndToEnd(b *testing.B) {
	src, _ := workload.MachineEvents(workload.DefaultMachines())
	tenMin := 10 * temporal.Minute
	delivered := delivery.Deliver(src, delivery.Ordered(tenMin))
	const q = `
EVENT MissedRestart
WHEN UNLESS(SEQUENCE(INSTALL x, SHUTDOWN AS y, 12 hours), RESTART AS z, 5 minutes)
WHERE CorrelationKey(Machine_Id, EQUAL)
SC(each, consume)`
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys := New()
		query, err := sys.Register(q, WithSpec(Middle()))
		if err != nil {
			b.Fatal(err)
		}
		sys.Run(delivered)
		if len(query.Alerts()) == 0 {
			b.Fatal("no alerts")
		}
	}
	b.ReportMetric(float64(len(delivered))*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// --- §1 baseline comparison: throughput of the strawman vs CEDR ---

func BenchmarkBaselinePointAggregate(b *testing.B) {
	src := workload.StockTicks(workload.DefaultTicks())
	delivered := delivery.Deliver(src, delivery.Ordered(10*temporal.Second))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		baseline.RunPointAggregate(delivered, 10*temporal.Second, "price")
	}
	b.ReportMetric(float64(len(delivered))*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

func BenchmarkCEDRAggregateStrong(b *testing.B) {
	src := workload.StockTicks(workload.DefaultTicks())
	delivered := delivery.Deliver(src, delivery.Ordered(10*temporal.Second))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		op := operators.NewAggregate(operators.Avg, "price", "symbol")
		consistency.RunStreams(op, consistency.Strong(), delivered)
	}
	b.ReportMetric(float64(len(delivered))*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

func BenchmarkPubSubRouting(b *testing.B) {
	src := workload.StockTicks(workload.DefaultTicks())
	ps := baseline.NewPubSub()
	for s := 0; s < 8; s++ {
		ps.Subscribe("TICK", nil)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, e := range src {
			ps.Publish(e)
		}
	}
}

// --- Ablations ---

// Sequence-matching ablation over the same workload and monitor: the
// delta-driven, key-indexed matcher tree plan.Compile builds (rewrites
// `correlation-pushdown`, `incremental-pattern`) against two reference
// stages built by hand from the same analysis.
const seqQuery = `EVENT Pairs WHEN SEQUENCE(INSTALL x, SHUTDOWN y, 12 hours)
WHERE {x.Machine_Id = y.Machine_Id} SC(each, consume)`

func seqAnalysis(b *testing.B) *lang.Analysis {
	an, err := lang.Compile(seqQuery)
	if err != nil {
		b.Fatal(err)
	}
	return an
}

func seqBench(b *testing.B, stage operators.Op) {
	src, _ := workload.MachineEvents(workload.DefaultMachines())
	delivered := delivery.Deliver(src, delivery.Ordered(10*temporal.Minute))
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := consistency.NewMonitor(stage.Clone(), consistency.Middle())
		for _, e := range delivered {
			m.Push(0, e)
		}
		m.Finish()
	}
	b.ReportMetric(float64(len(delivered))*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

func BenchmarkAblationSequenceIncremental(b *testing.B) {
	p, err := plan.Compile(seqQuery)
	if err != nil {
		b.Fatal(err)
	}
	seqBench(b, p.Stages[0])
}

// The semi-naive re-deriving evaluator — the specification the matcher
// tree is byte-exact against (FuzzIncVsOracle).
func BenchmarkAblationSequenceGeneric(b *testing.B) {
	an := seqAnalysis(b)
	seqBench(b, algebra.NewPatternOp(an.Expr, an.Mode, an.Query.Name))
}

// The same matcher tree without correlation-key pushdown: the delta
// against BenchmarkAblationSequenceIncremental is the pushdown's isolated
// contribution (the join enumerates every cross-key pair again and the
// residual filter drops them after the fact).
func BenchmarkAblationSequenceNoPushdown(b *testing.B) {
	an := seqAnalysis(b)
	seqBench(b, inc.NewOp(an.Expr, an.Mode, an.Query.Name))
}

// Key-index stress: the pushdown win grows with the key domain, since the
// flat join's fan-out is quadratic in co-live matches across *all* keys
// while the keyed join only touches one bucket. 64 machines instead of the
// ablation's 10.
func BenchmarkAblationPatternKeyIndex(b *testing.B) {
	src, _ := workload.MachineEvents(workload.Machines{
		Seed: 1, Machines: 64, Cycles: 4,
		RestartDeadline: 5 * temporal.Minute, MissProb: 0.3,
		CycleGap: 30 * temporal.Minute,
	})
	delivered := delivery.Deliver(src, delivery.Ordered(10*temporal.Minute))
	p, err := plan.Compile(seqQuery)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := consistency.NewMonitor(p.Stages[0].Clone(), consistency.Middle())
		for _, e := range delivered {
			m.Push(0, e)
		}
		m.Finish()
	}
	b.ReportMetric(float64(len(delivered))*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// Consumption: the §1 claim that SEQUENCE without consumption has
// multiplicative output.
func consumptionBench(b *testing.B, mode algebra.SCMode) {
	var src stream.Stream
	n := 64
	for i := 0; i < n; i++ {
		src = append(src,
			event.NewInsert(event.ID(2*i+1), "A", temporal.Time(2*i), temporal.Infinity, nil),
			event.NewInsert(event.ID(2*i+2), "B", temporal.Time(2*i+1), temporal.Infinity, nil))
	}
	expr := algebra.SequenceExpr{Kids: []algebra.Expr{
		algebra.TypeExpr{Type: "A", Alias: "a"}, algebra.TypeExpr{Type: "B", Alias: "b"},
	}, W: temporal.Duration(4 * n)}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		op := inc.NewOp(expr, mode, "out")
		total := 0
		for _, e := range src {
			// Driven as the monitor drives it at an optimistic level: the
			// frontier follows each event, so detections emit at once.
			total += len(op.Advance(e.Sync())) + len(op.Process(0, e))
		}
		if total == 0 {
			b.Fatal("no matches")
		}
	}
}

func BenchmarkAblationConsumptionReuse(b *testing.B) {
	consumptionBench(b, algebra.SCMode{})
}
func BenchmarkAblationConsumptionConsume(b *testing.B) {
	consumptionBench(b, algebra.SCMode{Cons: algebra.Consume})
}

// Alignment-buffer ablation: monitor fast path (in-order) vs repair path
// (every tenth event is a straggler).
func BenchmarkMonitorFastPath(b *testing.B) {
	src := workload.StockTicks(workload.DefaultTicks())
	delivered := delivery.Deliver(src, delivery.Ordered(5*temporal.Second))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		op := operators.NewSelect(func(event.Payload) bool { return true })
		consistency.RunStreams(op, consistency.Middle(), delivered)
	}
	b.ReportMetric(float64(len(delivered))*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

func BenchmarkMonitorRepairPath(b *testing.B) {
	src := workload.StockTicks(workload.DefaultTicks())
	delivered := delivery.Deliver(src,
		delivery.Disordered(5, 5*temporal.Second, 3*temporal.Second, 0.1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		op := operators.NewSelect(func(event.Payload) bool { return true })
		consistency.RunStreams(op, consistency.Middle(), delivered)
	}
	b.ReportMetric(float64(len(delivered))*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// --- Monitor scaling: events × straggler rate × consistency level ---

// BenchmarkMonitorScaling sweeps the consistency monitor across stream
// volume, disorder intensity and consistency level over the reusable
// high-volume workload generator, so hot-path regressions show up as a
// grid, not a single point. Stragglers are delayed by 30 events' worth of
// Sync time — deep enough to force snapshot-rollback repairs at repairing
// levels.
func BenchmarkMonitorScaling(b *testing.B) {
	levels := []struct {
		name string
		spec consistency.Spec
	}{
		{"strong", consistency.Strong()},
		{"middle", consistency.Middle()},
		{"weak", consistency.Weak(0)},
	}
	for _, events := range []int{1000, 4000} {
		cfg := workload.DefaultUniform()
		cfg.Events = events
		src := workload.UniformEvents(cfg)
		for _, stragglers := range []float64{0, 0.1, 0.3} {
			var dcfg delivery.Config
			if stragglers == 0 {
				dcfg = delivery.Ordered(20 * temporal.Duration(cfg.Spacing))
			} else {
				dcfg = delivery.Disordered(cfg.Seed, 100*temporal.Duration(cfg.Spacing),
					30*temporal.Duration(cfg.Spacing), stragglers)
			}
			delivered := delivery.Deliver(src, dcfg)
			for _, lv := range levels {
				name := fmt.Sprintf("events=%d/stragglers=%d%%/%s",
					events, int(stragglers*100), lv.name)
				b.Run(name, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						op := operators.NewAggregate(operators.Count, "", "g")
						out, _ := consistency.RunStreams(op, lv.spec, delivered)
						if len(out) == 0 {
							b.Fatal("no output")
						}
					}
					b.ReportMetric(float64(len(delivered))*float64(b.N)/b.Elapsed().Seconds(), "events/s")
				})
			}
		}
	}
}

// Shard dimension: the same monitor-scaling workload executed by the
// key-partitioned parallel runtime (engine.RunShardedOp) across shard
// counts. The workload uses a wider group fan-out (64 keys) so partitions
// stay balanced; shards=1 measures the sharded runtime's overhead (router,
// tagging, merge) against the plain monitor numbers above.
func BenchmarkMonitorScalingSharded(b *testing.B) {
	cfg := workload.DefaultUniform()
	cfg.Events = 4000
	cfg.Groups = 64
	src := workload.UniformEvents(cfg)
	for _, stragglers := range []float64{0, 0.1} {
		var dcfg delivery.Config
		if stragglers == 0 {
			dcfg = delivery.Ordered(20 * temporal.Duration(cfg.Spacing))
		} else {
			dcfg = delivery.Disordered(cfg.Seed, 100*temporal.Duration(cfg.Spacing),
				30*temporal.Duration(cfg.Spacing), stragglers)
		}
		delivered := delivery.Deliver(src, dcfg)
		for _, shards := range []int{1, 2, 4, 8} {
			name := fmt.Sprintf("stragglers=%d%%/middle/shards=%d", int(stragglers*100), shards)
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					out, _, err := engine.RunShardedOp(
						func() operators.Op { return operators.NewAggregate(operators.Count, "", "g") },
						consistency.Middle(), shards, 0, engine.RouteByAttr("g", shards), delivered)
					if err != nil {
						b.Fatal(err)
					}
					if len(out) == 0 {
						b.Fatal("no output")
					}
				}
				b.ReportMetric(float64(len(delivered))*float64(b.N)/b.Elapsed().Seconds(), "events/s")
			})
		}
	}
}

// fleetStream is the fleet workload the sharded and width benchmarks share:
// n machines × 20 install/shutdown/restart cycles, in order, a CTI every 10
// minutes — long enough that steady-state matching, not registration,
// dominates.
func fleetStream(n int) stream.Stream {
	src, _ := workload.MachineEvents(workload.Machines{
		Seed: 1, Machines: n, Cycles: 20,
		RestartDeadline: 5 * temporal.Minute, MissProb: 0.3,
		CycleGap: 30 * temporal.Minute,
	})
	return delivery.Deliver(src, delivery.Ordered(10*temporal.Minute))
}

// fleetBench runs the §3.1 query at Middle over delivered on the given
// shard count, reporting events/s.
func fleetBench(b *testing.B, delivered stream.Stream, shards int) {
	const q = `
EVENT MissedRestart
WHEN UNLESS(SEQUENCE(INSTALL x, SHUTDOWN AS y, 12 hours), RESTART AS z, 5 minutes)
WHERE CorrelationKey(Machine_Id, EQUAL)
SC(each, consume)`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys := New()
		query, err := sys.Register(q, WithSpec(Middle()), WithShards(shards))
		if err != nil {
			b.Fatal(err)
		}
		sys.Run(delivered)
		if len(query.Alerts()) == 0 {
			b.Fatal("no alerts")
		}
	}
	b.ReportMetric(float64(len(delivered))*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// End-to-end sharded execution of the §3.1 query through the engine, on
// the 192-machine fleet stream. For the multi-core scaling curve run the
// 8-shard point under `go test -cpu 1,2,4,8`.
func BenchmarkCIDR07Sharded(b *testing.B) {
	delivered := fleetStream(192)
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			fleetBench(b, delivered, shards)
		})
	}
}

// The width sweep: the same query on 1 shard as the fleet — and with it the
// matcher's live state — doubles three times. Per-event cost is O(affected
// matches), not O(live state), so events/s should stay flat across the four
// rows (ROADMAP, "Performance trajectory").
func BenchmarkFleetWidth(b *testing.B) {
	for _, n := range []int{24, 48, 96, 192} {
		delivered := fleetStream(n)
		b.Run(fmt.Sprintf("machines=%d", n), func(b *testing.B) {
			fleetBench(b, delivered, 1)
		})
	}
}

// The payload table's miss path (internal/algebra/inc/payload.go): the
// 192-machine fleet stream with a unique Seq and Load on every event, so no
// leaf or composite payload ever repeats and every lookup misses. Compare
// allocs/op and ns/op against the parent with paired `go test -c` binaries.
func BenchmarkPatternDistinctPayloads(b *testing.B) {
	delivered := fleetStream(192)
	for i, e := range delivered {
		if e.Kind == event.Insert {
			e.Payload = e.Payload.Clone()
			e.Payload["Seq"] = int64(i)
			e.Payload["Load"] = float64(i) + 0.5
			delivered[i] = e
		}
	}
	fleetBench(b, delivered, 1)
}

// --- Infrastructure ---

func BenchmarkCompileQuery(b *testing.B) {
	const q = `
EVENT MissedRestart
WHEN UNLESS(SEQUENCE(INSTALL x, SHUTDOWN AS y, 12 hours), RESTART AS z, 5 minutes)
WHERE {x.Machine_Id = y.Machine_Id} AND {x.Machine_Id = z.Machine_Id}
SC(each, consume) CONSISTENCY middle`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := plan.Compile(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeliverySimulator(b *testing.B) {
	src := workload.StockTicks(workload.DefaultTicks())
	cfg := delivery.Disordered(9, 10*temporal.Second, 5*temporal.Second, 0.3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if out := delivery.Deliver(src, cfg); len(out) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkJoinThroughput(b *testing.B) {
	ticks := workload.StockTicks(workload.DefaultTicks())
	news := workload.NewsEvents(workload.DefaultNews())
	dt := delivery.Deliver(ticks, delivery.Ordered(10*temporal.Second))
	dn := delivery.Deliver(news, delivery.Ordered(10*temporal.Second))
	theta := func(l, r event.Payload) bool { return event.ValueEqual(l["symbol"], r["symbol"]) }
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		op := operators.NewJoin(theta)
		consistency.RunStreams(op, consistency.Middle(), dt, dn)
	}
}
