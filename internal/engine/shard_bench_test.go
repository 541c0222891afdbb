package engine

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/consistency"
	"repro/internal/delivery"
	"repro/internal/event"
	"repro/internal/operators"
	"repro/internal/stream"
	"repro/internal/temporal"
	"repro/internal/workload"
)

// BenchmarkShardCriticalPath measures the sharded runtime's critical path:
// every shard reads the whole item sequence (its head processing its own
// keys only, see ownKeys), each shard is driven synchronously and timed, and
// events/s is reported against the slowest shard. This is the projected
// k-core throughput of the parallel runtime with the channel plumbing
// factored out — the measurement that stays meaningful on single-core CI
// hosts, where BenchmarkMonitorScalingSharded (the real end-to-end number)
// can only show the runtime's overhead, never its parallelism.
func BenchmarkShardCriticalPath(b *testing.B) {
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
				items := shardItems(delivered)
				b.ResetTimer()
				var worst time.Duration
				for i := 0; i < b.N; i++ {
					var slowest time.Duration
					for s := 0; s < shards; s++ {
						w := benchWorker(shards, s)
						var burst shardBurst
						start := time.Now()
						for seq, it := range items {
							// Reset at run boundaries, as the worker loop
							// does per handoff.
							if seq%DefaultBurst == 0 {
								burst.reset()
							}
							w.process(it, &burst)
						}
						if d := time.Since(start); d > slowest {
							slowest = d
						}
					}
					worst += slowest
				}
				b.ReportMetric(float64(len(delivered))*float64(b.N)/worst.Seconds(), "events/s")
			})
		}
	}
}

// benchWorker builds shard's single-stage worker of a shards-wide run for
// synchronous driving (no channels or free lists), its head wrapped as the
// runtime wraps it.
func benchWorker(shards, shard int) *shardWorker {
	var op operators.Op = operators.NewAggregate(operators.Count, "", "g")
	if shards > 1 {
		op = ownKeys(op, RouteByAttr("g", shards), shard)
	}
	return &shardWorker{merged: true, dropWindow: shard > 0,
		head: consistency.NewMonitor(op, consistency.Middle())}
}

// shardItems precomputes the item sequence the router hands every shard:
// the whole input, then the finish item.
func shardItems(in stream.Stream) []shardItem {
	out := make([]shardItem, 0, len(in)+1)
	for _, ev := range in {
		out = append(out, shardItem{kind: itemEvent, ev: ev})
	}
	return append(out, shardItem{kind: itemFinish})
}

// BenchmarkShardMergeStage isolates the merge stage's own cost: the tagged
// bursts of a sharded run are captured once, DefaultBurst items each as the
// workers hand them off, then merged one run at a time.
func BenchmarkShardMergeStage(b *testing.B) {
	cfg := workload.DefaultUniform()
	cfg.Events = 4000
	cfg.Groups = 64
	delivered := delivery.Deliver(workload.UniformEvents(cfg),
		delivery.Disordered(cfg.Seed, 100*temporal.Duration(cfg.Spacing),
			30*temporal.Duration(cfg.Spacing), 0.1))
	const shards = 4
	items := shardItems(delivered)
	// bursts[s][r] is shard s's burst for the r-th run.
	bursts := make([][]*shardBurst, shards)
	for s := range bursts {
		w := benchWorker(shards, s)
		for k, it := range items {
			if k%DefaultBurst == 0 {
				bursts[s] = append(bursts[s], new(shardBurst))
			}
			w.process(it, bursts[s][len(bursts[s])-1])
		}
	}
	outs := make([]*consistency.Burst, shards)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var mg consistency.Merger
		var out []event.Event
		total := 0
		for r := range bursts[0] {
			for s := range bursts {
				outs[s] = &bursts[s][r].out
			}
			out = mg.Merge(out[:0], outs)
			total += len(out)
		}
		if total == 0 {
			b.Fatal("no output")
		}
	}
	b.ReportMetric(float64(len(delivered))*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}
