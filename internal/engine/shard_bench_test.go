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
// each shard's full item sequence (its own events, advance probes for the
// rest, broadcast punctuation) is driven synchronously and timed, and
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
				perShard := shardItemSequences(delivered, shards, RouteByAttr("g", shards))
				b.ResetTimer()
				var worst time.Duration
				for i := 0; i < b.N; i++ {
					var slowest time.Duration
					for s := 0; s < shards; s++ {
						w := benchWorker()
						var burst shardBurst
						start := time.Now()
						for seq, it := range perShard[s] {
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

// benchWorker builds a single-stage worker for synchronous driving (no
// channels or free lists).
func benchWorker() *shardWorker {
	return &shardWorker{merged: true,
		head: consistency.NewMonitor(operators.NewAggregate(operators.Count, "", "g"), consistency.Middle())}
}

// shardItemSequences precomputes, per shard, the exact item sequence the
// router would deliver; item k carries global sequence number k on every
// shard.
func shardItemSequences(in stream.Stream, shards int, route func(event.Event) int) [][]shardItem {
	out := make([][]shardItem, shards)
	for _, ev := range in {
		if ev.IsCTI() {
			for s := 0; s < shards; s++ {
				out[s] = append(out[s], shardItem{kind: itemCTI, ev: ev})
			}
			continue
		}
		owner := route(ev)
		probe := event.Event{V: temporal.From(ev.Sync()), C: ev.C}
		for s := 0; s < shards; s++ {
			if s == owner {
				out[s] = append(out[s], shardItem{kind: itemData, ev: ev})
			} else {
				out[s] = append(out[s], shardItem{kind: itemProbe, ev: probe})
			}
		}
	}
	fin := shardItem{kind: itemFinish}
	for s := 0; s < shards; s++ {
		out[s] = append(out[s], fin)
	}
	return out
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
	perShard := shardItemSequences(delivered, shards, RouteByAttr("g", shards))
	// bursts[s][r] is shard s's burst for the r-th run.
	bursts := make([][]*shardBurst, shards)
	for s := range bursts {
		w := benchWorker()
		for k, it := range perShard[s] {
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
