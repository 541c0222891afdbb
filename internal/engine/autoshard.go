package engine

import (
	"runtime"

	"repro/internal/plan"
)

// Sharding is only a win when each event's share of operator work
// outweighs its share of runtime overhead. Every shard sees the whole
// input; ownKeys decides what its head processes, so every sibling monitor
// still buffers, logs and advances over each event, and order tags and the
// merge come on top. With batched handoff the channel round-trip amortizes
// across a run, but the per-event monitor work scales with the shard count
// — so the heuristic treats the tax as per shard: a plan only earns its
// n-th shard if its per-event cost can amortize n × shardTaxNs.
const shardTaxNs = 500

// maxAutoShards caps the heuristic: past this width the per-event
// monitor work every shard repeats outgrows the marginal parallel win on
// every workload measured.
const maxAutoShards = 8

// autoShards resolves plan.AutoShards into a concrete shard count: the
// number of cores actually available (GOMAXPROCS, clamped by NumCPU),
// bounded by how many shards the plan's estimated per-event cost
// (plan.CostNs, from the compile cache's analysis) can amortize. Plans
// that fail partitionability analysis, cheap plans, and single-core
// processes stay single-shard.
func autoShards(p *plan.Plan) int {
	if !p.Part.OK() {
		return 1
	}
	cores := runtime.GOMAXPROCS(0)
	if c := runtime.NumCPU(); c < cores {
		cores = c
	}
	if cores < 2 {
		return 1
	}
	n := p.CostNs() / shardTaxNs
	if n < 2 {
		return 1
	}
	if n > cores {
		n = cores
	}
	if n > maxAutoShards {
		n = maxAutoShards
	}
	return n
}
