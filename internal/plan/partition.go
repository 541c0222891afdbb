// Partitionability analysis: decides whether a compiled plan's head can run
// as N key-partitioned shards — each shard owning a disjoint key range, its
// own head operator and its own consistency monitor — such that the merged
// shard output is byte-identical to single-shard execution (see
// internal/engine's sharded runtime and the consistency package's Merger).
package plan

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/lang"
)

// PartitionMode classifies how a plan's input routes across shards.
type PartitionMode uint8

const (
	// PartitionNone: the plan is not key-decomposable; it runs on a single
	// shard regardless of the requested shard count.
	PartitionNone PartitionMode = iota
	// PartitionByAttr: events route by a payload attribute. An event with
	// no defined value for it, and a retraction without a payload, goes to
	// one fixed shard (engine.RouteByAttr), where it meets only the keys
	// hashed there.
	PartitionByAttr
)

// Partition is the analysis result attached to a Plan.
type Partition struct {
	Mode PartitionMode
	// Attr is the routing attribute for PartitionByAttr.
	Attr string
	// Why explains a PartitionNone verdict, for Explain.
	Why string
}

// OK reports whether the plan may run sharded.
func (p Partition) OK() bool { return p.Mode != PartitionNone }

// String renders the verdict for Explain.
func (p Partition) String() string {
	switch {
	case p.Mode == PartitionByAttr:
		return "by-attr(" + p.Attr + ")"
	case p.Why == "":
		return "none"
	default:
		return "none (" + p.Why + ")"
	}
}

func partitionNone(why string, args ...any) Partition {
	return Partition{Mode: PartitionNone, Why: fmt.Sprintf(why, args...)}
}

// partitionOf decides the partitionability of the plan an compiles to,
// from the analysis alone: a compiled plan is always the matcher tree
// (single-port, keyed by the analysis's verdict) followed by stateless
// Slice and Project stages. Only the head is sharded; the stages after it
// run once, on the merged head output, at any level.
//
// Requirements, and why they guarantee byte-identical sharded output:
//
//   - The pattern must decompose by an EQUAL correlation key, which confines
//     every detection — negation sites included — to one key.
//   - first/last instance selection picks one instance per detection
//     instant across all keys, so it couples keys and forces PartitionNone.
func partitionOf(an *lang.Analysis) Partition {
	if an.PartitionAttr == "" {
		return partitionNone("no CorrelationKey(attr, EQUAL) clause")
	}
	if an.DupPositiveAlias {
		// Combine prime-renames colliding payload keys ("x.m" → "x.m'"),
		// which the correlation filter never inspects — detections can
		// mix keys, so state does not decompose by the attribute.
		return partitionNone("duplicate positive alias: payload collisions escape CorrelationKey(%s)", an.PartitionAttr)
	}
	if an.Mode.Sel != algebra.SelectEach {
		return partitionNone("first/last instance selection couples keys")
	}
	return Partition{Mode: PartitionByAttr, Attr: an.PartitionAttr}
}
