// Partitionability analysis: decides whether a compiled plan can run as N
// key-partitioned shards — each shard owning a disjoint key range, its own
// operator instances and its own consistency monitors — such that the
// merged shard output is byte-identical to single-shard execution (see
// internal/engine's sharded runtime and internal/delivery's merge stage).
package plan

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/algebra/inc"
	"repro/internal/consistency"
	"repro/internal/lang"
	"repro/internal/operators"
)

// PartitionMode classifies how a plan's input routes across shards.
type PartitionMode uint8

const (
	// PartitionNone: the plan is not key-decomposable; it runs on a single
	// shard regardless of the requested shard count.
	PartitionNone PartitionMode = iota
	// PartitionByAttr: events route by a payload attribute. Every event fed
	// to the query (retractions included) must carry the attribute.
	PartitionByAttr
	// PartitionByID: state and output decompose per fact, so events route
	// by their event ID (retractions share their insert's ID and follow it).
	PartitionByID
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
	switch p.Mode {
	case PartitionByAttr:
		return "by-attr(" + p.Attr + ")"
	case PartitionByID:
		return "by-id"
	default:
		if p.Why == "" {
			return "none"
		}
		return "none (" + p.Why + ")"
	}
}

func partitionNone(why string, args ...any) Partition {
	return Partition{Mode: PartitionNone, Why: fmt.Sprintf(why, args...)}
}

// partitionOf decides the plan's partitionability.
//
// Requirements, and why they guarantee byte-identical sharded output:
//
//   - Every stage after the head must be stateless: their outputs are a
//     per-event function of the head stage's output, which the head's key
//     partition already routes consistently.
//   - Bounded-memory levels (weak, interior M) need a single stage: a
//     downstream monitor's forgetting horizon tracks the frontier of the
//     head's output stream, which one shard only observes for its own keys.
//   - The head operator must decompose by key: grouped aggregation by its
//     group, pattern evaluation by an EQUAL correlation key (which confines
//     every detection — negation sites included — to one key), per-fact
//     operators (stateless, AlterLifetime) by event ID.
//   - first/last instance selection picks one instance per detection
//     instant across all keys, so it couples keys and forces PartitionNone.
func partitionOf(an *lang.Analysis, p *Plan) Partition {
	for i, st := range p.Stages[1:] {
		if _, ok := st.(operators.Stateless); !ok {
			return partitionNone("downstream stage %d (%s) is stateful", i+1, st.Name())
		}
	}
	if p.Spec.M != consistency.Unbounded && len(p.Stages) > 1 {
		return partitionNone("bounded memory (M=%d) across %d stages", int64(p.Spec.M), len(p.Stages))
	}
	head := p.Stages[0]
	if head.Arity() != 1 {
		return partitionNone("multi-port head operator %s", head.Name())
	}
	switch op := head.(type) {
	case *operators.Aggregate:
		if op.GroupBy == "" {
			return partitionNone("global (ungrouped) aggregate")
		}
		return Partition{Mode: PartitionByAttr, Attr: op.GroupBy}
	case *inc.Op:
		if an == nil || an.PartitionAttr == "" {
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
	case *operators.AlterLifetime:
		return Partition{Mode: PartitionByID}
	default:
		if _, ok := head.(operators.Stateless); ok {
			return Partition{Mode: PartitionByID}
		}
		return partitionNone("head operator %s is not key-decomposable", head.Name())
	}
}
