// Package operators implements the run-time operator algebra of Section 6 of
// the paper: selection, projection, join, union, difference, grouped
// aggregation — all with view-update semantics (Definitions 7–11) — and the
// one non-view-update-compliant operator AlterLifetime (Definition 12), from
// which windows and the Inserts/Deletes separators are derived.
//
// Every operator is an "operational module" in the sense of Figure 7: it
// assumes its input arrives aligned (in Sync order — inserts ordered by Vs,
// retractions by their new Ve) and produces the output deltas of the view it
// computes. The consistency monitor (internal/consistency) wraps operators
// to uphold a consistency level under out-of-order physical arrival.
//
// Each operator also implements a denotational reference (reference.go)
// taken verbatim from the paper's definitions; property tests check the
// incremental implementations against the references (well-behavedness,
// Definition 6) and check view-update compliance (Definition 11).
package operators

import (
	"fmt"
	"strconv"

	"repro/internal/event"
	"repro/internal/temporal"
)

// Op is a streaming operator: the operational module of Figure 7.
//
// The contract: Process and Advance calls are interleaved such that every
// data event passed to Process(port, e) has e.Sync() >= t for the largest t
// previously passed to Advance. Advance(t) promises that all future input
// on every port has Sync >= t. Under that contract the operator's
// cumulative output, folded into a history table, equals the operator's
// denotational semantics applied to the input history.
//
// Buffer contract: the slice returned by Process or Advance is owned by the
// operator and valid only until the next call on it (or any of its clones);
// callers must copy the events they retain. Payloads and lineage attached
// to returned events are shared and must be treated as immutable.
type Op interface {
	// Name identifies the operator for plans and metrics.
	Name() string
	// Arity is the number of input ports (1 or 2).
	Arity() int
	// Process consumes one aligned data event and returns output deltas.
	Process(port int, e event.Event) []event.Event
	// Advance consumes an input guarantee: all future input has
	// Sync >= t. The operator may finalize and emit buffered output and
	// may discard state that the guarantee makes unreachable.
	Advance(t temporal.Time) []event.Event
	// OutputGuarantee translates an input guarantee into the guarantee
	// that holds on the output stream once Advance(t) has returned.
	OutputGuarantee(t temporal.Time) temporal.Time
	// StateSize reports the number of retained items, the paper's "state
	// size" axis in Figure 8.
	StateSize() int
	// Clone copies the operator and its state. Clones may share immutable
	// internals and reusable scratch with the original, so an operator and
	// its clones must only be driven sequentially (AsVersioned's clone
	// fallback uses them this way). Clones intended for concurrent use need
	// an operator-specific deep copy.
	Clone() Op
}

// Version is an opaque handle onto a point in a Versioned operator's
// mutation history. Versions are ordered by Pos (later marks have larger
// positions) and stay valid until a Rollback ends below them or a Compact
// discards the history below a later version.
type Version struct {
	Pos uint64
}

// Versioned is the one protocol by which a caller captures and restores
// operator state: a point-in-time handle now, a return to it later. The
// stateful operators implement it with an undo journal of their own state
// mutations — capture is O(1), restore O(mutations since) — and AsVersioned
// adapts everything else. The consistency monitor checkpoints through it:
// every admitted item is followed by a Mark, repair is a Rollback to the
// straggler's predecessor plus a replay of the items it displaced, and a
// sync point Compacts below the last item it covers.
//
// The contract: Mark returns a handle for the operator's current state.
// Rollback(v) restores the state the operator had when v was marked and
// reports success; it fails (leaving state untouched) when v is no longer
// valid. A successful Rollback invalidates every version marked after v; v
// itself stays valid and may be rolled back to again. Compact(v) declares
// that no version older than v will ever be rolled back to.
type Versioned interface {
	Op
	// Mark enables journaling (first call) and returns a handle for the
	// current state.
	Mark() Version
	// Rollback restores the state at v, reporting success.
	Rollback(v Version) bool
	// Compact discards undo history strictly below v; v and every later
	// version remain valid rollback targets.
	Compact(v Version)
}

// Stateless marks operators whose Process output depends only on the input
// event — no retained state, no Advance output, and output IDs derived
// purely from the input. The consistency monitor repairs stragglers through
// such operators without checkpoint rollback or log replay.
type Stateless interface {
	// StatelessOp is a marker; implementations are empty.
	StatelessOp()
}

// CostHint is implemented by operators that can estimate their per-event
// processing cost. The engine's overhead-aware shard-count heuristic uses
// it to decide how many shards a plan's work can amortize: sharding an
// operator whose per-event cost is below the router/merge handoff tax
// makes it slower, not faster.
type CostHint interface {
	// PerEventCostNs is the estimated cost of processing one event, in
	// nanoseconds. A coarse class estimate — hand-set against the
	// single-core numbers bench/e2e now prints as inc.process_ns_per_ev
	// (matcher) and BenchmarkMonitorScaling (aggregate) — not a
	// measurement.
	PerEventCostNs() int
}

// Per-event cost classes for operators without their own hint, in
// nanoseconds (hand-set; BenchmarkMonitorFastPath and
// BenchmarkMonitorScaling carry the per-event figures they approximate).
const (
	costStateless = 150 // Select/Project/Slice: predicate or map per event
	costDefault   = 700 // stateful default: aggregates, joins, difference
)

// CostOf estimates an operator's per-event processing cost in nanoseconds
// (see CostHint).
func CostOf(op Op) int {
	if h, ok := op.(CostHint); ok {
		return h.PerEventCostNs()
	}
	if _, ok := op.(Stateless); ok {
		return costStateless
	}
	return costDefault
}

// AdvanceOrdered is implemented by key-decomposable operators that emit
// output from Advance. One Advance call on an un-sharded instance emits
// outputs for every key in a deterministic cross-key order (the grouped
// aggregate's bucket order, the pattern evaluator's commit order); under
// key-partitioned execution each shard only produces its own keys' slice of
// that sequence. AppendAdvanceKey encodes the position of one Advance
// output in the full cross-key order as an order-preserving byte key
// (package ordkey), so the shard merge can interleave per-shard Advance
// bursts into exactly the sequence a single instance would have emitted.
//
// The event passed in is the raw operator output (before the consistency
// monitor rewrites its physical ID). Operators that never emit from Advance
// do not need to implement this.
type AdvanceOrdered interface {
	AppendAdvanceKey(dst []byte, e event.Event) []byte
}

// KeyString renders a payload value exactly as fmt's %v would, with
// allocation-free fast paths for the common types. Grouped aggregation
// hashes group keys through it.
func KeyString(v event.Value) string {
	switch x := v.(type) {
	case string:
		return x
	case int64:
		return strconv.FormatInt(x, 10)
	case int:
		return strconv.Itoa(x)
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	default:
		return fmt.Sprintf("%v", x)
	}
}

// Predicate evaluates a payload filter (Definition 8's boolean function f).
type Predicate func(event.Payload) bool

// Mapper transforms payloads (Definition 7's function f; it cannot touch
// timestamps).
type Mapper func(event.Payload) event.Payload

// ThetaJoin evaluates Definition 9's θ over two payloads.
type ThetaJoin func(left, right event.Payload) bool

// retractTo builds the retraction delta that shrinks an emitted output
// event to newEnd (full removal when newEnd <= V.Start).
func retractTo(out event.Event, newEnd temporal.Time) event.Event {
	r := out.Clone()
	r.Kind = event.Retract
	r.V.End = newEnd
	return r
}
