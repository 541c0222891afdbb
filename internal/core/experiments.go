// Package core assembles the paper's experiments from the substrate
// packages: the consistency-tradeoff measurements behind Figure 8, the
// (B, M) spectrum sweep behind Figure 9, the baseline comparisons of
// Section 1, and the ablations DESIGN.md calls out. cmd/figures and the
// repository's benchmarks are thin wrappers over this package.
package core

import (
	"fmt"
	"strings"

	"repro/internal/algebra"
	"repro/internal/baseline"
	"repro/internal/consistency"
	"repro/internal/delivery"
	"repro/internal/event"
	"repro/internal/operators"
	"repro/internal/stream"
	"repro/internal/temporal"
	"repro/internal/workload"
)

// Fig8Row is one measured cell block of Figure 8: a consistency level run
// against a stream of given orderliness.
type Fig8Row struct {
	Level       string
	Orderliness string // "high" or "low"

	MeanBlocking float64 // CEDR ticks an event waits in the alignment buffer
	Blocked      int
	MaxState     int
	Outputs      int // total emitted data items, incl. retractions
	Retractions  int
	Dropped      int
	Correct      bool // final history equivalent to the ideal run
}

// Fig8Config parameterizes the experiment.
type Fig8Config struct {
	Events         int
	Spacing        temporal.Time
	Lifetime       temporal.Time
	DenseCTIPeriod temporal.Duration // "high orderliness": frequent sync points
	SparseCTI      temporal.Duration // "low orderliness": rare sync points
	StragglerDelay temporal.Duration
	StragglerProb  float64
	Seed           int64
	WeakM          temporal.Duration
}

// DefaultFig8 mirrors the scale of the paper's qualitative discussion.
func DefaultFig8() Fig8Config {
	return Fig8Config{
		Events:         600,
		Spacing:        4,
		Lifetime:       10,
		DenseCTIPeriod: 20,
		SparseCTI:      400,
		StragglerDelay: 120,
		StragglerProb:  0.3,
		Seed:           42,
		WeakM:          0,
	}
}

func fig8Source(cfg Fig8Config) stream.Stream {
	var s stream.Stream
	for i := 0; i < cfg.Events; i++ {
		vs := temporal.Time(i) * cfg.Spacing
		s = append(s, event.NewInsert(event.ID(i+1), "E", vs, vs+cfg.Lifetime,
			event.Payload{"g": int64(i % 5), "x": int64(i % 11)}))
	}
	return s
}

func fig8Op() operators.Op { return operators.NewAggregate(operators.Count, "", "g") }

// Figure8 measures blocking, state size and output size for the three
// named consistency levels under high and low orderliness — the
// quantitative counterpart of the paper's qualitative table.
func Figure8(cfg Fig8Config) []Fig8Row {
	src := fig8Source(cfg)
	ideal := operators.OutputTable(operators.RunAligned(fig8Op(), src))

	levels := []consistency.Spec{
		consistency.Strong(), consistency.Middle(), consistency.Weak(cfg.WeakM),
	}
	var rows []Fig8Row
	for _, orderly := range []bool{true, false} {
		var dcfg delivery.Config
		name := "high"
		if orderly {
			dcfg = delivery.Ordered(cfg.DenseCTIPeriod)
		} else {
			name = "low"
			dcfg = delivery.Disordered(cfg.Seed, cfg.SparseCTI, cfg.StragglerDelay, cfg.StragglerProb)
		}
		delivered := delivery.Deliver(src, dcfg)
		for _, spec := range levels {
			out, met := consistency.RunStreams(fig8Op(), spec, delivered)
			rows = append(rows, Fig8Row{
				Level:        spec.Name(),
				Orderliness:  name,
				MeanBlocking: met.MeanBlocking(),
				Blocked:      met.BlockedEvents,
				MaxState:     met.MaxState,
				Outputs:      met.OutputEvents(),
				Retractions:  met.OutputRetractions,
				Dropped:      met.Dropped,
				Correct:      operators.OutputTable(out).EquivalentStar(ideal),
			})
		}
	}
	return rows
}

// FormatFig8 renders the rows as the paper-style table.
func FormatFig8(rows []Fig8Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-11s %12s %8s %9s %8s %12s %8s %8s\n",
		"Consistency", "Orderliness", "MeanBlocking", "Blocked", "MaxState",
		"Outputs", "Retractions", "Dropped", "Correct")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %-11s %12.1f %8d %9d %8d %12d %8d %8v\n",
			r.Level, r.Orderliness, r.MeanBlocking, r.Blocked, r.MaxState,
			r.Outputs, r.Retractions, r.Dropped, r.Correct)
	}
	return b.String()
}

// Fig9Point is one sampled point of the Figure 9 spectrum.
type Fig9Point struct {
	B, M         temporal.Duration
	MeanBlocking float64
	MaxState     int
	Retractions  int
	Dropped      int
	Correct      bool
}

// Figure9 sweeps the (B, M) consistency spectrum over a disordered stream.
// Axes use the paper's convention: only B <= M is meaningful. The sweep
// shows blocking growing along B, repair (retraction) volume shrinking as
// B grows, and correctness failing once M stops covering the disorder.
func Figure9(cfg Fig8Config, axis []temporal.Duration) []Fig9Point {
	src := fig8Source(cfg)
	ideal := operators.OutputTable(operators.RunAligned(fig8Op(), src))
	delivered := delivery.Deliver(src,
		delivery.Disordered(cfg.Seed, cfg.SparseCTI, cfg.StragglerDelay, cfg.StragglerProb))
	var pts []Fig9Point
	for _, m := range axis {
		for _, bb := range axis {
			if bb > m {
				continue // outside the meaningful triangle
			}
			spec := consistency.Level(bb, m)
			out, met := consistency.RunStreams(fig8Op(), spec, delivered)
			pts = append(pts, Fig9Point{
				B: bb, M: m,
				MeanBlocking: met.MeanBlocking(),
				MaxState:     met.MaxState,
				Retractions:  met.OutputRetractions,
				Dropped:      met.Dropped,
				Correct:      operators.OutputTable(out).EquivalentStar(ideal),
			})
		}
	}
	return pts
}

// DefaultFig9Axis spans the spectrum from memoryless to unbounded.
func DefaultFig9Axis() []temporal.Duration {
	return []temporal.Duration{0, 30, 150, 600, consistency.Unbounded}
}

// FormatFig9 renders the sweep.
func FormatFig9(pts []Fig9Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-10s %12s %9s %12s %8s %8s\n",
		"B", "M", "MeanBlocking", "MaxState", "Retractions", "Dropped", "Correct")
	dur := func(d temporal.Duration) string {
		if d == consistency.Unbounded {
			return "∞"
		}
		return fmt.Sprintf("%d", int64(d))
	}
	for _, p := range pts {
		fmt.Fprintf(&b, "%-10s %-10s %12.1f %9d %12d %8d %8v\n",
			dur(p.B), dur(p.M), p.MeanBlocking, p.MaxState, p.Retractions, p.Dropped, p.Correct)
	}
	return b.String()
}

// BaselineRow is one row of the Section 1 comparison: CEDR levels versus a
// drop-late point engine on the same disordered stream.
type BaselineRow struct {
	System      string
	Dropped     int
	Outputs     int
	Correct     bool
	Note        string
	Retractions int
}

// BaselineComparison reproduces the paper's qualitative claims: the point
// engine silently loses late data; pub/sub can only filter; CEDR's strong
// and middle levels stay exact.
func BaselineComparison(seed int64) []BaselineRow {
	src := workload.StockTicks(workload.DefaultTicks())
	window := 10 * temporal.Second
	disordered := delivery.Deliver(src,
		delivery.Disordered(seed, 30*temporal.Second, 15*temporal.Second, 0.3))

	mkOp := func() operators.Op { return operators.NewAggregate(operators.Avg, "price", "symbol") }
	ideal := operators.OutputTable(operators.RunAligned(
		mkOp(), applyWindow(src, window)))

	var rows []BaselineRow
	for _, spec := range []consistency.Spec{consistency.Strong(), consistency.Middle(), consistency.Weak(0)} {
		out, met := consistency.RunStreams(mkOp(), spec, applyWindow(disordered, window))
		rows = append(rows, BaselineRow{
			System:      "CEDR " + spec.Name(),
			Dropped:     met.Dropped,
			Outputs:     met.OutputEvents(),
			Retractions: met.OutputRetractions,
			Correct:     operators.OutputTable(out).EquivalentStar(ideal),
		})
	}
	results, dropped := baseline.RunPointAggregate(disordered, window, "price")
	rows = append(rows, BaselineRow{
		System:  "point-DSMS",
		Dropped: dropped,
		Outputs: len(results),
		Correct: dropped == 0,
		Note:    "late tuples silently dropped",
	})
	ps := baseline.NewPubSub()
	ps.Subscribe("TICK", nil)
	for _, e := range disordered.Events() {
		ps.Publish(e)
	}
	rows = append(rows, BaselineRow{
		System:  "pub/sub",
		Outputs: ps.Delivered,
		Correct: false,
		Note:    "stateless routing only; cannot aggregate or detect patterns",
	})
	return rows
}

// applyWindow clips tick lifetimes to the aggregation window, stamping the
// stream through the Window operator (stateless pre-pass).
func applyWindow(s stream.Stream, w temporal.Duration) stream.Stream {
	op := operators.Window(w)
	var out stream.Stream
	for _, e := range s {
		if e.IsCTI() {
			out = append(out, e)
			continue
		}
		for _, o := range op.Process(0, e) {
			o.C = e.C
			out = append(out, o)
		}
	}
	return out
}

// FormatBaseline renders the comparison.
func FormatBaseline(rows []BaselineRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %8s %8s %12s %8s  %s\n",
		"System", "Dropped", "Outputs", "Retractions", "Correct", "Note")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %8d %8d %12d %8v  %s\n",
			r.System, r.Dropped, r.Outputs, r.Retractions, r.Correct, r.Note)
	}
	return b.String()
}

// ConsumptionAblation measures the §1 claim that instance consumption tames
// the multiplicative output of SEQUENCE: it returns output counts for
// reuse vs consume on an n-pair workload.
func ConsumptionAblation(n int) (reuse, consume int) {
	var store []event.Event
	for i := 0; i < n; i++ {
		store = append(store,
			event.NewInsert(event.ID(2*i+1), "A", temporal.Time(2*i), temporal.Infinity, nil),
			event.NewInsert(event.ID(2*i+2), "B", temporal.Time(2*i+1), temporal.Infinity, nil))
	}
	expr := algebra.SequenceExpr{Kids: []algebra.Expr{
		algebra.TypeExpr{Type: "A", Alias: "a"}, algebra.TypeExpr{Type: "B", Alias: "b"},
	}, W: temporal.Duration(4 * n)}
	reuse = len(algebra.ApplySC(algebra.Denote(expr, store), algebra.SCMode{}))
	consume = len(algebra.ApplySC(algebra.Denote(expr, store), algebra.SCMode{Cons: algebra.Consume}))
	return reuse, consume
}
