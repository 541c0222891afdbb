// Command figures regenerates every table of the paper from the live code:
// the worked-example tables (Figures 1–7 and 10, internal/history) and the
// evaluation (Figure 8's consistency × orderliness tradeoffs, Figure 9's
// (B, M) spectrum, the Section 1 strawman comparison and the consumption
// ablation, internal/core), so the printed rows can be compared against
// the paper verbatim.
//
// Usage:
//
//	figures                  # every figure, then the Section 1 and ablation tables
//	figures -fig 5           # one figure (1–10)
//	figures -fig 8 -seed 7   # Figures 8/9 and Section 1 under another disorder pattern
//
// Absolute numbers in Figures 8 and 9 depend on the simulated transport;
// the shapes — who blocks, who retracts, who forgets, who stays exact —
// are the paper's claims and are asserted by the test suite (internal/core).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/history"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// figures is the -fig table: one printer per numbered figure of the paper.
// seed reaches only the printers that simulate delivery (8 and 9).
var figures = [...]func(w io.Writer, seed int64){
	1: figure1, 2: figure2, 3: figure3, 4: figure4, 5: figure5,
	6: figure6, 7: figure7, 8: figure8, 9: figure9, 10: figure10,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.Int("fig", 0, "figure number to print (1-10; 0 = all, plus the Section 1 and ablation tables)")
	seed := fs.Int64("seed", 42, "delivery-simulator seed (Figures 8, 9 and Section 1)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *fig != 0 {
		if *fig < 1 || *fig >= len(figures) {
			fmt.Fprintf(stderr, "figures: no figure %d (have 1-10)\n", *fig)
			return 1
		}
		figures[*fig](stdout, *seed)
		return 0
	}
	for _, p := range figures[1:] {
		p(stdout, *seed)
		fmt.Fprintln(stdout)
	}
	section1(stdout, *seed)
	fmt.Fprintln(stdout)
	consumptionAblation(stdout)
	return 0
}

func figure1(w io.Writer, _ int64) {
	t, labels := history.Figure1()
	fmt.Fprintln(w, "Figure 1. Example – Conceptual stream representation")
	fmt.Fprint(w, t.FormatConceptual(labels))
}

func figure2(w io.Writer, _ int64) {
	t, idL, kL := history.Figure2()
	fmt.Fprintln(w, "Figure 2. Example – Tritemporal history table")
	fmt.Fprint(w, t.FormatTritemporal(idL, kL))
}

func figure3(w io.Writer, _ int64) {
	l, r, kL := history.Figure3()
	fmt.Fprintln(w, "Figure 3. Example – Two history tables")
	fmt.Fprint(w, l.FormatOccurrence(kL))
	fmt.Fprintln(w)
	fmt.Fprint(w, r.FormatOccurrence(kL))
}

func figure4(w io.Writer, _ int64) {
	l, r, kL := history.Figure3()
	fmt.Fprintln(w, "Figure 4. Example – Two reduced history tables")
	fmt.Fprint(w, l.Reduce().FormatOccurrence(kL))
	fmt.Fprintln(w)
	fmt.Fprint(w, r.Reduce().FormatOccurrence(kL))
}

func figure5(w io.Writer, _ int64) {
	l, r, kL := history.Figure3()
	fmt.Fprintln(w, "Figure 5. Example – Two canonical history tables (to 3)")
	fmt.Fprint(w, l.CanonicalTo(3).FormatOccurrence(kL))
	fmt.Fprintln(w)
	fmt.Fprint(w, r.CanonicalTo(3).FormatOccurrence(kL))
	fmt.Fprintf(w, "logically equivalent to 3: %v; at 3: %v\n",
		l.EquivalentTo(r, 3), l.EquivalentAt(r, 3))
}

func figure6(w io.Writer, _ int64) {
	t, kL := history.Figure6()
	ann := t.Annotate()
	fmt.Fprintln(w, "Figure 6. Example – Annotated history table")
	fmt.Fprint(w, history.FormatAnnotated(ann, kL))
	fmt.Fprintf(w, "sync points: %v\n", history.SyncPoints(ann))
}

func figure7(w io.Writer, _ int64) {
	fmt.Fprintln(w, "Figure 7. Anatomy of a CEDR operator")
	fmt.Fprintln(w, `
              ┌───────────────────────────────────┐
 guarantees   │ consistency monitor               │  consistency
 on input ──► │   ┌───────────────────┐           │  guarantees ──►
 time         │   │ alignment buffer  │           │
              │   └───────┬───────────┘           │
 stream of    │           ▼                       │  stream of
 input state  │   ┌───────────────────┐  operator │  output state
 updates ───► │   │ operational module│◄─ state   │  updates ──►
              │   └───────────────────┘           │
              └───────────────────────────────────┘
 (implemented by internal/consistency.Monitor wrapping an operators.Op)`)
}

// fig8Heading is printed above Figure 8's table.
const fig8Heading = `Figure 8 — consistency tradeoffs (grouped count over a disordered stream)
paper's qualitative claims: strong blocks under disorder; middle trades
blocking for retraction volume at equal state; weak shrinks state and
output by forgetting — and is the only level that loses correctness.

`

func figure8(w io.Writer, seed int64) {
	cfg := core.DefaultFig8()
	cfg.Seed = seed
	fmt.Fprint(w, fig8Heading)
	fmt.Fprint(w, core.FormatFig8(core.Figure8(cfg)))
}

func figure9(w io.Writer, seed int64) {
	cfg := core.DefaultFig8()
	cfg.Seed = seed
	cfg.Events = 300
	fmt.Fprintln(w, "Figure 9 — the (B, M) consistency spectrum (meaningful triangle B <= M)")
	fmt.Fprintln(w, "corners: (0,0) weakest; (0,∞) middle; (∞,∞) strong.")
	fmt.Fprintln(w)
	fmt.Fprint(w, core.FormatFig9(core.Figure9(cfg, core.DefaultFig9Axis())))
}

func figure10(w io.Writer, _ int64) {
	t, idL := history.Figure10()
	fmt.Fprintln(w, "Figure 10. Example – Unitemporal ideal history table")
	fmt.Fprint(w, t.FormatUnitemporal(idL))
}

func section1(w io.Writer, seed int64) {
	fmt.Fprintln(w, "Section 1 — comparison against the paper's strawmen")
	fmt.Fprintln(w)
	fmt.Fprint(w, core.FormatBaseline(core.BaselineComparison(seed)))
}

func consumptionAblation(w io.Writer) {
	fmt.Fprintln(w, "Ablation — instance consumption (SEQUENCE over n A/B pairs)")
	for _, n := range []int{8, 32, 128} {
		reuse, consume := core.ConsumptionAblation(n)
		fmt.Fprintf(w, "  n=%4d   reuse: %6d outputs   consume: %4d outputs\n", n, reuse, consume)
	}
}
