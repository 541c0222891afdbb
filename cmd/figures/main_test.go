package main

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
)

// figuresCmd invokes run capturing output.
func figuresCmd(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb strings.Builder
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestEveryFigurePrints: -fig N is a non-empty table for each of the
// paper's ten figures and an error for any other N.
func TestEveryFigurePrints(t *testing.T) {
	for n := 1; n <= 10; n++ {
		code, out, errb := figuresCmd(t, "-fig", strconv.Itoa(n))
		if code != 0 {
			t.Errorf("-fig %d: exit %d, stderr %q", n, code, errb)
		}
		if !strings.HasPrefix(out, "Figure "+strconv.Itoa(n)) || strings.Count(out, "\n") < 3 {
			t.Errorf("-fig %d printed no table:\n%s", n, out)
		}
	}
	for _, n := range []int{-1, 11, 42} {
		code, out, errb := figuresCmd(t, "-fig", strconv.Itoa(n))
		if code == 0 || out != "" || !strings.Contains(errb, "no figure") {
			t.Errorf("-fig %d: exit %d, stdout %q, stderr %q; want a refusal", n, code, out, errb)
		}
	}
	if code, _, _ := figuresCmd(t, "-fig", "eight"); code == 0 {
		t.Error("-fig eight: exit 0, want a flag error")
	}
}

// TestFigure8IsTheCoreExperiment: the printed table is core's, under the
// seed given, and carries the paper's correctness claim — strong and
// middle stay exact at both orderliness levels, weak(M=0) forgets under
// low orderliness.
func TestFigure8IsTheCoreExperiment(t *testing.T) {
	code, out, errb := figuresCmd(t, "-fig", "8", "-seed", "42")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb)
	}
	cfg := core.DefaultFig8()
	cfg.Seed = 42
	rows := core.Figure8(cfg)
	if want := fig8Heading + core.FormatFig8(rows); out != want {
		t.Fatalf("-fig 8 -seed 42 printed\n%s\nwant\n%s", out, want)
	}
	if _, other, _ := figuresCmd(t, "-fig", "8", "-seed", "7"); other == out {
		t.Error("-seed does not reach Figure 8")
	}

	// Correct is the last column of each printed row.
	correct := map[string]string{}
	for _, line := range strings.Split(strings.TrimPrefix(out, fig8Heading), "\n")[1:] {
		if f := strings.Fields(line); len(f) > 2 {
			correct[f[0]+"/"+f[1]] = f[len(f)-1]
		}
	}
	want := map[string]string{
		"strong/high": "true", "middle/high": "true", "weak(M=0)/high": "true",
		"strong/low": "true", "middle/low": "true", "weak(M=0)/low": "false",
	}
	for k, w := range want {
		if correct[k] != w {
			t.Errorf("Correct[%s] = %q, want %s\n%s", k, correct[k], w, out)
		}
	}
	if len(correct) != len(want) {
		t.Errorf("Figure 8 has %d rows, want %d", len(correct), len(want))
	}
}

// TestAllFigures: the default run prints each numbered figure once, in
// order, then the two unnumbered tables.
func TestAllFigures(t *testing.T) {
	code, out, errb := figuresCmd(t)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb)
	}
	at := -1
	heads := []string{"Figure 1.", "Figure 2.", "Figure 3.", "Figure 4.", "Figure 5.",
		"Figure 6.", "Figure 7.", "Figure 8 ", "Figure 9 ", "Figure 10.", "Section 1 ", "Ablation "}
	for _, h := range heads {
		i := strings.Index(out, "\n"+h)
		if h == heads[0] {
			i = strings.Index(out, h)
		}
		if i <= at || strings.Count(out, "\n"+h) > 1 {
			t.Fatalf("%q missing, repeated or out of order in the all-figures run", h)
		}
		at = i
	}
}
