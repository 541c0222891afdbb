package plan

import "testing"

// TestPartitionVerdicts locks the partitionability verdict and the Explain
// text of every shape the analysis distinguishes. The verdict is read from
// the analysis and the stage count, never from built operators, so these
// strings are what both Compile and Prepare must report.
func TestPartitionVerdicts(t *testing.T) {
	const seq = `EVENT E WHEN SEQUENCE(A a, B b, 10) `
	const keyed = seq + `WHERE CorrelationKey(m, EQUAL) `
	const head = "  0: incpattern:SEQUENCE(A AS a, B AS b, 10t) WHERE CorrelationKey(m, EQUAL)\n"
	const pushed = "  rewrites: correlation-pushdown(m), incremental-pattern"
	cases := []struct {
		name, src, part, explain string
	}{
		{"correlation-key-equal",
			`EVENT E WHEN UNLESS(SEQUENCE(A a, B b, 10), C c, 5) WHERE CorrelationKey(m, EQUAL)`,
			"by-attr(m)",
			"plan E [middle]\n  0: incpattern:UNLESS(SEQUENCE(A AS a, B AS b, 10t), C AS c, 5t) WHERE CorrelationKey(m, EQUAL)\n" +
				pushed + "\n  partition: by-attr(m)\n"},
		{"no-key", seq,
			"none (no CorrelationKey(attr, EQUAL) clause)",
			"plan E [middle]\n  0: incpattern:SEQUENCE(A AS a, B AS b, 10t)\n  rewrites: incremental-pattern\n" +
				"  partition: none (no CorrelationKey(attr, EQUAL) clause)\n"},
		{"pairwise-key-is-not-a-partition", seq + `WHERE {a.m = b.m} OUTPUT a.x # [0, 100)`,
			"none (no CorrelationKey(attr, EQUAL) clause)",
			"plan E [middle]\n  0: incpattern:SEQUENCE(A AS a, B AS b, 10t) WHERE {a.m = b.m}\n  1: slice\n  2: project\n" +
				pushed + ", slice-pushdown\n  partition: none (no CorrelationKey(attr, EQUAL) clause)\n"},
		{"duplicate-positive-alias",
			`EVENT E WHEN SEQUENCE(A x, A x, B y, 30) WHERE CorrelationKey(m, EQUAL)`,
			"none (duplicate positive alias: payload collisions escape CorrelationKey(m))",
			"plan E [middle]\n  0: incpattern:SEQUENCE(A AS x, A AS x, B AS y, 30t) WHERE CorrelationKey(m, EQUAL)\n" +
				"  rewrites: incremental-pattern\n" +
				"  partition: none (duplicate positive alias: payload collisions escape CorrelationKey(m))\n"},
		{"first-selection", keyed + `SC(first, consume)`,
			"none (first/last instance selection couples keys)",
			"plan E [middle]\n" + head + pushed + "\n  partition: none (first/last instance selection couples keys)\n"},
		{"last-selection", keyed + `SC(last, reuse)`,
			"none (first/last instance selection couples keys)",
			"plan E [middle]\n" + head + pushed + "\n  partition: none (first/last instance selection couples keys)\n"},
		{"atmost", `EVENT E WHEN ATMOST(1, SEQUENCE(A a, B b, 10), 5) WHERE CorrelationKey(m, EQUAL)`,
			"none (ATMOST counts instances across keys)",
			"plan E [middle]\n  0: incpattern:ATMOST(1, SEQUENCE(A AS a, B AS b, 10t), 5t) WHERE CorrelationKey(m, EQUAL)\n" +
				pushed + "\n  partition: none (ATMOST counts instances across keys)\n"},
		{"bounded-m-one-stage", keyed + `CONSISTENCY weak(5)`,
			"by-attr(m)",
			"plan E [weak(M=5)]\n" + head + pushed + "\n  partition: by-attr(m)\n"},
		{"bounded-m-projection", keyed + `OUTPUT a.x CONSISTENCY weak(5)`,
			"by-attr(m)",
			"plan E [weak(M=5)]\n" + head + "  1: project\n" + pushed + "\n  partition: by-attr(m)\n"},
		{"bounded-m-level-projection", keyed + `OUTPUT a.x CONSISTENCY level(0, 7)`,
			"by-attr(m)",
			"plan E [weak(M=7)]\n" + head + "  1: project\n" + pushed + "\n  partition: by-attr(m)\n"},
		{"bounded-m-slice", keyed + `# [0, 100) CONSISTENCY weak(3)`,
			"by-attr(m)",
			"plan E [weak(M=3)]\n" + head + "  1: slice\n" + pushed + "\n  partition: by-attr(m)\n"},
		{"slice-and-project", keyed + `OUTPUT a.x # [0, 100)`,
			"by-attr(m)",
			"plan E [middle]\n" + head + "  1: slice\n  2: project\n" + pushed +
				", slice-pushdown\n  partition: by-attr(m)\n"},
	}
	for _, c := range cases {
		p, err := Compile(c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := p.Part.String(); got != c.part {
			t.Errorf("%s: partition = %q, want %q", c.name, got, c.part)
		}
		if got := p.Explain(); got != c.explain {
			t.Errorf("%s: Explain =\n%q\nwant\n%q", c.name, got, c.explain)
		}
	}
}
