package plan

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/algebra/inc"
	"repro/internal/consistency"
	"repro/internal/temporal"
)

func TestSpecResolutionFromClause(t *testing.T) {
	cases := []struct {
		src  string
		want consistency.Spec
	}{
		{`EVENT E WHEN ANY(A) CONSISTENCY strong`, consistency.Strong()},
		{`EVENT E WHEN ANY(A) CONSISTENCY middle`, consistency.Middle()},
		{`EVENT E WHEN ANY(A) CONSISTENCY weak(500)`, consistency.Weak(500)},
		{`EVENT E WHEN ANY(A) CONSISTENCY weak`, consistency.Weak(0)},
		{`EVENT E WHEN ANY(A) CONSISTENCY level(10, 100)`, consistency.Level(10, 100)},
		{`EVENT E WHEN ANY(A)`, consistency.Middle()}, // default
	}
	for _, c := range cases {
		p, err := Compile(c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		if p.Spec != c.want {
			t.Errorf("%s: spec = %+v, want %+v", c.src, p.Spec, c.want)
		}
	}
}

func TestSpecOverrideWins(t *testing.T) {
	p, err := Compile(`EVENT E WHEN ANY(A) CONSISTENCY strong`,
		WithSpec(consistency.Weak(7)))
	if err != nil {
		t.Fatal(err)
	}
	if p.Spec != consistency.Weak(7) {
		t.Errorf("override lost: %+v", p.Spec)
	}
}

func TestStageShapes(t *testing.T) {
	// Pattern only.
	p, err := Compile(`EVENT E WHEN UNLESS(A a, B b, 10)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Stages) != 1 {
		t.Errorf("stages = %d", len(p.Stages))
	}
	// Pattern + slice + project.
	p, err = Compile(`EVENT E WHEN SEQUENCE(A a, B b, 10) OUTPUT a.x # [0, 100)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Stages) != 3 {
		t.Fatalf("stages = %d, want pattern+slice+project", len(p.Stages))
	}
	if p.Stages[1].Name() != "slice" || p.Stages[2].Name() != "project" {
		t.Errorf("stage order: %s, %s (slice must precede project)",
			p.Stages[1].Name(), p.Stages[2].Name())
	}
	found := false
	for _, r := range p.Rewrites {
		if r == "slice-pushdown" {
			found = true
		}
	}
	if !found {
		t.Errorf("slice-pushdown not recorded: %v", p.Rewrites)
	}
}

func TestSpecializationConditions(t *testing.T) {
	// The whole grammar routes through the incremental matcher tree —
	// flat sequences, nested operators and negation alike.
	for _, q := range []string{
		`EVENT E WHEN SEQUENCE(A a, B b, 10)`,
		`EVENT E WHEN SEQUENCE(ANY(A x), B b, 10)`,
		`EVENT E WHEN UNLESS(A a, B b, 10)`,
	} {
		p, err := Compile(q)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(p.Stages[0].Name(), "incpattern:") {
			t.Errorf("%s: stage 0 = %s, want incremental pattern op", q, p.Stages[0].Name())
		}
		if len(p.Rewrites) == 0 || p.Rewrites[0] != "incremental-pattern" {
			t.Errorf("%s: rewrites = %v", q, p.Rewrites)
		}
	}
}

// TestCorrelationPushdown checks when the correlation-key pushdown rewrite
// fires and which attribute reaches the matcher tree.
func TestCorrelationPushdown(t *testing.T) {
	cases := []struct {
		name string
		src  string
		key  string // expected pushdown attribute; "" = no pushdown
	}{
		{name: "correlation-key-equal",
			src: `EVENT E WHEN UNLESS(SEQUENCE(A a, B b, 10), C c, 5)
WHERE CorrelationKey(m, EQUAL)`,
			key: "m"},
		{name: "correlation-key-unique-not-pushable",
			src: `EVENT E WHEN SEQUENCE(A a, B b, 10) WHERE CorrelationKey(m, UNIQUE)`,
			key: ""},
		{name: "pairwise-spanning",
			src: `EVENT E WHEN SEQUENCE(A a, B b, 10) WHERE {a.m = b.m}`,
			key: "m"},
		{name: "pairwise-spanning-three",
			src: `EVENT E WHEN SEQUENCE(A a, B b, C c, 10) WHERE {a.m = b.m} AND {b.m = c.m}`,
			key: "m"},
		{name: "pairwise-not-spanning",
			src: `EVENT E WHEN SEQUENCE(A a, B b, C c, 10) WHERE {a.m = b.m}`,
			key: ""},
		{name: "pairwise-mixed-attrs-not-pushable",
			src: `EVENT E WHEN SEQUENCE(A a, B b, 10) WHERE {a.m = b.n}`,
			key: ""},
		{name: "inequality-not-pushable",
			src: `EVENT E WHEN SEQUENCE(A a, B b, 10) WHERE {a.m != b.m}`,
			key: ""},
		{name: "literal-not-pushable",
			src: `EVENT E WHEN SEQUENCE(A a, B b, 10) WHERE {a.m = 'x'}`,
			key: ""},
		{name: "single-alias-no-join",
			src: `EVENT E WHEN ATMOST(2, A a, 10) WHERE CorrelationKey(m, EQUAL)`,
			key: "m"},
		// A duplicated positive alias makes Combine prime-rename the
		// colliding payload keys (x.m → x.m'), which neither predicate
		// family inspects — pushdown must refuse (for both shapes).
		{name: "duplicate-alias-correlation-key",
			src: `EVENT E WHEN SEQUENCE(A x, A x, B y, 30) WHERE CorrelationKey(m, EQUAL)`,
			key: ""},
		{name: "duplicate-alias-pairwise",
			src: `EVENT E WHEN SEQUENCE(A x, A x, B y, 30) WHERE {x.m = y.m}`,
			key: ""},
	}
	for _, c := range cases {
		p, err := Compile(c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if strings.HasPrefix(c.name, "duplicate-alias") && p.Part.OK() {
			// Same collision-escape reasoning forbids key-sharding: a
			// detection can mix keys through the primed payload names.
			t.Errorf("%s: plan still partitions (%s)", c.name, p.Part)
		}
		tag := ""
		for _, r := range p.Rewrites {
			if strings.HasPrefix(r, "correlation-pushdown(") {
				tag = strings.TrimSuffix(strings.TrimPrefix(r, "correlation-pushdown("), ")")
			}
		}
		if tag != c.key {
			t.Errorf("%s: pushdown rewrite = %q, want %q (rewrites %v)", c.name, tag, c.key, p.Rewrites)
		}
		if op, ok := p.Stages[0].(*inc.Op); ok {
			if op.JoinKey() != c.key {
				t.Errorf("%s: op join key = %q, want %q", c.name, op.JoinKey(), c.key)
			}
		} else if c.key != "" {
			t.Errorf("%s: keyed plan did not produce an incremental op", c.name)
		}
	}
}

func TestExplainMentionsEverything(t *testing.T) {
	p, err := Compile(`EVENT Watch WHEN SEQUENCE(A a, B b, 10) CONSISTENCY strong`)
	if err != nil {
		t.Fatal(err)
	}
	out := p.Explain()
	for _, want := range []string{"Watch", "strong", "incpattern:SEQUENCE", "rewrites"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
}

func TestCompileErrorPropagates(t *testing.T) {
	if _, err := Compile(`EVENT broken WHEN`); err == nil {
		t.Error("parse error swallowed")
	}
}

func TestUnboundedLevelClamp(t *testing.T) {
	p, err := Compile(`EVENT E WHEN ANY(A) CONSISTENCY level(100)`)
	if err != nil {
		t.Fatal(err)
	}
	// level(B) with no M: M defaults to unbounded, B kept.
	if p.Spec.B != temporal.Duration(100) || p.Spec.M != consistency.Unbounded {
		t.Errorf("spec = %+v", p.Spec)
	}
}

// TestPrepareCapsShards: a registration may request up to MaxShards shards
// (or AutoShards); Prepare — and so Compile, every register surface and log
// replay — refuses more with a *ShardsError naming the request.
func TestPrepareCapsShards(t *testing.T) {
	const src = `EVENT E WHEN ANY(A a) WHERE CorrelationKey(k, EQUAL)`
	for _, n := range []int{AutoShards, 0, 1, MaxShards} {
		if _, err := Prepare(src, WithShards(n)); err != nil {
			t.Errorf("shards %d refused: %v", n, err)
		}
	}
	for _, n := range []int{MaxShards + 1, 1 << 20} {
		for name, build := range map[string]func(string, ...Option) error{
			"Prepare": func(s string, o ...Option) error { _, err := Prepare(s, o...); return err },
			"Compile": func(s string, o ...Option) error { _, err := Compile(s, o...); return err },
		} {
			err := build(src, WithShards(n))
			var se *ShardsError
			if !errors.As(err, &se) || se.Shards != n {
				t.Errorf("%s with %d shards: %v, want a *ShardsError for %d", name, n, err, n)
			}
		}
	}
}
