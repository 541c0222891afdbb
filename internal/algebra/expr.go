// Package algebra implements the CEDR pattern algebra of Section 3: the
// logical operators of the WHEN clause (SEQUENCE, ATLEAST, ATMOST, ALL, ANY,
// the negation operators UNLESS and NOT, and CANCEL-WHEN), together with
// predicate injection from the WHERE clause and instance selection and
// consumption (SC modes).
//
// The algebra has a two-path design:
//
//   - this package holds the frozen reference path: an executable
//     transcription of the paper's denotational semantics (denote.go)
//     and a semi-naive streaming operator (op.go, PatternOp) that
//     re-derives that denotation over its scope-pruned store as
//     detections finalize — simple, obviously correct, slow; and
//   - package algebra/inc holds the production path: a delta-driven
//     incremental matcher tree covering the same grammar, held
//     byte-compatible with this package by randomized differential
//     tests (outputs, order tags, metrics, state counts).
package algebra

import (
	"fmt"
	"strings"

	"repro/internal/event"
	"repro/internal/temporal"
)

// Expr is a pattern expression of the WHEN clause. Every operator parameter
// is itself an expression, which is what makes the language fully
// composable (§3.2); the simplest expression is an event type.
type Expr interface {
	// MaxScope bounds how long a primitive event can remain relevant to
	// the expression; it drives operator-state pruning.
	MaxScope() temporal.Duration
	// String renders the expression in CEDR query syntax.
	String() string
}

// TypeExpr matches all events of one event type, optionally bound to an
// alias (the AS construct) for use in WHERE predicates. The contributor's
// payload appears in composite outputs under "<alias>." (or "<type>." when
// unaliased).
type TypeExpr struct {
	Type  string
	Alias string
}

// Prefix is the namespace this contributor's payload occupies in composite
// payloads.
func (t TypeExpr) Prefix() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Type
}

// MaxScope implements Expr.
func (t TypeExpr) MaxScope() temporal.Duration { return 0 }

// String implements Expr.
func (t TypeExpr) String() string {
	if t.Alias != "" {
		return t.Type + " AS " + t.Alias
	}
	return t.Type
}

// SequenceExpr is SEQUENCE(E1, ..., Ek, w): contributors in strictly
// increasing Vs order, with the last at most w after the first. The output
// is valid over [ek.Vs, e1.Vs + w).
type SequenceExpr struct {
	Kids []Expr
	W    temporal.Duration
}

// MaxScope implements Expr.
func (s SequenceExpr) MaxScope() temporal.Duration { return s.W + kidsScope(s.Kids) }

// String implements Expr.
func (s SequenceExpr) String() string { return nary("SEQUENCE", s.Kids, s.W) }

// AtLeastExpr is ATLEAST(n, E1, ..., Ek, w): any n contributors drawn from
// n distinct parameter positions, in increasing Vs order within w.
type AtLeastExpr struct {
	N    int
	Kids []Expr
	W    temporal.Duration
}

// MaxScope implements Expr.
func (a AtLeastExpr) MaxScope() temporal.Duration { return a.W + kidsScope(a.Kids) }

// String implements Expr.
func (a AtLeastExpr) String() string {
	return fmt.Sprintf("ATLEAST(%d, %s, %s)", a.N, kidList(a.Kids), a.W)
}

// All is ALL(E1, ..., Ek, w) ≡ ATLEAST(k, E1, ..., Ek, w).
func All(w temporal.Duration, kids ...Expr) AtLeastExpr {
	return AtLeastExpr{N: len(kids), Kids: kids, W: w}
}

// Any is ANY(E1, ..., Ek) ≡ ATLEAST(1, E1, ..., Ek, 1).
func Any(kids ...Expr) AtLeastExpr {
	return AtLeastExpr{N: 1, Kids: kids, W: 1}
}

// AtMostExpr is ATMOST(n, E1, ..., Ek, w). The paper defines it as
// syntactic sugar over a sliding-window count; we concretize it as: for
// each anchor event b among the contributors, output at b.Vs+w if at most n
// contributor events (including b) occurred in [b.Vs, b.Vs+w). Like UNLESS
// it can only finalize when the window closes.
type AtMostExpr struct {
	N    int
	Kids []Expr
	W    temporal.Duration
}

// MaxScope implements Expr.
func (a AtMostExpr) MaxScope() temporal.Duration { return a.W + kidsScope(a.Kids) }

// String implements Expr.
func (a AtMostExpr) String() string {
	return fmt.Sprintf("ATMOST(%d, %s, %s)", a.N, kidList(a.Kids), a.W)
}

// CorrPred correlates a candidate output with a negative-side event; it is
// how WHERE predicates that mention a negated alias are injected into the
// negation operator (the paper's "predicate injection", §3.2).
type CorrPred func(pos, neg event.Payload) bool

// The CorrKey field on the negation expressions below is an optimizer
// annotation, set by the semantic analyzer when the site's Corr predicate
// is provably false whenever the positive and negative sides carry
// definite, unequal values of the named payload attribute — the property a
// CorrelationKey(attr, EQUAL) clause guarantees. The denotational
// semantics and the semi-naive oracle ignore it entirely; the incremental
// matcher tree (package algebra/inc) uses it to key the site's candidate
// and blocker stores by the attribute's value. Empty means no such proof.

// UnlessExpr is UNLESS(E1, E2, w): an E1 occurrence followed by no
// (correlated) E2 occurrence in the next w time units. The negation scope
// starts at the E1 occurrence. Output is valid over [e1.Vs, e1.Vs + w).
type UnlessExpr struct {
	A       Expr
	B       Expr
	W       temporal.Duration
	Corr    CorrPred // nil = any B event blocks
	CorrKey string   // pushdown annotation; see CorrPred's doc
}

// MaxScope implements Expr.
func (u UnlessExpr) MaxScope() temporal.Duration {
	return u.W + maxDur(u.A.MaxScope(), u.B.MaxScope())
}

// String implements Expr.
func (u UnlessExpr) String() string {
	return fmt.Sprintf("UNLESS(%s, %s, %s)", u.A, u.B, u.W)
}

// NotExpr is NOT(E, SEQUENCE(E1, ..., Ek, w)): the sequence's detections,
// minus those with a (correlated) E occurrence strictly between the first
// and last contributors.
type NotExpr struct {
	Neg     Expr
	Seq     SequenceExpr
	Corr    CorrPred
	CorrKey string // pushdown annotation; see CorrPred's doc
}

// MaxScope implements Expr.
func (n NotExpr) MaxScope() temporal.Duration {
	return maxDur(n.Seq.MaxScope(), n.Neg.MaxScope()+n.Seq.W)
}

// String implements Expr.
func (n NotExpr) String() string { return fmt.Sprintf("NOT(%s, %s)", n.Neg, n.Seq) }

// CancelWhenExpr is CANCEL-WHEN(E1, E2): E1's detections, minus those whose
// partial detection window (root time to detection time) contains a
// (correlated) E2 occurrence.
type CancelWhenExpr struct {
	E       Expr
	Cancel  Expr
	Corr    CorrPred
	CorrKey string // pushdown annotation; see CorrPred's doc
}

// MaxScope implements Expr.
func (c CancelWhenExpr) MaxScope() temporal.Duration {
	return c.E.MaxScope() + c.Cancel.MaxScope()
}

// String implements Expr.
func (c CancelWhenExpr) String() string {
	return fmt.Sprintf("CANCEL-WHEN(%s, %s)", c.E, c.Cancel)
}

// FilterExpr injects a WHERE predicate over the (namespaced) payload of a
// sub-expression's outputs.
type FilterExpr struct {
	Kid  Expr
	Pred func(event.Payload) bool
	Desc string
}

// MaxScope implements Expr.
func (f FilterExpr) MaxScope() temporal.Duration { return f.Kid.MaxScope() }

// String implements Expr.
func (f FilterExpr) String() string {
	if f.Desc != "" {
		return fmt.Sprintf("%s WHERE %s", f.Kid, f.Desc)
	}
	return fmt.Sprintf("FILTER(%s)", f.Kid)
}

func kidsScope(kids []Expr) temporal.Duration {
	var m temporal.Duration
	for _, k := range kids {
		if s := k.MaxScope(); s > m {
			m = s
		}
	}
	return m
}

func maxDur(a, b temporal.Duration) temporal.Duration {
	if a > b {
		return a
	}
	return b
}

func kidList(kids []Expr) string {
	parts := make([]string, len(kids))
	for i, k := range kids {
		parts[i] = k.String()
	}
	return strings.Join(parts, ", ")
}

func nary(name string, kids []Expr, w temporal.Duration) string {
	return fmt.Sprintf("%s(%s, %s)", name, kidList(kids), w)
}
