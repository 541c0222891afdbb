package lang

import (
	"fmt"
	"strings"

	"repro/internal/algebra"
	"repro/internal/event"
	"repro/internal/temporal"
)

// Analysis is the semantic-analysis result: the bound pattern algebra
// expression with every WHERE predicate injected at its correct operator
// (§3.2 "predicate injection"), the SC mode, the optional output
// transformation, and the optional slicing window.
type Analysis struct {
	Query *Query
	Expr  algebra.Expr
	Mode  algebra.SCMode
	// OutputMap is the OUTPUT-clause instance transformation over the
	// composite (namespaced) payload; nil means pass-through.
	OutputMap func(event.Payload) event.Payload
	// Slice is the intersection of the @ and # windows; nil if unsliced.
	Slice *temporal.Interval
	// PartitionAttr is the payload attribute of a CorrelationKey(attr,
	// EQUAL) predicate, when the query declares one. Under EQUAL
	// correlation every detection combines only events agreeing on the
	// attribute (including across negation sites), so the query's state and
	// output decompose by it — the property the sharded runtime's
	// partitionability analysis (internal/plan) keys on. Empty otherwise.
	PartitionAttr string
	// PushKeyAttr is the correlation-key pushdown attribute: a payload
	// attribute whose WHERE-clause predicates provably reject every
	// composite combining two definite, unequal values of it. It holds the
	// PartitionAttr when a CorrelationKey(attr, EQUAL) clause is present,
	// and otherwise an attribute whose pairwise {a.attr = b.attr}
	// equalities connect *all* positively-bound aliases (so transitivity
	// pins the whole detection to one value). The planner passes it into
	// the incremental matcher tree (algebra/inc's WithJoinKey), which then
	// enumerates join combinations per key instead of across the store;
	// predicates that do not fit this shape stay behind in the residual
	// FilterExpr. Empty when no attribute qualifies.
	PushKeyAttr string
	// DupPositiveAlias: some alias binds more than one contributor in the
	// positive pattern scope. Composite payloads then carry prime-renamed
	// collision keys ("x.m" → "x.m'") that no WHERE predicate inspects, so
	// neither the correlation-key pushdown (PushKeyAttr stays empty) nor
	// the key-partitioned sharded runtime (PartitionAttr's decomposition
	// claim, which such composites violate) may rely on the attribute.
	DupPositiveAlias bool
	// InputTypes lists the event TYPEs the pattern references (positive and
	// negative sites alike), deduplicated in appearance order. The engine's
	// cross-query routing fabric uses it as the coarse discrimination axis:
	// an event whose Type appears in no registered query's InputTypes is
	// never delivered to that query.
	InputTypes []string
	// RouteKeyAttr/RouteKeyVal, when RouteKeyAttr is non-empty, assert that
	// a data event carrying a definite payload value for RouteKeyAttr that
	// is not ValueEqual to RouteKeyVal cannot change this query's detected
	// output: it can neither contribute to a surviving detection (the
	// [attr Equal 'lit'] positive test rejects any composite holding such a
	// value) nor block or cancel one (the shorthand's correlation predicate
	// compares every blocker value against the literal directly, before any
	// composite values). Events missing the attribute — and retractions —
	// stay wild and must still be delivered. The claim is refused (empty
	// attr) for duplicate positive aliases (prime-renamed payload keys
	// escape the predicates) and for patterns containing ATMOST, whose
	// count-based suppression observes events before the top-level filter.
	RouteKeyAttr string
	RouteKeyVal  event.Value
}

// site identifies where an alias is bound: site 0 is the positive part of
// the pattern; each negation operator (UNLESS's B, NOT's E, CANCEL-WHEN's
// E2) is a numbered negative site.
type binding struct {
	site   int
	prefix string
}

// Analyze binds and checks a parsed query. Templates (queries with $name
// placeholders) must be instantiated first — see AnalyzeBound.
func Analyze(q *Query) (*Analysis, error) {
	if params := Params(q); len(params) != 0 {
		return nil, fmt.Errorf("lang: query %s has unbound template parameters %v (register with bindings)", q.Name, params)
	}
	a := &Analysis{Query: q}

	// Pass 1: enumerate negation sites and bind aliases.
	b := &binder{aliases: map[string]binding{}}
	if err := b.scan(q.When, 0); err != nil {
		return nil, err
	}

	// Pass 2: classify predicates.
	positive, corrs, err := b.classify(q.Where)
	if err != nil {
		return nil, err
	}
	for _, pred := range q.Where {
		if pred.IsCorrKey() && pred.CorrMode == "EQUAL" {
			a.PartitionAttr = pred.CorrAttr
			break
		}
	}
	a.DupPositiveAlias = b.dupPos
	a.PushKeyAttr = b.pushKeyAttr(q.Where, a.PartitionAttr)
	if a.PushKeyAttr != "" && a.PartitionAttr == a.PushKeyAttr {
		// A CorrelationKey(attr, EQUAL) clause injects an equality
		// correlation at every negation site, so each site's blocker
		// matching may be keyed on the attribute too (the CorrKey
		// annotation the incremental matcher reads). The pairwise-equality
		// pushdown does not annotate sites: its per-alias predicates
		// compare one specific attribute lookup, which is vacuously true
		// when both lookups are absent — a case the value-set keying of
		// the matcher cannot distinguish, so only the join side is keyed.
		b.corrKeyAttr = a.PartitionAttr
	}

	// Pass 3: build the algebra expression with injected predicates.
	b.siteSeq = 0
	expr, err := b.build(q.When, corrs)
	if err != nil {
		return nil, err
	}
	if len(positive) > 0 {
		preds := positive
		expr = algebra.FilterExpr{
			Kid:  expr,
			Pred: func(p event.Payload) bool { return evalAll(preds, p) },
			Desc: describePreds(q.Where),
		}
	}
	a.Expr = expr

	sel, err := algebra.ParseSelection(q.SC.Selection)
	if err != nil {
		return nil, err
	}
	cons, err := algebra.ParseConsumption(q.SC.Consumption)
	if err != nil {
		return nil, err
	}
	a.Mode = algebra.SCMode{Sel: sel, Cons: cons}

	if len(q.Output) > 0 {
		fields := q.Output
		for _, f := range fields {
			if f.Attr != "" {
				if _, ok := b.aliases[f.Alias]; !ok {
					return nil, fmt.Errorf("lang: OUTPUT references unknown alias %q", f.Alias)
				}
				if b.aliases[f.Alias].site != 0 {
					return nil, fmt.Errorf("lang: OUTPUT cannot reference negated alias %q", f.Alias)
				}
			}
		}
		a.OutputMap = func(p event.Payload) event.Payload {
			out := event.Payload{}
			for _, f := range fields {
				key := f.Alias
				if f.Attr != "" {
					key = f.Alias + "." + f.Attr
				}
				name := f.As
				if name == "" {
					if f.Attr != "" {
						name = f.Attr
					} else {
						name = f.Alias
					}
				}
				out[name] = p[key]
			}
			return out
		}
	}

	a.InputTypes = inputTypes(q.When)
	if !b.dupPos && !hasOp(q.When, "ATMOST") {
		for _, pred := range q.Where {
			if pred.IsCorrKey() && pred.CorrMode == "EQUAL" && pred.CorrLit != nil {
				a.RouteKeyAttr, a.RouteKeyVal = pred.CorrAttr, pred.CorrLit
				break
			}
		}
	}

	if q.OccSlice != nil || q.ValSlice != nil {
		win := temporal.NewInterval(temporal.MinTime, temporal.Infinity)
		if q.OccSlice != nil {
			win = win.Intersect(temporal.NewInterval(q.OccSlice[0], q.OccSlice[1]))
		}
		if q.ValSlice != nil {
			win = win.Intersect(temporal.NewInterval(q.ValSlice[0], q.ValSlice[1]))
		}
		a.Slice = &win
	}
	return a, nil
}

type binder struct {
	aliases map[string]binding
	sites   int // negation sites discovered (site 0 is positive)
	siteSeq int // rebuild counter for pass 3
	// corrKeyAttr, when non-empty, is stamped as the CorrKey annotation on
	// every negation operator pass 3 builds (set only for CorrelationKey
	// EQUAL, whose correlation predicate covers every site).
	corrKeyAttr string
	// dupPos: some alias binds more than one contributor in the positive
	// scope. Composite payloads then prime-rename the collision ("x.m" →
	// "x.m'"), a name neither the CorrelationKey suffix rule nor an exact
	// {x.m = y.m} lookup inspects — so the residual predicates can accept
	// a cross-key composite, and the key-pushdown soundness proof ("the
	// filter rejects every definite cross-key combination") breaks. Such
	// queries refuse pushdown outright.
	dupPos bool
}

// pushKeyAttr decides the correlation-key pushdown attribute (see
// Analysis.PushKeyAttr). partitionAttr, when set, already carries the
// CorrelationKey(attr, EQUAL) proof; otherwise the pairwise equality
// predicates must form a connected graph spanning every positively-bound
// alias on one common attribute.
func (b *binder) pushKeyAttr(preds []Pred, partitionAttr string) string {
	if b.dupPos {
		return "" // primed payload collisions escape the predicates; see dupPos
	}
	if partitionAttr != "" {
		return partitionAttr
	}
	var posAliases []string
	for al, bind := range b.aliases {
		if bind.site == 0 {
			posAliases = append(posAliases, al)
		}
	}
	if len(posAliases) < 2 {
		return "" // nothing to join across — pushdown has no combinations to prune
	}

	type edge struct{ a, b string }
	edges := map[string][]edge{}
	var attrOrder []string // deterministic candidate order: first predicate wins
	for _, p := range preds {
		if p.IsCorrKey() || p.Op != "=" || p.L.IsLit || p.R.IsLit {
			continue
		}
		if p.L.Attr != p.R.Attr || p.L.Alias == p.R.Alias {
			continue
		}
		la, lok := b.aliases[p.L.Alias]
		ra, rok := b.aliases[p.R.Alias]
		if !lok || !rok || la.site != 0 || ra.site != 0 {
			continue
		}
		if _, seen := edges[p.L.Attr]; !seen {
			attrOrder = append(attrOrder, p.L.Attr)
		}
		edges[p.L.Attr] = append(edges[p.L.Attr], edge{p.L.Alias, p.R.Alias})
	}

	for _, attr := range attrOrder {
		// Union-find over the positive aliases: the attribute qualifies
		// only if its equalities connect all of them into one component.
		parent := map[string]string{}
		var find func(x string) string
		find = func(x string) string {
			p, ok := parent[x]
			if !ok || p == x {
				parent[x] = x
				return x
			}
			r := find(p)
			parent[x] = r
			return r
		}
		for _, e := range edges[attr] {
			parent[find(e.a)] = find(e.b)
		}
		root := find(posAliases[0])
		spanning := true
		for _, al := range posAliases[1:] {
			if find(al) != root {
				spanning = false
				break
			}
		}
		if spanning {
			return attr
		}
	}
	return ""
}

// scan walks the pattern, assigning aliases to sites. site is the innermost
// enclosing negation site (0 = positive part).
func (b *binder) scan(n PatternNode, site int) error {
	switch x := n.(type) {
	case TypeNode:
		prefix := x.Alias
		if prefix == "" {
			prefix = x.Type
		}
		if prev, dup := b.aliases[prefix]; dup && prev.site != site {
			return fmt.Errorf("lang: alias %q bound in conflicting contexts", prefix)
		} else if dup && site == 0 {
			b.dupPos = true
		}
		b.aliases[prefix] = binding{site: site, prefix: prefix}
		return nil
	case OpNode:
		switch x.Op {
		case "UNLESS", "UNLESS'", "NOT", "CANCEL-WHEN":
			// First child is positive (relative to the current site), the
			// second is a fresh negative site — except NOT, whose first
			// child is the negated expression.
			b.sites++
			neg := b.sites
			posKid, negKid := x.Kids[0], x.Kids[1]
			if x.Op == "NOT" {
				posKid, negKid = x.Kids[1], x.Kids[0]
			}
			if err := b.scan(posKid, site); err != nil {
				return err
			}
			return b.scan(negKid, neg)
		default:
			for _, k := range x.Kids {
				if err := b.scan(k, site); err != nil {
					return err
				}
			}
			return nil
		}
	}
	return fmt.Errorf("lang: unknown pattern node %T", n)
}

// predFn evaluates a positive predicate over a composite payload.
type predFn func(event.Payload) bool

// classify splits WHERE predicates into positive filters and per-site
// correlation predicates.
func (b *binder) classify(preds []Pred) ([]predFn, map[int][]algebra.CorrPred, error) {
	var positive []predFn
	corrs := map[int][]algebra.CorrPred{}
	for _, pred := range preds {
		if pred.IsCorrKey() {
			pos, siteCorrs := corrKeyPredicates(pred)
			positive = append(positive, pos)
			for s := 1; s <= b.sites; s++ {
				corrs[s] = append(corrs[s], siteCorrs)
			}
			continue
		}
		lSite, err := b.termSite(pred.L)
		if err != nil {
			return nil, nil, err
		}
		rSite, err := b.termSite(pred.R)
		if err != nil {
			return nil, nil, err
		}
		switch {
		case lSite == 0 && rSite == 0:
			positive = append(positive, comparePred(pred, false, false))
		case lSite > 0 && rSite > 0 && lSite != rSite:
			return nil, nil, fmt.Errorf("lang: predicate correlates two different negation scopes")
		default:
			site := lSite
			if site == 0 {
				site = rSite
			}
			corrs[site] = append(corrs[site],
				corrComparePred(pred, lSite > 0, rSite > 0))
		}
	}
	return positive, corrs, nil
}

func (b *binder) termSite(t Term) (int, error) {
	if t.IsLit {
		return 0, nil
	}
	bind, ok := b.aliases[t.Alias]
	if !ok {
		return 0, fmt.Errorf("lang: unknown alias %q in WHERE clause", t.Alias)
	}
	return bind.site, nil
}

// corrKeyPredicates expands CorrelationKey(attr, EQUAL|UNIQUE) (or the
// [attr Equal 'lit'] shorthand) into a positive equivalence test plus a
// correlation predicate for negation sites. Both stream over the payload
// names ending in ".attr" and compare as they go — the matcher evaluates
// them per delta item and per candidate×blocker visit, on replay too, so
// they build no slice and allocate nothing.
func corrKeyPredicates(pred Pred) (predFn, algebra.CorrPred) {
	suffix, unique, lit := "."+pred.CorrAttr, pred.CorrMode == "UNIQUE", pred.CorrLit
	pos := func(p event.Payload) bool {
		var first event.Value
		seen := false
		for k, v := range p {
			if !strings.HasSuffix(k, suffix) {
				continue
			}
			if unique {
				// Pairwise distinct: each unordered pair once, by name order.
				for k2, v2 := range p {
					if k < k2 && strings.HasSuffix(k2, suffix) && event.ValueEqual(v, v2) {
						return false
					}
				}
			} else if !seen {
				first, seen = v, true
			} else if !event.ValueEqual(first, v) {
				return false
			}
		}
		return !seen || lit == nil || event.ValueEqual(first, lit)
	}
	corr := func(posP, negP event.Payload) bool {
		for nk, nv := range negP {
			if !strings.HasSuffix(nk, suffix) {
				continue
			}
			if !unique && lit != nil && !event.ValueEqual(nv, lit) {
				return false
			}
			// EQUAL fails on an unequal pair, UNIQUE on an equal one.
			for pk, pv := range posP {
				if strings.HasSuffix(pk, suffix) && event.ValueEqual(nv, pv) == unique {
					return false
				}
			}
		}
		return true
	}
	return pos, corr
}

func termValue(t Term, p event.Payload) event.Value {
	if t.IsLit {
		return t.Lit
	}
	return p[t.Alias+"."+t.Attr]
}

func compareValues(op string, l, r event.Value) bool {
	switch op {
	case "=":
		return event.ValueEqual(l, r)
	case "!=":
		return !event.ValueEqual(l, r)
	case "<":
		return event.ValueLess(l, r)
	case "<=":
		return event.ValueLess(l, r) || event.ValueEqual(l, r)
	case ">":
		return event.ValueLess(r, l)
	case ">=":
		return event.ValueLess(r, l) || event.ValueEqual(l, r)
	}
	return false
}

func comparePred(pred Pred, lNeg, rNeg bool) predFn {
	return func(p event.Payload) bool {
		return compareValues(pred.Op, termValue(pred.L, p), termValue(pred.R, p))
	}
}

func corrComparePred(pred Pred, lNeg, rNeg bool) algebra.CorrPred {
	return func(pos, neg event.Payload) bool {
		lp, rp := pos, pos
		if lNeg {
			lp = neg
		}
		if rNeg {
			rp = neg
		}
		return compareValues(pred.Op, termValue(pred.L, lp), termValue(pred.R, rp))
	}
}

func evalAll(preds []predFn, p event.Payload) bool {
	for _, f := range preds {
		if !f(p) {
			return false
		}
	}
	return true
}

func describePreds(preds []Pred) string {
	parts := make([]string, 0, len(preds))
	for _, p := range preds {
		if p.IsCorrKey() {
			parts = append(parts, fmt.Sprintf("CorrelationKey(%s, %s)", p.CorrAttr, p.CorrMode))
			continue
		}
		parts = append(parts, fmt.Sprintf("{%s %s %s}", termString(p.L), p.Op, termString(p.R)))
	}
	return strings.Join(parts, " AND ")
}

func termString(t Term) string {
	if t.IsLit {
		return fmt.Sprintf("%v", t.Lit)
	}
	return t.Alias + "." + t.Attr
}

// build constructs the algebra expression, attaching per-site correlation
// predicates to their negation operators. Sites are numbered in the same
// order scan discovered them.
func (b *binder) build(n PatternNode, corrs map[int][]algebra.CorrPred) (algebra.Expr, error) {
	switch x := n.(type) {
	case TypeNode:
		return algebra.TypeExpr{Type: x.Type, Alias: x.Alias}, nil
	case OpNode:
		switch x.Op {
		case "UNLESS", "UNLESS'", "NOT", "CANCEL-WHEN":
			b.siteSeq++
			site := b.siteSeq
			posKid, negKid := x.Kids[0], x.Kids[1]
			if x.Op == "NOT" {
				posKid, negKid = x.Kids[1], x.Kids[0]
			}
			pos, err := b.build(posKid, corrs)
			if err != nil {
				return nil, err
			}
			neg, err := b.build(negKid, corrs)
			if err != nil {
				return nil, err
			}
			corr := conjoinCorr(corrs[site])
			switch x.Op {
			case "UNLESS":
				return algebra.UnlessExpr{A: pos, B: neg, W: x.W, Corr: corr, CorrKey: b.corrKeyAttr}, nil
			case "UNLESS'":
				up := algebra.UnlessPrimeExpr{A: pos, B: neg, N: x.N, W: x.W, Corr: corr, CorrKey: b.corrKeyAttr}
				if err := up.Validate(); err != nil {
					return nil, err
				}
				return up, nil
			case "NOT":
				seq, ok := pos.(algebra.SequenceExpr)
				if !ok {
					return nil, fmt.Errorf("lang: NOT scope must be a SEQUENCE")
				}
				return algebra.NotExpr{Neg: neg, Seq: seq, Corr: corr, CorrKey: b.corrKeyAttr}, nil
			default:
				return algebra.CancelWhenExpr{E: pos, Cancel: neg, Corr: corr, CorrKey: b.corrKeyAttr}, nil
			}
		}
		kids := make([]algebra.Expr, len(x.Kids))
		for i, k := range x.Kids {
			kid, err := b.build(k, corrs)
			if err != nil {
				return nil, err
			}
			kids[i] = kid
		}
		switch x.Op {
		case "SEQUENCE":
			return algebra.SequenceExpr{Kids: kids, W: x.W}, nil
		case "ALL":
			return algebra.All(x.W, kids...), nil
		case "ANY":
			return algebra.Any(kids...), nil
		case "ATLEAST":
			return algebra.AtLeastExpr{N: x.N, Kids: kids, W: x.W}, nil
		case "ATMOST":
			return algebra.AtMostExpr{N: x.N, Kids: kids, W: x.W}, nil
		}
		return nil, fmt.Errorf("lang: unknown operator %q", x.Op)
	}
	return nil, fmt.Errorf("lang: unknown pattern node %T", n)
}

func conjoinCorr(cs []algebra.CorrPred) algebra.CorrPred {
	if len(cs) == 0 {
		return nil
	}
	if len(cs) == 1 {
		return cs[0]
	}
	return func(pos, neg event.Payload) bool {
		for _, c := range cs {
			if !c(pos, neg) {
				return false
			}
		}
		return true
	}
}

// inputTypes collects the event TYPEs the pattern references, deduplicated
// in appearance order.
func inputTypes(n PatternNode) []string {
	var out []string
	seen := map[string]bool{}
	var walk func(PatternNode)
	walk = func(n PatternNode) {
		switch x := n.(type) {
		case TypeNode:
			if !seen[x.Type] {
				seen[x.Type] = true
				out = append(out, x.Type)
			}
		case OpNode:
			for _, k := range x.Kids {
				walk(k)
			}
		}
	}
	walk(n)
	return out
}

// hasOp reports whether the pattern contains the named operator anywhere.
func hasOp(n PatternNode, op string) bool {
	switch x := n.(type) {
	case OpNode:
		if x.Op == op {
			return true
		}
		for _, k := range x.Kids {
			if hasOp(k, op) {
				return true
			}
		}
	}
	return false
}

// Compile is the front door: parse + analyze.
func Compile(src string) (*Analysis, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Analyze(q)
}
