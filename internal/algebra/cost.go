package algebra

// ExprCostNs estimates the per-event processing cost of a pattern
// expression in nanoseconds, for the engine's overhead-aware shard-count
// heuristic (operators.CostHint). The classes are coarse and hand-set:
// negation scopes dominate (candidate × blocker bookkeeping plus window
// finalization), joins cost per contributor position, leaves are
// near-free. The measurements they stand in for are bench/e2e's
// inc.process_ns_per_ev (matcher cost per event) and
// engine.shards2_ns_per_ev (what a second shard buys).
func ExprCostNs(e Expr) int {
	switch x := e.(type) {
	case TypeExpr:
		return 100
	case FilterExpr:
		return 100 + ExprCostNs(x.Kid)
	case SequenceExpr:
		return kidsCostNs(x.Kids, 400)
	case AtLeastExpr:
		return kidsCostNs(x.Kids, 400)
	case AtMostExpr:
		return kidsCostNs(x.Kids, 500)
	case UnlessExpr:
		return 1500 + ExprCostNs(x.A) + ExprCostNs(x.B)
	case UnlessPrimeExpr:
		return 1500 + ExprCostNs(x.A) + ExprCostNs(x.B)
	case NotExpr:
		return 1500 + ExprCostNs(x.Neg) + ExprCostNs(x.Seq)
	case CancelWhenExpr:
		return 1500 + ExprCostNs(x.E) + ExprCostNs(x.Cancel)
	default:
		return 1000
	}
}

func kidsCostNs(kids []Expr, perJoin int) int {
	c := 0
	for _, k := range kids {
		c += perJoin + ExprCostNs(k)
	}
	return c
}
