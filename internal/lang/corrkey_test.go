package lang

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/event"
)

// refCorrKeyPredicates is the slice-building expansion of CorrelationKey /
// [attr Equal lit] that corrKeyPredicates replaced: collect every payload
// value under the ".attr" suffix, then compare. It is kept here, verbatim,
// as the reference the streaming predicates are held to.
func refCorrKeyPredicates(pred Pred) (predFn, algebra.CorrPred) {
	attr, mode, lit := pred.CorrAttr, pred.CorrMode, pred.CorrLit
	suffix := "." + attr
	values := func(p event.Payload) []event.Value {
		var vs []event.Value
		for k, v := range p {
			if strings.HasSuffix(k, suffix) {
				vs = append(vs, v)
			}
		}
		return vs
	}
	pos := func(p event.Payload) bool {
		vs := values(p)
		if mode == "UNIQUE" {
			for i := range vs {
				for j := i + 1; j < len(vs); j++ {
					if event.ValueEqual(vs[i], vs[j]) {
						return false
					}
				}
			}
			return true
		}
		for i := 1; i < len(vs); i++ {
			if !event.ValueEqual(vs[0], vs[i]) {
				return false
			}
		}
		if lit != nil && len(vs) > 0 && !event.ValueEqual(vs[0], lit) {
			return false
		}
		return true
	}
	corr := func(posP, negP event.Payload) bool {
		nvs := values(negP)
		pvs := values(posP)
		if mode == "UNIQUE" {
			for _, nv := range nvs {
				for _, pv := range pvs {
					if event.ValueEqual(nv, pv) {
						return false
					}
				}
			}
			return true
		}
		for _, nv := range nvs {
			if lit != nil && !event.ValueEqual(nv, lit) {
				return false
			}
			for _, pv := range pvs {
				if !event.ValueEqual(nv, pv) {
					return false
				}
			}
		}
		return true
	}
	return pos, corr
}

// corrKeyPayload draws a namespaced payload with 0–4 names under the ".k"
// suffix (plain aliases and dotted ones: "a.sub.k" ends in ".k" too), a few
// names that only look similar, and values from a small mixed domain, so
// that equal, cross-type-equal, unequal, NaN and absent all occur often.
func corrKeyPayload(rng *rand.Rand) event.Payload {
	values := []event.Value{
		int64(3), float64(3), 3, int64(4), 2.5, math.NaN(), "3", "m1", "m2", true, false, nil,
	}
	names := []string{"a.k", "b.k", "x.k", "y.k", "z.k", "a.sub.k", "b.k'"}
	decoys := []string{"a.kk", "k", "a.k.x", "b.other", "a.k'"}
	p := event.Payload{}
	for n := rng.Intn(5); n > 0; n-- {
		p[names[rng.Intn(len(names))]] = values[rng.Intn(len(values))]
	}
	for n := rng.Intn(3); n > 0; n-- {
		p[decoys[rng.Intn(len(decoys))]] = values[rng.Intn(len(values))]
	}
	return p
}

// TestCorrKeyPredicatesMatchReference: on random payloads the streaming
// pos/corr return exactly what the slice-building versions returned, for
// EQUAL and UNIQUE, with and without a literal. (Both sides iterate maps in
// random order; the value domain keeps every verdict order-independent:
// ValueEqual is an equivalence on it except for NaN, which equals nothing.)
func TestCorrKeyPredicatesMatchReference(t *testing.T) {
	preds := []Pred{
		{CorrAttr: "k", CorrMode: "EQUAL"},
		{CorrAttr: "k", CorrMode: "UNIQUE"},
		{CorrAttr: "k", CorrMode: "EQUAL", CorrLit: "m1"},
		{CorrAttr: "k", CorrMode: "EQUAL", CorrLit: int64(3)},
		{CorrAttr: "k", CorrMode: "EQUAL", CorrLit: 2.5},
	}
	rng := rand.New(rand.NewSource(17))
	for _, pred := range preds {
		pos, corr := corrKeyPredicates(pred)
		refPos, refCorr := refCorrKeyPredicates(pred)
		label := fmt.Sprintf("%s lit=%v", pred.CorrMode, pred.CorrLit)
		verdicts := map[bool]int{}
		for i := 0; i < 20000; i++ {
			p, n := corrKeyPayload(rng), corrKeyPayload(rng)
			if got, want := pos(p), refPos(p); got != want {
				t.Fatalf("%s: pos(%v) = %v, reference %v", label, p, got, want)
			}
			got, want := corr(p, n), refCorr(p, n)
			if got != want {
				t.Fatalf("%s: corr(%v, %v) = %v, reference %v", label, p, n, got, want)
			}
			verdicts[got]++
		}
		if verdicts[true] == 0 || verdicts[false] == 0 {
			t.Fatalf("%s: corr verdicts %v — the payload domain no longer exercises both", label, verdicts)
		}
	}
}
