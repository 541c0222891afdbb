package inc

import (
	"testing"

	"repro/internal/event"
	"repro/internal/temporal"
)

// The carried-key equivalence check. A match's correlation key is resolved
// once, by the node that builds the match, and then travels beside it (the
// interning caches, the delta items, the negation candidates, the ATMOST
// entries — see key.go). keyWatch sits between every node and its parent
// and asserts, for every delta item that crosses, that the carried key is
// exactly what keyCfg.of would resolve from the item's payload right now —
// so a key that went stale in a cache, was passed through by a node that
// changed the payload, or was derived in a way of() would not agree with
// (Combine's prime-renamed duplicate names, dotted attributes, absent
// values, NaN, int64(3) vs float64(3)) fails at the node that emitted it.
//
// watchKeys installs it on an operator's whole tree; the byte-exact drivers
// (driveAligned, driveRollback, the monitored differentials and
// FuzzIncVsOracle) all call it, so the check runs over every delta item of
// every script those suites execute, keyed and unkeyed (where every key
// must be wild).
type keyWatch struct {
	t    testing.TB
	kid  node
	cfg  *keyCfg
	seen *int
}

func watchKeys(t testing.TB, op *Op) *int {
	seen := new(int)
	op.root = wrapKeys(t, op.root, op.sh.key, seen)
	return seen
}

func wrapKeys(t testing.TB, n node, cfg *keyCfg, seen *int) node {
	switch x := n.(type) {
	case *seqNode:
		for i := range x.kids {
			x.kids[i] = wrapKeys(t, x.kids[i], cfg, seen)
		}
	case *atLeastNode:
		for i := range x.kids {
			x.kids[i] = wrapKeys(t, x.kids[i], cfg, seen)
		}
	case *atMostNode:
		for i := range x.kids {
			x.kids[i] = wrapKeys(t, x.kids[i], cfg, seen)
		}
	case *negNode:
		x.pos, x.neg = wrapKeys(t, x.pos, cfg, seen), wrapKeys(t, x.neg, cfg, seen)
	case *filterNode:
		x.kid = wrapKeys(t, x.kid, cfg, seen)
	}
	return &keyWatch{t: t, kid: n, cfg: cfg, seen: seen}
}

func (w *keyWatch) check(out *delta, from int) {
	for _, it := range out.items[from:] {
		if want := w.cfg.of(it.km.m.Payload); it.km.pe.key != want {
			w.t.Fatalf("%T emitted match %d (del=%v) carrying key %+v, of(payload) = %+v, payload %v",
				w.kid, it.km.m.ID, it.del, it.km.pe.key, want, it.km.m.Payload)
		}
		*w.seen++
	}
}

func (w *keyWatch) push(r *evRec, out *delta) {
	n := len(out.items)
	w.kid.push(r, out)
	w.check(out, n)
}

func (w *keyWatch) remove(id event.ID, out *delta) {
	n := len(out.items)
	w.kid.remove(id, out)
	w.check(out, n)
}

func (w *keyWatch) prune(h temporal.Time, out *delta) {
	n := len(out.items)
	w.kid.prune(h, out)
	w.check(out, n)
}

func (w *keyWatch) clone(sh *shared) node {
	return &keyWatch{t: w.t, kid: w.kid.clone(sh), cfg: w.cfg, seen: w.seen}
}

// TestCarriedKeyDivergentCases drives, one by one, the payload shapes on
// which a key carried beside the match could part from keyCfg.of if it were
// derived naively, and requires the watch to have seen both definite and
// wild keys (the check must not pass by never running).
func TestCarriedKeyDivergentCases(t *testing.T) {
	nan := keyDists()[len(keyDists())-1].exoticValues()[0]
	cases := []struct {
		name   string
		shape  string
		events []event.Event
	}{
		// Both B contributors namespace to "b.k"; Combine renames the second
		// to "b.k'", which the suffix rule no longer sees: the composite's
		// key is the first contributor's alone, not "conflict → wild".
		{"prime-renamed duplicate names", "kunless-dupneg", []event.Event{
			ev(1, "A", 0, "k", "k1"), ev(2, "B", 1, "k", "k1"), ev(3, "B", 2, "k", "k2"), ev(4, "B", 3, "k", "k1"),
		}},
		{"dotted attribute forces wild", "kcidr07", []event.Event{
			ev(1, "A", 0, "k", "k1", "sub.k", "k1"), ev(2, "B", 1, "k", "k1"), ev(3, "C", 2, "sub.k", "k1"),
		}},
		// A part without the attribute is wild on its own but leaves the
		// composite definite through the other part.
		{"absent value", "kcidr07", []event.Event{
			ev(1, "A", 0), ev(2, "B", 1, "k", "k1"), ev(3, "A", 2, "k", "k1"), ev(4, "B", 3), ev(5, "C", 4),
		}},
		{"NaN", "kcidr07", []event.Event{
			ev(1, "A", 0, "k", nan), ev(2, "B", 1, "k", nan), ev(3, "A", 2, "k", 3.0), ev(4, "B", 3, "k", nan),
		}},
		{"int64(3) vs float64(3)", "kcidr07", []event.Event{
			ev(1, "A", 0, "k", int64(3)), ev(2, "B", 1, "k", float64(3)), ev(3, "C", 2, "k", 3),
			ev(4, "A", 3, "k", float64(3)), ev(5, "B", 4, "k", int64(4)),
		}},
	}
	for _, c := range cases {
		for _, mode := range scModes() {
			op := NewOp(keyedZoo()[c.shape], mode, "out", WithJoinKey("k"))
			seen := watchKeys(t, op)
			op.Mark()
			for _, e := range c.events {
				op.Process(0, e)
			}
			v := op.Mark()
			last := c.events[len(c.events)-1]
			op.Process(0, event.NewRetract(last.ID, last.Type, last.V.Start, last.V.Start, nil))
			op.Advance(last.V.Start + 100) // prune everything: the retraction paths
			if !op.Rollback(v) {
				t.Fatalf("%s: rollback refused", c.name)
			}
			for _, e := range c.events { // replay over the interning caches
				op.Process(0, event.NewRetract(e.ID, e.Type, e.V.Start, e.V.Start, nil))
				op.Process(0, e)
			}
			if *seen == 0 {
				t.Fatalf("%s: the key watch saw no delta item", c.name)
			}
		}
	}
}
