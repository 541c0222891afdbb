package inc

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/algebra"
	"repro/internal/event"
	"repro/internal/lang"
	"repro/internal/operators"
	"repro/internal/temporal"
)

// cidr07 compiles the §3.1 query the way the planner does and builds its
// incremental operator with the pushdown key.
func cidr07(t testing.TB) *Op {
	t.Helper()
	an, err := lang.Compile(`EVENT MissedRestart
WHEN UNLESS(SEQUENCE(INSTALL x, SHUTDOWN AS y, 12 hours), RESTART AS z, 5 minutes)
WHERE CorrelationKey(Machine_Id, EQUAL) SC(each, consume)`)
	if err != nil {
		t.Fatal(err)
	}
	return NewOp(an.Expr, an.Mode, an.Query.Name, WithJoinKey(an.PushKeyAttr))
}

// eachNode visits n and every node under it.
func eachNode(n node, fn func(node)) {
	fn(n)
	switch x := n.(type) {
	case *seqNode:
		for _, k := range x.kids {
			eachNode(k, fn)
		}
	case *atLeastNode:
		for _, k := range x.kids {
			eachNode(k, fn)
		}
	case *atMostNode:
		for _, k := range x.kids {
			eachNode(k, fn)
		}
	case *negNode:
		eachNode(x.pos, fn)
		eachNode(x.neg, fn)
	case *filterNode:
		eachNode(x.kid, fn)
	case *keyWatch:
		eachNode(x.kid, fn)
	}
}

// eachLeaf visits the leaves under n.
func eachLeaf(n node, fn func(*leafNode)) {
	eachNode(n, func(n node) {
		if l, ok := n.(*leafNode); ok {
			fn(l)
		}
	})
}

// expiryVisits sums the entries every expiry loop of op has examined.
func expiryVisits(op *Op) int {
	n := op.expiry.visited + op.emittedExpiry.visited
	eachLeaf(op.root, func(l *leafNode) { n += l.expiry.visited })
	return n
}

// TestExpiryVisitsOnlyExpired pins expiry at O(expired) as an operation
// count: the §3.1 query with 10k live contributors, advanced so that exactly
// one expires, may examine a handful of queue entries — not the 10k a sweep
// of the stores and every leaf would. With and without the undo journal.
func TestExpiryVisitsOnlyExpired(t *testing.T) {
	const n = 10000
	for _, journaled := range []bool{false, true} {
		op := cidr07(t)
		if journaled {
			op.Mark()
		}
		types := []string{"INSTALL", "SHUTDOWN", "RESTART"}
		for i := 0; i < n; i++ {
			// One machine per cycle: every event a live contributor, none
			// consumed (each RESTART blocks its cycle's alert).
			op.Process(0, ev(event.ID(i+1), types[i%3], temporal.Time(i),
				"Machine_Id", fmt.Sprintf("m%d", i/3)))
		}
		if got := op.StateSize(); got != n {
			t.Fatalf("journal=%v: state %d before the advance, want %d live contributors", journaled, got, n)
		}
		scope := temporal.Time(op.scope)
		op.Advance(scope - 1) // horizon below every event: nothing expires
		before := expiryVisits(op)
		op.Advance(scope + 1) // horizon 1: exactly the event at Vs 0
		if got := op.StateSize(); got != n-1 {
			t.Fatalf("journal=%v: state %d after the advance, want exactly one expired", journaled, got)
		}
		if visited := expiryVisits(op) - before; visited < 1 || visited > 4 {
			t.Fatalf("journal=%v: expiring one of %d events examined %d queue entries, want a small constant",
				journaled, n, visited)
		}
	}
}

// TestPruneOrderDeterministic pins the order scope pruning retracts in: a
// leaf's transitions come out by (Vs, insertion) — the order of its expiry
// queue, stragglers and ties included — not in map iteration order, so one
// input journals identically on every run.
func TestPruneOrderDeterministic(t *testing.T) {
	op := NewOp(typ("A", "a"), algebra.SCMode{}, "out")
	for i, vs := range []temporal.Time{5, 3, 5, 9, 1, 3, 7, 20} { // IDs 1..8
		op.Process(0, ev(event.ID(i+1), "A", vs))
	}
	var d delta
	op.root.prune(8, &d)
	var got []event.ID
	for _, it := range d.items {
		if !it.del {
			t.Fatalf("prune emitted an add of %d", it.km.m.CBT[0])
		}
		got = append(got, it.km.m.CBT[0])
	}
	if want := []event.ID{5, 2, 6, 1, 3, 7}; !reflect.DeepEqual(got, want) {
		t.Fatalf("prune order %v, want %v: (Vs, insertion)", got, want)
	}

	type rec struct { // i and id carry a record's time too
		kind uint8
		flag bool
		i    int
		id   event.ID
	}
	journal := func() (out []rec, ms []event.ID) {
		op := cidr07(t)
		op.Mark()
		types := []string{"INSTALL", "SHUTDOWN", "RESTART"}
		for i := 0; i < 1200; i++ {
			vs := temporal.Time(i) * temporal.Time(temporal.Minute)
			op.Process(0, ev(event.ID(i+1), types[i%3], vs, "Machine_Id", fmt.Sprintf("m%d", i%7)))
			if i%10 == 9 {
				op.Advance(vs) // from 12 h on, every advance expires a run
			}
		}
		for _, r := range journalRecs(op.sh.u) {
			out = append(out, rec{r.kind, r.flag, r.i, r.id})
			if r.km != nil {
				ms = append(ms, r.km.m.ID)
			}
		}
		return out, ms
	}
	recs1, ms1 := journal()
	recs2, ms2 := journal()
	if !reflect.DeepEqual(recs1, recs2) || !reflect.DeepEqual(ms1, ms2) {
		t.Fatalf("two runs of one input journaled differently (%d vs %d records)", len(recs1), len(recs2))
	}
	pops := 0
	for _, r := range recs1 {
		if r.kind == jQueuePop {
			pops++
		}
	}
	if pops == 0 {
		t.Fatal("the script never expired anything")
	}
}

// TestExpiryQueueUndo checks the queue's journal records in isolation: a
// mix of tail pushes, straggler inserts and pops, undone LIFO, restores the
// exact entry sequence — before and after a reclaim has shifted the slots
// the records' absolute indexes refer to.
func TestExpiryQueueUndo(t *testing.T) {
	u := &undoLog{}
	u.Mark(opScalars{}) // journaling on
	q := &expiryQueue[*keyedMatch]{}
	next := event.ID(1)
	push := func(vs temporal.Time) {
		q.push(&keyedMatch{m: algebra.Match{ID: next, LastVs: vs}}, u)
		next++
	}
	live := func() (ids []event.ID) {
		for _, km := range q.es[q.head:] {
			ids = append(ids, km.m.ID)
		}
		return ids
	}
	for vs := temporal.Time(0); vs < 100; vs++ {
		push(vs)
	}
	for round := 0; round < 3; round++ {
		horizon := temporal.Time(20 + 30*round)
		q.expire(horizon, u)
		base, v := live(), u.Mark(opScalars{})
		push(200)         // tail
		push(horizon + 5) // straggler inside the live region
		push(horizon + 5) // tie: after the first, in insertion order
		if n := len(q.expire(horizon+10, u)); n != 12 {
			t.Fatalf("round %d: popped %d entries, want the 10 aligned ones and both stragglers", round, n)
		}
		push(horizon) // below everything live: lands at the head
		if got := live()[0]; got != next-1 {
			t.Fatalf("round %d: a straggler below the head sits behind %d", round, got)
		}
		if _, ok := u.Rollback(v); !ok {
			t.Fatalf("round %d: rollback to a live version refused", round)
		}
		if got := live(); !reflect.DeepEqual(got, base) {
			t.Fatalf("round %d: undo left %v, want %v", round, got, base)
		}
		// What Compact does with the records below a kept version.
		q.reclaim(q.off + q.head)
		if got := live(); !reflect.DeepEqual(got, base) {
			t.Fatalf("round %d: reclaim left %v, want %v", round, got, base)
		}
	}
	if q.off == 0 {
		t.Fatal("no round reclaimed: the last one did not undo across shifted slots")
	}
}

// driveAcrossExpiry is the scripted half of the rollback differential: one
// fixed script per (expression, SC mode) that puts every expiry-queue seam
// under Mark/Rollback — a straggler inserted below the queue's tail, a
// retracted event whose stale entry pops later, consumed contributors
// revived after a run of pops and expired by the entries they were queued
// under, a version rolled back to twice across a run of pops, the Advance(∞)
// reset between two versions, compaction below a version whose pops the
// queues then reclaim, and a Clone taken while the queues have a popped
// prefix — byte-exact against the oracle at every step and against the
// frozen clones at every rewind.
func driveAcrossExpiry(t *testing.T, name string, expr algebra.Expr, mode algebra.SCMode, opts ...OpOption) {
	t.Helper()
	oracle := algebra.NewPatternOp(expr, mode, "out")
	fast := NewOp(expr, mode, "out", opts...)
	watchKeys(t, fast)
	step := 0
	check := func(what string, ig, og []event.Event) {
		t.Helper()
		step++
		checkStep(t, fmt.Sprintf("%s %v expiry-script %d %s", name, mode, step, what), oracle, fast, ig, og)
	}
	nextID := event.ID(1)
	types := []string{"A", "B", "C", "X"}
	push := func(vs temporal.Time) event.Event {
		e := ev(nextID, types[int(nextID)%len(types)], vs, "k", fmt.Sprintf("k%d", nextID%2), "i", int64(nextID))
		nextID++
		check("push", fast.Process(0, e), oracle.Process(0, e))
		return e
	}
	retract := func(e event.Event) {
		r := event.NewRetract(e.ID, e.Type, e.V.Start, e.V.Start, nil)
		check("retract", fast.Process(0, r), oracle.Process(0, r))
	}
	advance := func(to temporal.Time) { check("advance", fast.Advance(to), oracle.Advance(to)) }
	var marks []rbMark
	mark := func() int {
		marks = append(marks, rbMark{v: fast.Mark(), o: oracle.Clone()})
		return len(marks) - 1
	}
	rollTo := func(j int) {
		t.Helper()
		if !fast.Rollback(marks[j].v) {
			t.Fatalf("%s %v: rollback to version %d refused", name, mode, j)
		}
		oracle = marks[j].o.Clone().(*algebra.PatternOp)
		marks = marks[:j+1]
		check("rollback", nil, nil)
	}
	scope := temporal.Time(fast.scope)
	burst := func(from temporal.Time, n int) (es []event.Event) {
		for i := 0; i < n; i++ {
			es = append(es, push(from.Add(temporal.Duration(i))))
		}
		return es
	}

	// A clone taken mid-queue, before any Mark: expire a prefix, freeze both
	// sides, diverge, swap back.
	burst(0, 8)
	advance(scope + 3) // pops Vs 0..2
	frozenFast, frozenOracle := fast.Clone().(*Op), oracle.Clone().(*algebra.PatternOp)
	burst(scope+3, 4)
	advance(2*scope + 5)
	fast, oracle = frozenFast, frozenOracle
	check("clone swap", nil, nil)

	m0 := mark()
	at := scope + 3
	es := burst(at, 8)
	push(at + 2) // a straggler below the queues' tails
	// Retract-then-expire: the retracted event's entry goes stale in place
	// and pops with the second of the advances below.
	retract(es[5])
	m1 := mark()
	// Mark/Rollback across a run of pops, twice to the same version, with a
	// different suffix each time.
	advance(at + scope + 4)
	burst(at+scope+4, 3)
	rollTo(m1)
	advance(at + scope + 6)
	push(at + scope + 6)
	rollTo(m1)
	// Consume-then-expire-then-revive: a run of pops moves the queue's head
	// past older entries while later contributors sit consumed; removing one
	// of their number retracts its matches and revives the others into the
	// store, where the entries they were queued under still expire them.
	advance(at + scope + 2)
	late := burst(at+scope+2, 6)
	retract(late[5])
	// Compaction below a version reclaims the queue slots its pops left;
	// the version itself must stay exact.
	m2 := mark()
	advance(late[3].V.Start + scope)
	fast.Compact(marks[m2].v)
	if fast.Rollback(marks[m0].v) {
		t.Fatalf("%s %v: rollback below the compaction point succeeded", name, mode)
	}
	marks = marks[m2:]
	burst(late[3].V.Start+scope, 3)
	rollTo(0)
	retract(late[4])
	// The Advance(∞) reset between two versions, rewound one at a time.
	before := mark()
	advance(temporal.Infinity)
	tail := at + 3*scope
	burst(tail, 4)
	after := mark()
	burst(tail+4, 2)
	advance(tail + scope)
	rollTo(after)
	burst(tail+6, 2)
	rollTo(before)
	burst(late[5].V.Start+1, 3)
	advance(temporal.Infinity)
}

var _ operators.Versioned = (*Op)(nil)
