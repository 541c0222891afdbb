package inc

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/event"
	"repro/internal/operators"
	"repro/internal/temporal"
)

// The payload table's contract (payload.go): one map per distinct content,
// verified on every hit, type-exact, never for values it cannot compare, and
// ids that are never reused.

func seqABOp() *Op {
	return NewOp(algebra.SequenceExpr{Kids: []algebra.Expr{typ("A", "a"), typ("B", "b")}, W: 10},
		algebra.SCMode{}, "out", WithJoinKey("k"))
}

// deriveLeaf derives leaf kind k's match of an event carrying p.
func deriveLeaf(k *leafKind, p event.Payload) *keyedMatch {
	e := event.NewInsert(1, k.typ, 0, temporal.Infinity, p)
	km := &keyedMatch{}
	k.derive(km, &e, nil)
	return km
}

func sameMap(a, b event.Payload) bool {
	return reflect.ValueOf(a).Pointer() == reflect.ValueOf(b).Pointer()
}

// checkLeaf requires km to carry exactly raw, namespaced by k, with the key
// keyCfg.of resolves over it.
func checkLeaf(t *testing.T, k *leafKind, raw event.Payload, km *keyedMatch) {
	t.Helper()
	if len(km.m.Payload) != len(raw) {
		t.Fatalf("payload %v for raw %v", km.m.Payload, raw)
	}
	for attr, v := range raw {
		if !identical(v, km.m.Payload[k.prefix+"."+attr]) {
			t.Fatalf("payload %v for raw %v: %s is %#v, want %#v", km.m.Payload, raw, attr,
				km.m.Payload[k.prefix+"."+attr], v)
		}
	}
	if want := k.cfg.of(km.m.Payload); km.pe.key != want {
		t.Fatalf("payload %v carries key %+v, want %+v", km.m.Payload, km.pe.key, want)
	}
}

func TestPayloadInternTypeExact(t *testing.T) {
	op := seqABOp()
	a := op.sh.recs.kinds[0]
	values := []event.Value{int64(3), 3, float64(3), "3", true, false, 0.0, math.Copysign(0, -1)}
	first := map[uint64]event.Value{}
	for _, v := range values {
		raw := event.Payload{"k": v, "n": "x"}
		km := deriveLeaf(a, raw)
		checkLeaf(t, a, raw, km)
		if km.pe.id == 0 {
			t.Fatalf("%#v: not interned", v)
		}
		if prev, dup := first[km.pe.id]; dup {
			t.Fatalf("%#v shares payload id %d with %#v", v, km.pe.id, prev)
		}
		first[km.pe.id] = v
		again := deriveLeaf(a, event.Payload{"n": "x", "k": v})
		if again.pe.id != km.pe.id || !sameMap(again.m.Payload, km.m.Payload) {
			t.Fatalf("%#v: a repeated payload got a second map (ids %d, %d)", v, km.pe.id, again.pe.id)
		}
	}
	// The other leaf, same raw content: its own namespaced map.
	b := op.sh.recs.kinds[1]
	raw := event.Payload{"k": int64(3), "n": "x"}
	if kb, ka := deriveLeaf(b, raw), deriveLeaf(a, raw); kb.pe.id == ka.pe.id {
		t.Fatalf("leaves a and b share payload id %d", ka.pe.id)
	} else {
		checkLeaf(t, b, raw, kb)
	}
}

func TestPayloadNeverInternsExotic(t *testing.T) {
	op := seqABOp()
	a := op.sh.recs.kinds[0]
	for _, v := range []event.Value{math.NaN(), nil, int32(3), uint64(3), []int{3},
		map[string]any{"k": 3}, struct{ X int }{3}} {
		raw := event.Payload{"k": "k0", "v": v}
		x, y := deriveLeaf(a, raw), deriveLeaf(a, raw)
		if x.pe.id != 0 || y.pe.id != 0 || sameMap(x.m.Payload, y.m.Payload) {
			t.Fatalf("%#v: interned (ids %d, %d)", v, x.pe.id, y.pe.id)
		}
		if len(x.m.Payload) != 2 || x.m.Payload["a.k"] != "k0" {
			t.Fatalf("%#v: payload %v", v, x.m.Payload)
		}
		// A composite with a part that is not interned is built fresh too.
		z := deriveLeaf(op.sh.recs.kinds[1], event.Payload{"k": "k0"})
		parts := []*keyedMatch{x, z}
		seq := op.root.(*seqNode)
		c1 := seq.comb.combined(event.ID(100), parts, 10)
		c2 := seq.comb.combined(event.ID(101), parts, 10)
		if c1.pe.id != 0 || sameMap(c1.m.Payload, c2.m.Payload) {
			t.Fatalf("%#v: composite over an uninterned part interned (id %d)", v, c1.pe.id)
		}
	}
}

// TestPayloadHashCollision forces every table hash onto one chain: every
// lookup must still return its own content, and a repeated one its first map.
func TestPayloadHashCollision(t *testing.T) {
	defer func(f func(uint64) uint64) { finish = f }(finish)
	finish = func(uint64) uint64 { return 7 }

	op := seqABOp()
	seq := op.root.(*seqNode)
	var leaves []*keyedMatch
	for round := 0; round < 2; round++ {
		for i, v := range []event.Value{int64(1), 1, 1.0, "1", true, int64(2)} {
			for ki, k := range op.sh.recs.kinds {
				raw := event.Payload{"k": v}
				km := deriveLeaf(k, raw)
				checkLeaf(t, k, raw, km)
				if j := 2*i + ki; round == 0 {
					leaves = append(leaves, km)
				} else if km.pe.id != leaves[j].pe.id || !sameMap(km.m.Payload, leaves[j].m.Payload) {
					t.Fatalf("round 2, %#v at leaf %d: a second map under collision", v, ki)
				}
			}
		}
	}
	id := event.ID(1000)
	for round := 0; round < 2; round++ {
		for i := 0; i+1 < len(leaves); i += 2 {
			for _, parts := range [][]*keyedMatch{{leaves[i], leaves[i+1]}, {leaves[i], leaves[len(leaves)-1]}} {
				id++
				got := seq.comb.combined(id, parts, 10)
				want := algebra.CombinePayload([]*algebra.Match{&parts[0].m, &parts[1].m})
				if got.pe.id == 0 || !reflect.DeepEqual(got.m.Payload, want) {
					t.Fatalf("composite of %v and %v: payload %v (id %d), want %v",
						parts[0].m.Payload, parts[1].m.Payload, got.m.Payload, got.pe.id, want)
				}
				if got.pe.key != op.sh.key.of(want) {
					t.Fatalf("composite %v carries key %+v", want, got.pe.key)
				}
			}
		}
	}
}

// genRepeatEvents is genEvents without the per-event "i": payloads repeat,
// so the table hits, including across near-equal values of different types.
func genRepeatEvents(rng *rand.Rand, n int) []event.Event {
	types := []string{"A", "B", "C", "X"}
	vals := []event.Value{int64(1), 1, 1.0, "1"}
	var out []event.Event
	vs := temporal.Time(0)
	for i := 0; i < n; i++ {
		if rng.Intn(4) > 0 {
			vs += temporal.Time(rng.Intn(4) + 1)
		}
		p := event.Payload{"k": fmt.Sprintf("k%d", rng.Intn(3))}
		if rng.Intn(2) == 0 {
			p["v"] = vals[rng.Intn(len(vals))]
		}
		out = append(out, event.NewInsert(event.ID(i+1), types[rng.Intn(len(types))], vs,
			temporal.Infinity, p))
	}
	return out
}

// TestDifferentialRepeatedPayloads is the aligned differential over streams
// whose payloads repeat, with the real hash and with every hash colliding.
func TestDifferentialRepeatedPayloads(t *testing.T) {
	real := finish
	defer func() { finish = real }()
	for _, collide := range []bool{false, true} {
		finish = real
		if collide {
			finish = func(uint64) uint64 { return 0 }
		}
		for _, shapes := range []struct {
			zoo  map[string]algebra.Expr
			opts []OpOption
		}{{exprZoo(), nil}, {keyedZoo(), []OpOption{WithJoinKey("k")}}} {
			for name, expr := range shapes.zoo {
				for mi, mode := range scModes() {
					seed := int64(100*mi + 3)
					rng := rand.New(rand.NewSource(seed))
					driveAligned(t, fmt.Sprintf("%s collide=%v", name, collide), expr, mode, seed,
						genRepeatEvents(rng, 40), rng, shapes.opts...)
				}
			}
		}
	}
}

// TestEmittedPayloadsShared: an output carries the map the matcher interned,
// not a copy — outputs of one type-exact content, from an op and from its
// clone (which shares the op's table), carry one map — and a fresh twin,
// with a table of its own, emits the same stream by content.
func TestEmittedPayloadsShared(t *testing.T) {
	expr := keyedZoo()["kcidr07"]
	for _, mode := range scModes() {
		op := NewOp(expr, mode, "out", WithJoinKey("k"))
		twin := NewOp(expr, mode, "out", WithJoinKey("k"))
		var clone operators.Op
		held := map[string]event.Payload{} // content → the one map carrying it
		reused := 0
		check := func(label string, got, want []event.Event) {
			t.Helper()
			if !eventsEqual(got, want) {
				t.Fatalf("%v %s: output diverged from the fresh twin\n twin: %v\n  got: %v",
					mode, label, want, got)
			}
			for i, e := range got {
				if len(e.Payload) == 0 {
					continue
				}
				if sameMap(e.Payload, want[i].Payload) {
					t.Fatalf("%v %s: the op and its fresh twin share a map", mode, label)
				}
				c := exactContent(e.Payload)
				if p, ok := held[c]; !ok {
					held[c] = e.Payload
				} else if !sameMap(p, e.Payload) {
					t.Fatalf("%v %s: two maps carry %s", mode, label, c)
				} else {
					reused++
				}
			}
		}
		events := genRepeatEvents(rand.New(rand.NewSource(11)), 240)
		for i, e := range events {
			if i == len(events)/2 {
				clone = op.Clone()
			}
			want := twin.Process(0, e)
			check("push", op.Process(0, e), want)
			if clone != nil {
				check("clone push", clone.Process(0, e), want)
			}
			if i%5 == 4 {
				want := twin.Advance(e.V.Start + 1)
				check("advance", op.Advance(e.V.Start+1), want)
				if clone != nil {
					check("clone advance", clone.Advance(e.V.Start+1), want)
				}
			}
		}
		t.Logf("%v: %d outputs reused a map", mode, reused)
		if reused < 10 {
			t.Fatalf("%v: only %d outputs reused a map; the stream no longer repeats contents", mode, reused)
		}
	}
}

// exactContent renders a payload type-exactly (floats by their bits): the
// identity the payload table interns by.
func exactContent(p event.Payload) string {
	names := make([]string, 0, len(p))
	for k := range p {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, k := range names {
		v := p[k]
		if f, ok := v.(float64); ok {
			v = math.Float64bits(f)
		}
		fmt.Fprintf(&b, "%s=%T:%v|", k, p[k], v)
	}
	return b.String()
}

// TestPayloadIDsNeverReused: ids stay unique across a full table's reset
// and across Advance(∞) followed by a Rollback past it, and a restored tree
// keeps its own table. Matches point into the table, so every match derived
// before a reset, a rebuild or a restore still reads its own id, key and map.
func TestPayloadIDsNeverReused(t *testing.T) {
	op := seqABOp()
	a := op.sh.recs.kinds[0]
	seen := map[uint64]bool{}
	type held struct {
		km  *keyedMatch
		id  uint64
		key event.Key
		p   event.Payload
	}
	var kept []held
	fresh := func(label string, km *keyedMatch) {
		t.Helper()
		if pid := km.pe.id; pid == 0 || seen[pid] {
			t.Fatalf("%s: payload id %d reused (or not interned)", label, pid)
		}
		seen[km.pe.id] = true
		kept = append(kept, held{km, km.pe.id, km.pe.key, km.m.Payload})
	}
	unchanged := func(label string) {
		t.Helper()
		for _, h := range kept {
			if e := h.km.pe; e.id != h.id || e.key != h.key || !sameMap(e.p, h.p) {
				t.Fatalf("%s: a match derived with id %d, key %+v, payload %v now reads id %d, key %+v, payload %v",
					label, h.id, h.key, h.p, e.id, e.key, e.p)
			}
		}
	}
	leaf := func(i int) event.Payload { return event.Payload{"v": int64(i), "k": fmt.Sprintf("k%d", i%3)} }
	for i := 0; i <= internCap; i++ {
		fresh("fill", deriveLeaf(a, leaf(i)))
	}
	if tab := op.sh.pay; tab.n != 1 || len(tab.chunks) != 1 {
		t.Fatalf("after the reset: %d slots in %d chunks; want 1 in a new chunk list", tab.n, len(tab.chunks))
	}
	fresh("after the reset", deriveLeaf(a, leaf(0)))
	unchanged("after the reset")

	// Across the rebuild: ids the rebuilt table issues, then ids the restored
	// one issues, are all new.
	at := temporal.Time(0)
	push := func(typ string, v int64) *keyedMatch {
		at++
		e := event.NewInsert(event.ID(at), typ, at, temporal.Infinity, event.Payload{"v": v, "k": "k0"})
		op.Process(0, e)
		return &op.store[e.ID].leaf.keyedMatch
	}
	op.Mark()
	fresh("before", push("A", -1))
	v := op.Mark()
	before := op.sh.pay
	op.Advance(temporal.Infinity)
	if op.sh.pay == before {
		t.Fatal("Advance(∞) kept the payload table")
	}
	for i := int64(-2); i > -6; i-- {
		fresh("rebuilt table", push("A", i))
		fresh("rebuilt table", push("B", i))
	}
	unchanged("in the rebuilt table")
	if !op.Rollback(v) {
		t.Fatal("rollback refused")
	}
	if op.sh.pay != before || op.sh.recs.kinds[0].pay != before {
		t.Fatal("the restored tree does not use its own payload table")
	}
	for i := int64(-2); i > -6; i-- {
		fresh("restored table", push("A", i))
		fresh("restored table", push("B", i))
	}
	unchanged("in the restored table")
}
