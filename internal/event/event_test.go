package event

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/temporal"
)

func TestKindString(t *testing.T) {
	if Insert.String() != "insert" || Retract.String() != "retract" || CTI.String() != "cti" {
		t.Error("Kind strings wrong")
	}
	if Kind(9).String() != "kind(9)" {
		t.Errorf("unknown kind: %s", Kind(9))
	}
}

func TestNewInsert(t *testing.T) {
	e := NewInsert(7, "INSTALL", 1, 10, Payload{"machine": "m1"})
	if e.Kind != Insert || e.ID != 7 || e.Type != "INSTALL" {
		t.Errorf("header wrong: %+v", e)
	}
	if e.V != temporal.NewInterval(1, 10) {
		t.Errorf("V = %v", e.V)
	}
	if e.Sync() != 1 {
		t.Errorf("Sync = %v, want Vs", e.Sync())
	}
	if e.RT != 1 {
		t.Errorf("RT = %v", e.RT)
	}
}

func TestNewRetractSync(t *testing.T) {
	// Sync of a retraction is the (new) end time (Section 4: Sync = Oe).
	r := NewRetract(7, "INSTALL", 1, 5, nil)
	if r.Kind != Retract {
		t.Error("kind")
	}
	if r.Sync() != 5 {
		t.Errorf("retraction Sync = %v, want 5", r.Sync())
	}
}

func TestCTI(t *testing.T) {
	c := NewCTI(42)
	if !c.IsCTI() {
		t.Error("IsCTI false")
	}
	if c.Sync() != 42 {
		t.Errorf("CTI Sync = %v", c.Sync())
	}
	if NewInsert(1, "A", 1, 2, nil).IsCTI() {
		t.Error("insert reported as CTI")
	}
}

func TestCloneIsDeep(t *testing.T) {
	e := NewInsert(1, "A", 1, 10, Payload{"x": int64(5)})
	e.CBT = []ID{2, 3}
	c := e.Clone()
	c.Payload["x"] = int64(6)
	c.CBT[0] = 99
	if e.Payload["x"] != int64(5) {
		t.Error("payload not deep-copied")
	}
	if e.CBT[0] != 2 {
		t.Error("lineage not deep-copied")
	}
}

func TestSameFactIgnoresCEDRTime(t *testing.T) {
	a := NewInsert(1, "A", 1, 10, Payload{"x": int64(5)})
	b := a.Clone()
	b.C = temporal.NewInterval(100, 200) // different system time
	if !a.SameFact(b) {
		t.Error("SameFact must ignore CEDR time")
	}
	b.V = temporal.NewInterval(1, 9)
	if a.SameFact(b) {
		t.Error("SameFact must see valid-time change")
	}
}

func TestPayloadEqualAndKey(t *testing.T) {
	p := Payload{"a": int64(1), "b": "x"}
	q := Payload{"b": "x", "a": int64(1)}
	if !p.Equal(q) {
		t.Error("payload equality is order-sensitive")
	}
	if p.Key() != q.Key() {
		t.Error("Key not canonical")
	}
	if p.Key() != "a=1|b=x" {
		t.Errorf("Key = %q", p.Key())
	}
	if p.Equal(Payload{"a": int64(1)}) {
		t.Error("different-size payloads equal")
	}
	if p.Equal(Payload{"a": int64(2), "b": "x"}) {
		t.Error("different values equal")
	}
	var empty Payload
	if empty.Key() != "" || empty.String() != "{}" {
		t.Error("empty payload rendering")
	}
}

// TestPayloadEqualIsReflexive: a payload carrying NaN equals its copy, so
// whether two payloads are equal does not depend on their sharing a map.
// ValueEqual, which predicates compare with, keeps NaN unequal to itself.
func TestPayloadEqualIsReflexive(t *testing.T) {
	p := Payload{"v": math.NaN(), "k": "a"}
	if !p.Equal(p.Clone()) {
		t.Error("a NaN payload does not equal its copy")
	}
	if p.Equal(Payload{"v": 1.0, "k": "a"}) || (Payload{"v": 1.0, "k": "a"}).Equal(p) {
		t.Error("NaN equals a number")
	}
	if p.Equal(Payload{"v": "NaN", "k": "a"}) {
		t.Error("NaN equals a string")
	}
	if ValueEqual(math.NaN(), math.NaN()) {
		t.Error("ValueEqual(NaN, NaN): predicates must keep NaN wild")
	}
}

func TestValueEqualNumericBridge(t *testing.T) {
	if !ValueEqual(int64(3), float64(3)) {
		t.Error("int64/float64 bridge broken")
	}
	if !ValueEqual(int(3), int64(3)) {
		t.Error("int/int64 bridge broken")
	}
	if ValueEqual(int64(3), "3") {
		t.Error("number should not equal string")
	}
	if !ValueEqual("a", "a") || ValueEqual("a", "b") {
		t.Error("string equality broken")
	}
	if !ValueEqual(true, true) || ValueEqual(true, false) {
		t.Error("bool equality broken")
	}
}

func TestValueLess(t *testing.T) {
	if !ValueLess(int64(1), float64(2)) {
		t.Error("1 < 2.0 should hold")
	}
	if ValueLess(float64(2), int64(1)) {
		t.Error("2.0 < 1 should not hold")
	}
	if !ValueLess("a", "b") || ValueLess("b", "a") {
		t.Error("string ordering broken")
	}
	if ValueLess("a", int64(1)) || ValueLess(int64(1), "a") {
		t.Error("incomparable pairs must be false")
	}
}

func TestNum(t *testing.T) {
	if f, ok := Num(int64(4)); !ok || f != 4 {
		t.Error("Num(int64)")
	}
	if _, ok := Num("x"); ok {
		t.Error("Num(string) should fail")
	}
}

func TestPairDeterministicAndOrderSensitive(t *testing.T) {
	a := Pair(1, 2, 3)
	b := Pair(1, 2, 3)
	if a != b {
		t.Error("Pair not deterministic")
	}
	if Pair(1, 2) == Pair(2, 1) {
		t.Error("Pair should be order-sensitive (cbt[] is a sequence)")
	}
	if Pair(1) == Pair(1, 1) {
		t.Error("Pair should distinguish arity")
	}
}

// Property: Pair behaves injectively on random small inputs (no collisions
// observed across distinct sequences in sampled space).
func TestPairQuickNoTrivialCollisions(t *testing.T) {
	f := func(a, b uint16) bool {
		if a == b {
			return true
		}
		return Pair(ID(a)) != Pair(ID(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGenerator(t *testing.T) {
	g := NewGenerator(10)
	if g.Next() != 10 || g.Next() != 11 {
		t.Error("Generator sequence wrong")
	}
}

func TestEventString(t *testing.T) {
	e := NewInsert(1, "A", 1, 10, Payload{"x": int64(5)})
	s := e.String()
	if s == "" {
		t.Error("empty String")
	}
	c := NewCTI(4)
	if c.String() != "CTI(4)" {
		t.Errorf("CTI String = %q", c.String())
	}
}
