package operators

import "testing"

// plainOp hides every method but Op's, so AsVersioned falls back to clones.
type plainOp struct{ Op }

// TestCloneAdapterFreesCopies: the clone-backed fallback holds exactly one
// operator copy per live version — Compact and Rollback each drop the
// copies of the versions they end.
func TestCloneAdapterFreesCopies(t *testing.T) {
	c, ok := AsVersioned(plainOp{NewDifference()}).(*cloneVersioned)
	if !ok {
		t.Fatal("a foreign stateful operator did not get the clone-backed fallback")
	}
	var vs []Version
	for i := 0; i < 6; i++ {
		vs = append(vs, c.Mark())
	}
	held := func() int { return len(c.copies.vals) }
	if held() != 6 {
		t.Fatalf("6 marks hold %d copies", held())
	}
	c.Compact(vs[1])
	if held() != 5 || c.Rollback(vs[0]) {
		t.Fatalf("Compact kept copies below its version (%d held)", held())
	}
	if !c.Rollback(vs[3]) || held() != 3 {
		t.Fatalf("Rollback to v3 should leave v1 to v3 (%d held)", held())
	}
	if _, ok := AsVersioned(NewDifference()).(*Difference); !ok {
		t.Fatal("a journaled operator must be returned as is")
	}
	if _, ok := AsVersioned(NewUnion()).(statelessVersioned); !ok {
		t.Fatal("a stateless operator must not take the clone fallback")
	}
}
