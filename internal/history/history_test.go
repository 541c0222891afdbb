package history

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/event"
	"repro/internal/temporal"
)

func TestReduceKeepsEarliestOe(t *testing.T) {
	tbl := BiTable{
		{K: 1, O: iv(1, 10), C: iv(0, inf)},
		{K: 1, O: iv(1, 5), C: iv(1, inf)},
		{K: 2, O: iv(2, 7), C: iv(2, inf)},
	}
	red := tbl.Reduce()
	if len(red) != 2 {
		t.Fatalf("len = %d", len(red))
	}
	if red[0].O.End != 5 || red[1].O.End != 7 {
		t.Errorf("reduce kept wrong rows: %+v", red)
	}
}

func TestReduceIdempotent(t *testing.T) {
	tbl := randomBiTable(rand.New(rand.NewSource(7)), 50)
	once := tbl.Reduce()
	twice := once.Reduce()
	if len(once) != len(twice) {
		t.Fatalf("reduce not idempotent: %d vs %d", len(once), len(twice))
	}
	for i := range once {
		if once[i].factKey() != twice[i].factKey() || once[i].C != twice[i].C {
			t.Fatalf("row %d changed on second reduce", i)
		}
	}
}

func TestTruncate(t *testing.T) {
	tbl := BiTable{
		{K: 1, O: iv(1, 10)},
		{K: 2, O: iv(5, inf)},
		{K: 3, O: iv(9, 12)},
	}
	tr := tbl.TruncateTo(8)
	if len(tr) != 2 {
		t.Fatalf("len = %d, want 2 (row with Os>8 dropped)", len(tr))
	}
	if tr[0].O.End != 8 || tr[1].O.End != 8 {
		t.Errorf("Oe not capped: %+v", tr)
	}
}

func TestCanonicalAtSnapshots(t *testing.T) {
	tbl := BiTable{
		{K: 1, O: iv(1, 5)},
		{K: 2, O: iv(3, inf)},
	}
	at2 := tbl.CanonicalAt(2)
	if len(at2) != 1 || at2[0].K != 1 {
		t.Errorf("at 2: %+v", at2)
	}
	at4 := tbl.CanonicalAt(4)
	if len(at4) != 2 {
		t.Errorf("at 4: %+v", at4)
	}
	at7 := tbl.CanonicalAt(7)
	if len(at7) != 1 || at7[0].K != 2 {
		t.Errorf("at 7: %+v", at7)
	}
}

func TestEquivalenceReflexiveAndCEDRInsensitive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		tbl := randomBiTable(rng, 30)
		if !tbl.EquivalentTo(tbl, 100) {
			t.Fatal("equivalence not reflexive")
		}
		// Perturb CEDR times arbitrarily: logical equivalence must hold
		// (Definition 1 projects out Cs, Ce).
		other := tbl.Clone()
		for i := range other {
			other[i].C = iv(temporal.Time(rng.Intn(1000)), inf)
		}
		if !tbl.EquivalentTo(other, 100) {
			t.Fatal("equivalence must ignore CEDR time")
		}
		if !tbl.EquivalentAt(other, 50) {
			t.Fatal("equivalence-at must ignore CEDR time")
		}
	}
}

func TestEquivalenceSeesContentChange(t *testing.T) {
	a := BiTable{{K: 1, O: iv(1, 10), V: iv(1, 20)}}
	b := BiTable{{K: 1, O: iv(1, 10), V: iv(1, 21)}}
	if a.EquivalentTo(b, 100) {
		t.Error("different valid times must not be equivalent")
	}
	c := BiTable{{K: 1, O: iv(1, 10), V: iv(1, 20), Payload: event.Payload{"x": int64(1)}}}
	if a.EquivalentTo(c, 100) {
		t.Error("different payloads must not be equivalent")
	}
}

// Retraction chains delivered in different packagings converge: shrinking
// Oe in one step is equivalent to shrinking it in two.
func TestEquivalencePackagingInsensitive(t *testing.T) {
	oneStep := BiTable{
		{K: 1, O: iv(1, inf), C: iv(1, inf)},
		{K: 1, O: iv(1, 4), C: iv(2, inf)},
	}
	twoSteps := BiTable{
		{K: 1, O: iv(1, inf), C: iv(1, inf)},
		{K: 1, O: iv(1, 8), C: iv(2, inf)},
		{K: 1, O: iv(1, 4), C: iv(3, inf)},
	}
	if !oneStep.EquivalentTo(twoSteps, 100) {
		t.Error("packaging of retractions must not matter")
	}
}

func TestInOrder(t *testing.T) {
	ordered := []AnnRow{
		{BiRow: BiRow{C: iv(1, inf)}, Sync: 1},
		{BiRow: BiRow{C: iv(2, inf)}, Sync: 3},
		{BiRow: BiRow{C: iv(3, inf)}, Sync: 5},
	}
	if !InOrder(ordered) {
		t.Error("ordered stream misreported")
	}
	disordered := []AnnRow{
		{BiRow: BiRow{C: iv(1, inf)}, Sync: 5},
		{BiRow: BiRow{C: iv(2, inf)}, Sync: 3},
	}
	if InOrder(disordered) {
		t.Error("disordered stream misreported")
	}
}

func TestSyncPointsDenseWhenOrdered(t *testing.T) {
	// A fully ordered stream has a sync point after every event.
	var tbl BiTable
	for i := 0; i < 10; i++ {
		tbl = append(tbl, BiRow{
			K: event.ID(i),
			O: iv(temporal.Time(i), inf),
			C: iv(temporal.Time(i), inf),
		})
	}
	pts := SyncPoints(tbl.Annotate())
	if len(pts) != 10 {
		t.Errorf("ordered stream sync points = %d, want 10", len(pts))
	}
}

func TestSyncPointsSparseWhenDisordered(t *testing.T) {
	// One very late event destroys all intermediate sync points.
	tbl := BiTable{
		{K: 1, O: iv(1, inf), C: iv(10, inf)},
		{K: 2, O: iv(5, inf), C: iv(11, inf)},
		{K: 3, O: iv(2, inf), C: iv(12, inf)}, // late: Sync 2 after Sync 5
	}
	pts := SyncPoints(tbl.Annotate())
	// Only the prefix {1} (before the inversion) and the full table
	// separate cleanly.
	if len(pts) != 2 {
		t.Errorf("sync points = %v, want 2", pts)
	}
}

func TestUniReduceAndIdeal(t *testing.T) {
	tbl := UniTable{
		{ID: 1, V: iv(1, 10), Payload: event.Payload{"p": "a"}},
		{ID: 1, V: iv(1, 5), Payload: event.Payload{"p": "a"}}, // retraction
		{ID: 2, V: iv(3, 3)}, // fully retracted
		{ID: 3, V: iv(4, 9), Payload: event.Payload{"p": "b"}},
	}
	ideal := tbl.Ideal()
	if len(ideal) != 2 {
		t.Fatalf("ideal rows = %d, want 2 (empty-validity dropped)", len(ideal))
	}
	if ideal[0].V != iv(1, 5) {
		t.Errorf("ID 1 final validity = %v, want [1, 5)", ideal[0].V)
	}
}

func TestFromEventsSkipsCTI(t *testing.T) {
	evs := []event.Event{
		event.NewInsert(1, "A", 1, 10, nil),
		event.NewCTI(5),
		event.NewRetract(1, "A", 1, 5, nil),
	}
	tbl := FromEvents(evs)
	if len(tbl) != 2 {
		t.Fatalf("rows = %d, want 2", len(tbl))
	}
	if got := tbl.Ideal()[0].V; got != iv(1, 5) {
		t.Errorf("final validity = %v", got)
	}
}

func TestStarCoalescesMeetingIntervals(t *testing.T) {
	// Definition 10: a payload whose lifetime is chopped into several insert
	// events coalesces to one event with the larger, equivalent lifetime.
	p := event.Payload{"x": int64(1)}
	chopped := UniTable{
		{ID: 1, V: iv(1, 5), Payload: p},
		{ID: 2, V: iv(5, 9), Payload: p},
		{ID: 3, V: iv(9, 12), Payload: p},
	}
	whole := UniTable{{ID: 9, V: iv(1, 12), Payload: p}}
	star := chopped.Star()
	if len(star) != 1 || star[0].V != iv(1, 12) {
		t.Fatalf("Star = %+v", star)
	}
	if !chopped.EquivalentStar(whole) {
		t.Error("chopped and whole lifetimes must be *-equivalent")
	}
}

func TestStarKeepsGaps(t *testing.T) {
	p := event.Payload{"x": int64(1)}
	gappy := UniTable{
		{ID: 1, V: iv(1, 5), Payload: p},
		{ID: 2, V: iv(6, 9), Payload: p}, // gap at [5,6)
	}
	star := gappy.Star()
	if len(star) != 2 {
		t.Fatalf("Star must keep the gap: %+v", star)
	}
}

func TestStarSeparatesPayloads(t *testing.T) {
	a := UniTable{
		{ID: 1, V: iv(1, 5), Payload: event.Payload{"x": int64(1)}},
		{ID: 2, V: iv(5, 9), Payload: event.Payload{"x": int64(2)}},
	}
	if len(a.Star()) != 2 {
		t.Error("different payloads must not coalesce")
	}
}

// Star is a normal form: applying it again changes no row.
func TestStarIdempotentQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tbl := randomUniTable(rng, 40)
		once := tbl.Star()
		twice := once.Star()
		return reflect.DeepEqual(once, twice)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEquivalentStarIgnoresDeliveryOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tbl := randomUniTable(rng, 60)
	shuffled := tbl.Clone()
	rng.Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	if !tbl.EquivalentStar(shuffled) {
		t.Error("EquivalentStar must be order-insensitive")
	}
}

func TestShred(t *testing.T) {
	tbl := BiTable{{K: 1, O: iv(2, 5), V: iv(0, 10)}}
	sh, err := tbl.Shred(10, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(sh) != 3 {
		t.Fatalf("pieces = %d, want 3", len(sh))
	}
	for i, r := range sh {
		want := iv(temporal.Time(2+i), temporal.Time(3+i))
		if r.O != want {
			t.Errorf("piece %d occurrence = %v, want %v", i, r.O, want)
		}
		if r.V != iv(0, 10) {
			t.Errorf("piece %d validity changed: %v", i, r.V)
		}
	}
}

func TestShredUnboundedNeedsHorizon(t *testing.T) {
	tbl := BiTable{{K: 1, O: iv(2, inf)}}
	if _, err := tbl.Shred(inf, inf); err == nil {
		t.Error("expected error for unbounded shred")
	}
	sh, err := tbl.Shred(inf, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(sh) != 3 {
		t.Errorf("pieces = %d, want 3 (capped at horizon)", len(sh))
	}
}

// ---------- helpers ----------

// randomBiTable builds well-formed retraction chains: each K has a fixed
// fact (valid time, payload) whose initial insert occurs over [os, ∞) and
// whose retractions only ever reduce Oe — the invariant the paper's model
// maintains (each retraction "reduces the Ce compared to the previous
// matching entry", and content is otherwise unchanged).
func randomBiTable(rng *rand.Rand, n int) BiTable {
	tbl := make(BiTable, 0, n)
	cs := temporal.Time(0)
	chains := rng.Intn(6) + 2
	for k := 0; k < chains && len(tbl) < n; k++ {
		os := temporal.Time(rng.Intn(50))
		v := iv(os, inf)
		oe := inf
		steps := rng.Intn(4) + 1
		for s := 0; s < steps && len(tbl) < n; s++ {
			if s > 0 {
				// Retraction: shrink Oe strictly.
				width := temporal.Time(rng.Intn(40) + 1)
				if oe == inf || os+width < oe {
					oe = os + width
				} else {
					oe = os + (oe-os)/2
				}
			}
			tbl = append(tbl, BiRow{
				K: event.ID(k), ID: event.ID(k),
				O: iv(os, oe),
				V: v,
				C: iv(cs, inf),
			})
			cs++
		}
	}
	return tbl
}

func randomUniTable(rng *rand.Rand, n int) UniTable {
	tbl := make(UniTable, 0, n)
	for i := 0; i < n; i++ {
		vs := temporal.Time(rng.Intn(40))
		ve := vs + temporal.Time(rng.Intn(20))
		tbl = append(tbl, UniRow{
			ID:      event.ID(i),
			V:       iv(vs, ve),
			Payload: event.Payload{"g": int64(rng.Intn(4))},
		})
	}
	return tbl
}
