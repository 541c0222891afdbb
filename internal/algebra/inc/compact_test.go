package inc

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/consistency"
	"repro/internal/delivery"
	"repro/internal/event"
	"repro/internal/operators"
	"repro/internal/stream"
	"repro/internal/temporal"
)

// machineCycles is n INSTALL → SHUTDOWN → RESTART cycles over five
// machines in occurrence order, each restart missed (later than cidr07's
// five minutes) every third cycle; IDs are unique.
func machineCycles(n int) []event.Event {
	var out []event.Event
	for c := range n {
		m := fmt.Sprintf("m%d", c%5)
		at := temporal.Time(c) * temporal.Time(10*temporal.Minute)
		restart := temporal.Time(temporal.Minute)
		if c%3 == 0 {
			restart = temporal.Time(9 * temporal.Minute)
		}
		out = append(out,
			ev(event.ID(3*c+1), "INSTALL", at, "Machine_Id", m),
			ev(event.ID(3*c+2), "SHUTDOWN", at+temporal.Time(temporal.Minute), "Machine_Id", m),
			ev(event.ID(3*c+3), "RESTART", at+temporal.Time(temporal.Minute)+restart, "Machine_Id", m))
	}
	slices.SortStableFunc(out, func(a, b event.Event) int { return int(a.V.Start - b.V.Start) })
	return out
}

// TestUndoRecordSize pins the journal's record at 56 B: a time rides in the
// record's i or id field, so it carries no time field of its own.
func TestUndoRecordSize(t *testing.T) {
	if n := unsafe.Sizeof(undoRec{}); n != 56 {
		t.Fatalf("undoRec is %d B, want 56", n)
	}
}

// TestCompactEmptiesCompositeCaches: right after Compact every join node's
// composite cache is empty, its map kept, and so is the record cache: a
// replay never reaches below the checkpoint, and an event ID names one
// event, so a record a later replay misses is rebuilt equal.
func TestCompactEmptiesCompositeCaches(t *testing.T) {
	op := cidr07(t)
	op.Mark()
	for _, e := range machineCycles(40) {
		op.Process(0, e)
	}
	combs := op.sh.recs.combs
	if len(combs) == 0 {
		t.Fatal("the tree registered no composite cache")
	}
	held := 0
	for _, c := range combs {
		held += len(c.m)
	}
	if held == 0 {
		t.Fatal("the stream built no composite")
	}
	recs := len(op.sh.recs.m)
	op.Compact(op.Mark())
	for i, c := range combs {
		if len(c.m) != 0 || c.m == nil {
			t.Fatalf("composite cache %d holds %d entries after Compact (map kept: %v)", i, len(c.m), c.m != nil)
		}
	}
	if len(op.sh.recs.m) != 0 {
		t.Fatalf("Compact left %d of the record cache's %d entries", len(op.sh.recs.m), recs)
	}
}

// neverCompacted is an Op whose undo history and composite caches are
// never cut back.
type neverCompacted struct{ *Op }

func (neverCompacted) Compact(operators.Version) {}

// TestCompactAtEveryCTIChangesNothing: under a monitor, which compacts at
// every sync point, every keyed-zoo operator emits byte for byte what a
// twin that is never compacted emits, on disordered streams with unique
// IDs — a composite a repair re-derives after its cache was emptied is the
// one it had before.
func TestCompactAtEveryCTIChangesNothing(t *testing.T) {
	for name, expr := range keyedZoo() {
		for _, mode := range scModes() {
			for _, dist := range keyDists() {
				rng := rand.New(rand.NewSource(4242))
				src := stream.Stream(genDistEvents(rng, 60, dist))
				delivered := delivery.Deliver(src, delivery.Disordered(7, 20, 10, 0.25))
				op := NewOp(expr, mode, "out", WithJoinKey("k"))
				out, met := consistency.RunStreams(op, consistency.Middle(), delivered)
				twin := neverCompacted{NewOp(expr, mode, "out", WithJoinKey("k"))}
				want, wantMet := consistency.RunStreams(twin, consistency.Middle(), delivered)
				if !eventsEqual(out, want) {
					t.Fatalf("%s %v %s: compacted output diverged (%d vs %d items)", name, mode, dist.name, len(out), len(want))
				}
				if met != wantMet {
					t.Fatalf("%s %v %s: metrics diverged\n compacted: %+v\n     never: %+v", name, mode, dist.name, met, wantMet)
				}
			}
		}
	}
}

// TestMatcherCounters: on a disordered stream, repaired the way the
// consistency monitor repairs (roll back, re-drive in occurrence order),
// the composite caches answer lookups, and built + hits is the number of
// lookups — each one a composite entering a join node's live set, which
// the journal records.
func TestMatcherCounters(t *testing.T) {
	op := cidr07(t)
	outs := map[unsafe.Pointer]bool{}
	eachNode(op.root, func(n node) {
		if s, ok := n.(*seqNode); ok {
			outs[reflect.ValueOf(s.outs).UnsafePointer()] = true
		}
	})
	lookups := 0
	count := func() {
		for _, r := range journalRecs(op.sh.u) {
			if r.kind == jMatchMap && !r.flag && outs[reflect.ValueOf(r.node).UnsafePointer()] {
				lookups++
			}
		}
	}
	v := op.Mark()
	events := machineCycles(60)
	rng := rand.New(rand.NewSource(7))
	for i := range events { // disorder: swap neighbours within a window of four
		if j := i + rng.Intn(4); j < len(events) {
			events[i], events[j] = events[j], events[i]
		}
	}
	var seen []event.Event
	for _, e := range events {
		late := len(seen) > 0 && e.V.Start < seen[len(seen)-1].V.Start
		seen = append(seen, e)
		slices.SortStableFunc(seen, func(a, b event.Event) int { return int(a.V.Start - b.V.Start) })
		if !late {
			op.Process(0, e)
			continue
		}
		count()
		if !op.Rollback(v) {
			t.Fatal("the genesis version was lost")
		}
		for _, r := range seen {
			op.Process(0, r)
		}
	}
	count()
	built, hits := op.CompositeLookups()
	t.Logf("%d composites built, %d cache hits, %d lookups", built, hits, lookups)
	if hits == 0 || built == 0 {
		t.Fatalf("built %d, hits %d: a repaired stream must both build and reuse composites", built, hits)
	}
	if built+hits != uint64(lookups) {
		t.Fatalf("built %d + hits %d != %d lookups", built, hits, lookups)
	}
}
