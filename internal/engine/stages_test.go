package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/consistency"
	"repro/internal/delivery"
	"repro/internal/event"
	"repro/internal/leakcheck"
	"repro/internal/operators"
	"repro/internal/plan"
	"repro/internal/stream"
	"repro/internal/temporal"
	"repro/internal/workload"
)

// The stages a plan runs after its matcher (Slice for @ and #, Project for
// OUTPUT) are stateless: they map each item the matcher emits and hold
// nothing disorder could corrupt, so they run without a monitor of their
// own. These tests pin what that means at the engine's surface.

// statelessTwin is a query with stages after its matcher: its twin is base
// alone, and the query is base followed by tail.
type statelessTwin struct{ base, tail string }

// TestStatelessStagesMapEachItem: a multi-stage plan's Results are its
// single-stage twin's Results with every data item mapped through the
// plan's later stages by their Process, punctuation unchanged — IDs, V, C,
// payloads, order and CTIs byte-identical — at every level, over ordered,
// disordered and stray-laden streams, at one and at four shards. A fourth
// stream, the disordered one cut at two thirds, ends on data its last CTI
// has not released, so Finish releases it and maps it too.
func TestStatelessStagesMapEachItem(t *testing.T) {
	defer leakcheck.Check(t)()
	var zoo []statelessTwin
	for _, mode := range payloadModes {
		for i, tail := range payloadTails {
			if strings.ContainsAny(tail, "@#") || strings.Contains(tail, "OUTPUT") {
				base := fmt.Sprintf("EVENT T%d WHEN SEQUENCE(A a, B b, 12) WHERE CorrelationKey(k, EQUAL) %s", i-1, mode)
				zoo = append(zoo, statelessTwin{base, " " + tail})
			}
		}
	}
	pairsBase, pairsTail, _ := strings.Cut(pairsQuery, "\nOUTPUT")
	fleet := []statelessTwin{
		{pairsBase, "\nOUTPUT" + pairsTail},
		{monitorQuery, "@ [3000000, 90000000) OUTPUT x.Machine_Id AS machine, y.Machine_Id"},
	}
	zooIn := payloadStream(rand.New(rand.NewSource(5)), 400)
	fleetIn, _ := workload.MachineEvents(workload.DefaultMachines())
	families := []struct {
		name    string
		queries []statelessTwin
		unit    temporal.Duration // scales the levels to the stream's clock
		streams map[string]stream.Stream
	}{
		{"zoo", zoo, 1, map[string]stream.Stream{
			"ordered":    delivery.Deliver(zooIn, delivery.Ordered(10)),
			"disordered": delivery.Deliver(zooIn, delivery.Disordered(3, 10, 25, 0.2)),
			"strays":     withStrays(delivery.Deliver(zooIn, delivery.Disordered(4, 10, 25, 0.2))),
		}},
		{"fleet", fleet, temporal.Minute, map[string]stream.Stream{
			"ordered":    delivery.Deliver(fleetIn, delivery.Ordered(10*temporal.Minute)),
			"disordered": delivery.Deliver(fleetIn, delivery.Disordered(9, 10*temporal.Minute, 2*temporal.Minute, 0.3)),
			"strays":     withStrays(durabilityWorkload()),
		}},
	}
	for _, fam := range families {
		cut := fam.streams["disordered"]
		fam.streams["cut"] = cut[:len(cut)*2/3]
		levels := []consistency.Spec{
			consistency.Strong(),
			consistency.Middle(),
			consistency.Level(fam.unit, consistency.Unbounded),
			consistency.Weak(5 * fam.unit),
		}
		// Data items each query and its twin emitted over the grid.
		mapped, heads := make([]int, len(fam.queries)), make([]int, len(fam.queries))
		for sname, in := range fam.streams {
			for _, spec := range levels {
				for _, shards := range []int{1, 4} {
					e := New()
					qs := make([]*Query, len(fam.queries))
					twins := make([]*Query, len(fam.queries))
					for i, qc := range fam.queries {
						var err error
						if qs[i], err = e.RegisterText(qc.base+qc.tail, plan.WithSpec(spec), plan.WithShards(shards)); err != nil {
							t.Fatalf("%s: %v", qc.base+qc.tail, err)
						}
						if twins[i], err = e.RegisterText(qc.base, plan.WithSpec(spec), plan.WithShards(shards)); err != nil {
							t.Fatalf("%s: %v", qc.base, err)
						}
					}
					e.Run(in)
					for i, q := range qs {
						label := fmt.Sprintf("%s %s %s shards=%d %q", fam.name, sname, spec.Name(), shards, q.Plan().Src)
						stages := q.Plan().Fresh().Stages
						if len(stages) < 2 {
							t.Fatalf("%s: a single-stage plan", label)
						}
						got := q.Results()
						compareStreams(t, label, got, mapStages(stages[1:], twins[i].Results()))
						mapped[i] += len(got.Events())
						heads[i] += len(twins[i].Results().Events())
					}
				}
			}
		}
		for i, n := range mapped {
			if n == 0 {
				t.Fatalf("%s %q: emitted no data in any cell; the streams no longer exercise it", fam.name, fam.queries[i].base+fam.queries[i].tail)
			}
			t.Logf("%s %q: %d of its twin's %d data items", fam.name, fam.queries[i].tail, n, heads[i])
		}
	}
}

// TestOutputClauseAddsNoLatency: an OUTPUT clause maps the alerts; it does
// not hold them back. At each level, over the ordered and the disordered
// fleet stream, the §3.1 query with OUTPUT delivers as many alerts as the
// query without it, each during the same Push as its twin's, and ends with
// one CTI(∞), not two.
func TestOutputClauseAddsNoLatency(t *testing.T) {
	defer leakcheck.Check(t)()
	events, _ := workload.MachineEvents(workload.DefaultMachines())
	streams := []struct {
		name string
		in   stream.Stream
	}{
		{"ordered", delivery.Deliver(events, delivery.Ordered(10*temporal.Minute))},
		{"disordered", delivery.Deliver(events,
			delivery.Disordered(9, 10*temporal.Minute, 2*temporal.Minute, 0.3))},
	}
	levels := []consistency.Spec{
		consistency.Strong(),
		consistency.Level(temporal.Minute, consistency.Unbounded),
		consistency.Middle(),
		consistency.Weak(5 * temporal.Minute),
	}
	for _, sc := range streams {
		for _, spec := range levels {
			label := fmt.Sprintf("%s %s", sc.name, spec.Name())
			e := New()
			plain, err := e.RegisterText(monitorQuery, plan.WithSpec(spec))
			if err != nil {
				t.Fatal(err)
			}
			output, err := e.RegisterText(monitorQuery+"OUTPUT x.Machine_Id AS machine", plan.WithSpec(spec))
			if err != nil {
				t.Fatal(err)
			}
			// pushes[q] is the index of the Push that delivered each of q's
			// alerts (len(in) for Finish).
			push := 0
			pushes := map[*Query][]int{}
			for _, q := range []*Query{plain, output} {
				subscribe(q, func(ev event.Event) {
					if ev.Kind == event.Insert {
						pushes[q] = append(pushes[q], push)
					}
				})
			}
			for i, ev := range sc.in {
				push = i
				e.Push(ev)
			}
			push = len(sc.in)
			e.Finish()
			if alerts(plain) == 0 || alerts(output) != alerts(plain) {
				t.Fatalf("%s: %d alerts with OUTPUT, %d without", label, alerts(output), alerts(plain))
			}
			want, got := pushes[plain], pushes[output]
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: alert %d delivered at push %d with OUTPUT, at push %d without (of %d pushes)",
						label, i, got[i], want[i], len(sc.in))
				}
			}
			ends := 0
			for _, ev := range output.Results() {
				if ev.IsCTI() && ev.Sync() == temporal.Infinity {
					ends++
				}
			}
			if ends != 1 {
				t.Fatalf("%s: the OUTPUT query emitted CTI(∞) %d times, want once", label, ends)
			}
		}
	}
}

// TestShardedRefusesStatefulStage: only stateless stages may follow the
// head, since only the head runs under a monitor.
func TestShardedRefusesStatefulStage(t *testing.T) {
	defer leakcheck.Check(t)()
	head := func() operators.Op { return operators.NewSelect(func(event.Payload) bool { return true }) }
	for _, n := range []int{1, 4} {
		stateful := func(int) []operators.Op {
			return []operators.Op{head(), operators.NewAggregate(operators.Count, "", "g")}
		}
		_, err := newSharded("test", n, 0, stateful, consistency.Middle(), RouteByID(n), &collector{})
		if err == nil || !strings.Contains(err.Error(), "not stateless") {
			t.Fatalf("shards=%d: a stateful stage after the head: err = %v", n, err)
		}
		stateless := func(int) []operators.Op {
			return []operators.Op{head(), operators.NewSlice(temporal.Interval{Start: 0, End: 10})}
		}
		sh, err := newSharded("test", n, 0, stateless, consistency.Middle(), RouteByID(n), &collector{})
		if err != nil {
			t.Fatalf("shards=%d: a stateless stage after the head: %v", n, err)
		}
		sh.finish()
	}
}
