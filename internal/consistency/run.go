package consistency

import (
	"sort"

	"repro/internal/event"
	"repro/internal/operators"
	"repro/internal/stream"
)

// RunStreams executes an operator under a consistency monitor over physical
// input streams (one per port), pushing them in global CEDR arrival order
// (ties broken by port, then stream position). It is the single-operator
// harness of the figures, the tests and the benchmarks; the engine drives
// its monitors only through its shard runtime. The final Finish flushes the
// monitor so the output history is complete.
func RunStreams(op operators.Op, spec Spec, inputs ...stream.Stream) (stream.Stream, Metrics) {
	type tagged struct {
		port int
		pos  int
		ev   event.Event
	}
	total := 0
	for _, in := range inputs {
		total += len(in)
	}
	all := make([]tagged, 0, total)
	for port, in := range inputs {
		for pos, e := range in {
			all = append(all, tagged{port, pos, e})
		}
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].ev.C.Start != all[j].ev.C.Start {
			return all[i].ev.C.Start < all[j].ev.C.Start
		}
		if all[i].port != all[j].port {
			return all[i].port < all[j].port
		}
		return all[i].pos < all[j].pos
	})
	m := NewMonitor(op, spec)
	out := Burst{Evs: make(stream.Stream, 0, total)}
	for _, t := range all {
		m.PushTaggedInto(t.port, t.ev, false, &out)
	}
	m.FinishTaggedInto(false, &out)
	return out.Evs, m.Metrics()
}
