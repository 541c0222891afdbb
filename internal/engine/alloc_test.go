//go:build !race

package engine

import (
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/consistency"
	"repro/internal/event"
	"repro/internal/operators"
	"repro/internal/plan"
	"repro/internal/temporal"
	"repro/internal/wal"
)

// TestAllocsRegisterPrivateChain pins what registering one private chain
// costs in heap objects: the engine, the Query and chain, the one-shard
// runtime (its struct and worker — no goroutines, channels or free
// lists), each stage's monitor, and the chain's entries in the
// routing index — the index's map (header and one group, made by the first
// typed registration) and one bucket slice per input TYPE, three here.
// Registration storms (a fabric of private chains re-registered every
// pass) pay this per chain. The plan is compiled once, outside the
// measurement. (Skipped under -race: instrumentation changes allocation
// counts.)
func TestAllocsRegisterPrivateChain(t *testing.T) {
	p, err := plan.Compile(monitorQuery)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		New().register(p)
	})
	const ceiling = 15.0 // measured 15: 10 for the chain (the runtime lives inside it) + 5 for the index (20 with a pointer per TYPE entry and an eagerly made map)
	t.Logf("New + one private-chain Register: measured %.0f allocs (ceiling %.0f)", allocs, ceiling)
	if allocs > ceiling {
		t.Fatalf("New + one private-chain Register allocates %.0f, above the pinned ceiling %.0f", allocs, ceiling)
	}
}

// TestAllocsRegisterShared pins what a registration that attaches to a
// running chain costs: the prepared plan, its two rewrites objects (the
// slice and the pushdown's name), its sharing identity and the Query. No
// operator is built: a matcher tree alone is dozens of objects, and
// registering through plan.Compile cost 46 and 58. A template instance adds
// the option's copy of its bindings map (two objects) and their rendered
// identity. The chain count must not move. (Skipped under -race.)
func TestAllocsRegisterShared(t *testing.T) {
	for _, c := range []struct {
		name    string
		src     string
		opts    []plan.Option
		ceiling float64
	}{
		{"plain", monitorQuery, []plan.Option{plan.WithSharing()}, 5},
		{"template", keyedTemplate, []plan.Option{bindM("m042"), plan.WithSharing()}, 8},
	} {
		e := New()
		if _, err := e.RegisterText(c.src, c.opts...); err != nil {
			t.Fatal(err)
		}
		chains := len(e.chainsSnapshot())
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := e.RegisterText(c.src, c.opts...); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("shared %s RegisterText: measured %.0f allocs (ceiling %.0f)", c.name, allocs, c.ceiling)
		if allocs > c.ceiling {
			t.Errorf("shared %s RegisterText allocates %.0f, above the pinned ceiling %.0f", c.name, allocs, c.ceiling)
		}
		if got := len(e.chainsSnapshot()); got != chains {
			t.Errorf("shared %s registrations built chains: %d → %d", c.name, chains, got)
		}
	}
}

// TestAllocsOneShardPush pins the one-shard runtime's steady-state push at
// no more heap objects than the same items cost pushed straight into a
// bare monitor — what the runtime runs at n = 1, without the router,
// burst and delivery around it. In-order events with a CTI every eighth
// item are admitted (at Strong, buffered until the CTI), so the tagged
// path's per-buffered-event arrival-key copy would show here: nothing is
// merged at n = 1, so nothing may be tagged.
func TestAllocsOneShardPush(t *testing.T) {
	for _, spec := range []consistency.Spec{consistency.Middle(), consistency.Strong()} {
		mk := func() operators.Op { return operators.NewSelect(func(event.Payload) bool { return false }) }
		perRun := func(push func(event.Event)) float64 {
			at := temporal.Time(0)
			run := func() {
				for i := 0; i < 8; i++ {
					at++
					ev := event.NewInsert(event.ID(at), "E", at, at+5, nil)
					ev.C = temporal.From(at)
					push(ev)
				}
				push(event.NewCTI(at))
			}
			for i := 0; i < 512; i++ { // grow the log and buffers to steady capacity
				run()
			}
			return testing.AllocsPerRun(200, run)
		}
		m := consistency.NewMonitor(mk(), spec)
		plain := perRun(func(ev event.Event) { m.Push(0, ev) })
		sh, err := newSharded("test", 1, 0,
			func(int) []operators.Op { return []operators.Op{mk()} },
			spec, nil, discard{})
		if err != nil {
			t.Fatal(err)
		}
		got := perRun(func(ev event.Event) { sh.push(ev) })
		t.Logf("one-shard push at %s: measured %.1f allocs per 8 events + CTI (ceiling %.1f, a bare monitor)", spec.Name(), got, plain)
		if got > plain {
			t.Fatalf("one-shard push at %s allocates %.1f per run, above a bare monitor's %.1f", spec.Name(), got, plain)
		}
	}
}

// TestAllocsDurablePush pins what durability adds to a push: no heap
// object — the record is encoded once, into the journal's tail chunk, and
// the log copies those bytes into its buffer — and at most twice the
// record's encoded size in bytes, the journal's chunks growing by about
// that much. Keeping the decoded record cost ≈ 1.3 KiB per push.
func TestAllocsDurablePush(t *testing.T) {
	const warm, runs = 4096, 4096
	cost := func(e *Engine) (allocs, bytes float64) {
		defer e.Close()
		if _, err := e.RegisterText(idleQuery); err != nil {
			t.Fatal(err)
		}
		i := 0
		push := func() { e.Push(fleetItem(i)); i++ }
		for range warm { // grow the log's buffer to its steady capacity
			push()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs = testing.AllocsPerRun(runs, push)
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
	}
	plainAllocs, plainBytes := cost(New())
	allocs, bytes := cost(durableEngine(t, filepath.Join(t.TempDir(), "wal")))
	frame, err := wal.AppendRecord(nil, wal.Record{Seq: 1, Kind: wal.KindEvent, Ev: fleetItem(0)})
	if err != nil {
		t.Fatal(err)
	}
	extra := bytes - plainBytes
	t.Logf("durable push: measured %.0f allocs (ceiling %.0f, a non-durable push), %.1f B beyond a non-durable push (ceiling %d, twice the %d-B record)",
		allocs, plainAllocs, extra, 2*len(frame), len(frame))
	if allocs > plainAllocs {
		t.Errorf("a durable push allocates %.0f objects, a non-durable one %.0f: journaling allocates per record", allocs, plainAllocs)
	}
	if extra > float64(2*len(frame)) {
		t.Errorf("a durable push allocates %.1f B more than a non-durable one, above twice its %d-B encoding", extra, len(frame))
	}
}
