//go:build !race

package engine

import (
	"math"
	"path/filepath"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/consistency"
	"repro/internal/event"
	"repro/internal/operators"
	"repro/internal/plan"
	"repro/internal/temporal"
	"repro/internal/wal"
	"repro/internal/workload"
)

// TestAllocsRegisterPrivateChain pins what installing one private chain
// costs in heap objects: the engine, the Query and chain, the one-shard
// runtime (its struct and worker — no goroutines, channels or free
// lists), each stage's monitor, and the chain's entries in the
// routing index — the index's map (header and one group, made by the first
// typed registration) and one bucket slice per input TYPE, three here.
// Registration storms (a fabric of private chains re-registered every
// pass) pay this per chain. The plan is compiled once, outside the
// measurement, and handed to install, the fresh-chain half of register.
// (Skipped under -race: instrumentation changes allocation counts.)
func TestAllocsRegisterPrivateChain(t *testing.T) {
	p, err := plan.Compile(monitorQuery)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		New().install(p, plan.Key{})
	})
	const ceiling = 15.0 // measured 15: 10 for the chain (the runtime lives inside it) + 5 for the index (20 with a pointer per TYPE entry and an eagerly made map)
	t.Logf("New + one private-chain Register: measured %.0f allocs (ceiling %.0f)", allocs, ceiling)
	if allocs > ceiling {
		t.Fatalf("New + one private-chain Register allocates %.0f, above the pinned ceiling %.0f", allocs, ceiling)
	}
}

// appendCost fills a history with n items, a batch of items at a time, and
// returns it with the allocations and bytes that took.
func appendCost(items []event.Event, n uint64) (h history, allocs float64, bytes uint64) {
	fill := func() history {
		var h history
		var c historyCounters
		for h.n < n {
			h.append(items[:min(uint64(len(items)), n-h.n)], &c)
		}
		return h
	}
	allocs = testing.AllocsPerRun(20, func() { fill() })
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h = fill()
	runtime.ReadMemStats(&after)
	return h, allocs, after.TotalAlloc - before.TotalAlloc
}

// indexGrowth is how often an index of T grows while k chunks are
// appended to it, and the bytes its last array takes: its arrays sum to
// under twice that.
func indexGrowth[T any](k uint64) (growths int, last uint64) {
	var index []T
	for range k {
		if len(index) == cap(index) {
			growths++
		}
		index = append(index, *new(T))
	}
	return growths, uint64(cap(index)) * uint64(unsafe.Sizeof(*new(T)))
}

// TestAllocsHistoryAppend pins that a chain's history writes each data
// item once: n items, appended in batches that straddle chunk boundaries,
// cost one allocation per chunk — the first of firstLen items (512 B),
// then chunkLen each (4 KiB) — plus the chunk index's growth, and bytes
// for the chunks and the index alone — a flat slice re-copied on every
// doubling allocates about twice the items' bytes. (Skipped under -race.)
func TestAllocsHistoryAppend(t *testing.T) {
	const n, batch = firstLen + 10*chunkLen + 5, 7
	chunks := 1 + (n-firstLen+chunkLen-1)/chunkLen
	growths, index := indexGrowth[[]event.Event](chunks)
	h, allocs, bytes := appendCost(make([]event.Event, batch), n)
	// 1 KiB spare.
	ceiling, byteBound := float64(chunks)+float64(growths), 512+(chunks-1)*4096+2*index+1024
	t.Logf("history append of %d data items in batches of %d: measured %.0f allocs (ceiling %.0f: %d chunks + %d index growths), %d B (bound %d B)",
		n, batch, allocs, ceiling, chunks, growths, bytes, byteBound)
	if allocs > ceiling || bytes > byteBound || h.n != n || h.ns != 0 || uint64(len(h.data)) != chunks {
		t.Fatalf("%d items: %.0f allocs, %d B, %d chunks: the history re-copies what it wrote", h.n, allocs, bytes, len(h.data))
	}
}

// TestAllocsHistorySyncPoints pins what a history keeps of a sync point:
// n canonical sync points (what the monitor emits) cost one allocation per
// chunk of syncLen plus the index's growth, and at most 24 B each plus one
// chunk and the index — not a 120-B event slot. A chain of 2 detections
// and 76 sync points, one fabric-10k template chain's pass, holds 2,576 B
// (bound 2,780 B: 8% over): a 512-B first data chunk, two 1 KiB sync chunks
// and the two indexes (4,608 B while a sync chunk took 4 KiB, 12 KiB while
// every item took an event slot in 4 KiB chunks). (Skipped under -race.)
func TestAllocsHistorySyncPoints(t *testing.T) {
	cti := func(i int) event.Event {
		ev := event.NewCTI(temporal.Time(i))
		ev.C = temporal.From(temporal.Time(i + 1))
		return ev
	}
	const n, batch = 4*syncLen + 5, 7
	items := make([]event.Event, batch)
	for i := range items {
		items[i] = cti(i)
	}
	chunks := (n + syncLen - 1) / syncLen
	growths, index := indexGrowth[*[syncLen]syncPoint](chunks)
	h, allocs, bytes := appendCost(items, n)
	// 1 KiB spare.
	ceiling, byteBound := float64(chunks)+float64(growths), 24*n+uint64(unsafe.Sizeof(*new([syncLen]syncPoint)))+2*index+1024
	t.Logf("history append of %d sync points in batches of %d: measured %.0f allocs (ceiling %.0f: %d chunks + %d index growths), %d B (bound %d B)",
		n, batch, allocs, ceiling, chunks, growths, bytes, byteBound)
	if allocs > ceiling || bytes > byteBound || h.n != n || h.ns != n || len(h.data) != 0 {
		t.Fatalf("%d sync points: %.0f allocs, %d B, %d kept as data: a sync point costs more than its 24 B", h.n, allocs, bytes, h.n-h.ns)
	}

	// A template chain's pass, one output batch per input sync point; its
	// detections carry payloads made before the measurement.
	pass := make([][]event.Event, 76)
	for i := range pass {
		pass[i] = []event.Event{cti(i)}
		if i == 30 || i == 60 {
			pass[i] = append([]event.Event{event.NewInsert(event.ID(i), "Alert", temporal.Time(i), temporal.Infinity,
				event.Payload{"Machine_Id": "m001"})}, pass[i]...)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var chain history
	var c historyCounters
	for _, items := range pass {
		chain.append(items, &c)
	}
	runtime.ReadMemStats(&after)
	held := after.TotalAlloc - before.TotalAlloc
	const bound = 2_780 // measured 2,576 B
	t.Logf("a chain of %d detections and %d sync points: %d B (bound %d B)", chain.n-chain.ns, chain.ns, held, bound)
	if chain.n-chain.ns != 2 || chain.ns != 76 || held > bound {
		t.Fatalf("a chain of %d detections and %d sync points holds %d B, above %d B", chain.n-chain.ns, chain.ns, held, bound)
	}
}

// TestAllocsRegisterShared pins what a registration that attaches to a
// running chain costs: the registration record the options write into
// (it escapes through the option calls) and the Query. No plan is built —
// the sharing identity is a comparable plan.Key over the source text, the
// bindings' rendering and the spec — so no operator either: a matcher tree
// alone is dozens of objects, and registering through plan.Compile cost 46
// and 58. A template instance adds its bindings' rendering, which also
// keys the analysis cache. The chain count must not move. (Skipped under
// -race.)
func TestAllocsRegisterShared(t *testing.T) {
	for _, c := range []struct {
		name    string
		src     string
		opts    []plan.Option
		ceiling float64
	}{
		{"plain", monitorQuery, []plan.Option{plan.WithSharing()}, 2},
		{"template", keyedTemplate, []plan.Option{bindM("m042"), plan.WithSharing()}, 3},
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
// object and at most 8 B — the record is encoded once, into the log's
// write buffer, which the log reuses once it has written it out. Keeping
// the decoded record cost ≈ 1.3 KiB per push, and keeping its encoding
// 128 B.
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
	const ceiling = 8
	extra := bytes - plainBytes
	t.Logf("durable push: measured %.0f allocs (ceiling %.0f, a non-durable push), %.1f B beyond a non-durable push (ceiling %d)",
		allocs, plainAllocs, extra, ceiling)
	if allocs > plainAllocs {
		t.Errorf("a durable push allocates %.0f objects, a non-durable one %.0f: logging allocates per record", allocs, plainAllocs)
	}
	if extra > ceiling {
		t.Errorf("a durable push allocates %.1f B more than a non-durable one, above %d: the record is kept", extra, ceiling)
	}
}

// templateChainPass is one pass of a fabric's routed template chain: the
// fleet's machine m000 under keyedTemplate at Middle, fed that machine's
// cycles (seven, 21 events) and every sync point of the 64-machine fleet
// (one per ten minutes) on a fresh engine. It returns the bytes the pushes
// and the Finish allocated, with the journal's chunk pool drained first
// (two collections empty a sync.Pool), so every chunk is counted.
func templateChainPass(t *testing.T, items []event.Event) uint64 {
	t.Helper()
	e := New()
	defer e.Close()
	if _, err := e.RegisterText(keyedTemplate, bindM("m000"), plan.WithSpec(consistency.Middle())); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, ev := range items {
		e.Push(ev)
	}
	e.Finish()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestAllocsTemplateChainPass pins the bytes one small routed chain
// allocates per pass — what a fabric of thousands of template chains pays
// once per chain. Most of it is what the matcher keeps to repair with: its
// undo journal (56-B records in 32-record chunks, counted here with the
// chunk pool empty), its interning maps (made empty, never pre-sized for
// 64 entries) and its records and composites (emptied at each sync point).
// It measured 34,608 B (37,272 B while every match carried its own copy of
// its key and payload id, 39,584 B with a doubling record slice and the
// record cache kept, 47,616 B with 64-B records, maps pre-sized for 64 and
// composites kept until 4,096); the bound leaves 8%. (Skipped under -race.)
func TestAllocsTemplateChainPass(t *testing.T) {
	cfg := workload.DefaultMachines()
	cfg.Seed, cfg.Machines, cfg.Cycles = 3, 64, 7
	fleet, _ := workload.MachineEvents(cfg)
	var items []event.Event
	sync := temporal.Time(0)
	for _, ev := range fleet {
		for ; sync <= ev.V.Start; sync += temporal.Time(10 * temporal.Minute) {
			items = append(items, event.NewCTI(sync))
		}
		if ev.Payload["Machine_Id"] == workload.MachineID(0) {
			items = append(items, ev)
		}
	}
	items = append(items, event.NewCTI(sync))
	held := templateChainPass(t, items)
	for range 4 { // the least of five passes: a collection or a stray goroutine only adds
		held = min(held, templateChainPass(t, items))
	}
	const bound = 37_400
	t.Logf("one pass of a routed template chain over %d items (one machine's cycles, every sync point) held %d B (bound %d B)", len(items), held, bound)
	if held > bound {
		t.Fatalf("a routed template chain pass allocates %d B, above the bound %d B: the matcher's journal or caches grew", held, bound)
	}
}

// TestRegisterRefusesAFullList: an endpoint keeps its query id as an
// int32, so a registration is refused once the registration list holds
// math.MaxInt32 entries, before it is logged or changes anything. The full
// list is a slice of that length over the one real entry, of which
// register reads only the length. (Skipped under -race, whose pointer
// checks refuse such a slice.)
func TestRegisterRefusesAFullList(t *testing.T) {
	log, err := wal.Open(filepath.Join(t.TempDir(), "full.wal"))
	if err != nil {
		t.Fatal(err)
	}
	e, err := Restore(nil, log)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.RegisterText(monitorQuery); err != nil {
		t.Fatal(err)
	}
	real, seq := e.queries, e.seq
	e.queries = unsafe.Slice(&real[0], math.MaxInt32)
	_, err = e.RegisterText(monitorQuery, plan.WithSharing())
	full := len(e.queries)
	e.queries = real
	t.Logf("registering into a list of %d: %v", full, err)
	if err == nil || full != math.MaxInt32 || e.seq != seq || e.live != 1 || len(e.chainsSnapshot()) != 1 {
		t.Fatalf("a full registration list: err %v, %d entries, seq %d → %d, %d live, %d chains",
			err, full, seq, e.seq, e.live, len(e.chainsSnapshot()))
	}
}

// TestAllocsMiddleEchoSteadyState pins what a Middle Echo chain allocates
// per push, with a sync point after every 16: the event's record, which
// holds its leaf match, and growth amortized over the chunks of the
// history and the matcher's journal. The output's lineage is copied once,
// into the history's chunk, and its net fact is one the last checkpoint
// finalized; a copy of the lineage at every emission and a new fact per
// output made it 3 (the record, the lineage, the fact). Payloads repeat, so
// the matcher's table shares them. The ceiling is the reading: 1.00.
// (Skipped under -race.)
func TestAllocsMiddleEchoSteadyState(t *testing.T) {
	e := New()
	if _, err := e.RegisterText(`EVENT Echo WHEN INSTALL h`, plan.WithSpec(consistency.Middle())); err != nil {
		t.Fatal(err)
	}
	payloads := []event.Payload{{"Machine_Id": "m001"}, {"Machine_Id": "m002"}, {"Machine_Id": "m003"}}
	i := 0
	run := func() {
		for range 16 {
			i++
			e.Push(event.NewInsert(event.ID(i), "INSTALL", temporal.Time(i), temporal.Infinity, payloads[i%3]))
		}
		e.Push(event.NewCTI(temporal.Time(i)))
	}
	for range 64 { // grow the log, the journal and the free list to their steady capacity
		run()
	}
	const ceiling = 1.0
	perPush := testing.AllocsPerRun(400, run) / 16
	t.Logf("a Middle Echo chain with a sync point every 16 pushes: measured %.2f allocs/push (ceiling %.2f)", perPush, ceiling)
	if perPush > ceiling {
		t.Fatalf("a Middle Echo push allocates %.2f objects, above %.2f: the output path copies a lineage or makes a fact again", perPush, ceiling)
	}
	e.Finish()
}

// TestHistoryRetainsLineageNotMatches: a finished §3.1 chain over the fleet
// stream, with a subscriber that kept every event, holds per detection its
// history's share and the subscriber's, whose lineage is the history's
// copy: nothing pins the 240-B block the matcher built a composite and its
// re-headed form in, which an output that shared the matcher's lineage
// would. The bound is the reading while every emission made its own copy
// of the lineage, plus 5%. (Skipped under -race.)
func TestHistoryRetainsLineageNotMatches(t *testing.T) {
	cfg := workload.DefaultMachines()
	cfg.Seed, cfg.Machines, cfg.Cycles = 3, 64, 10
	fleet, _ := workload.MachineEvents(cfg)
	var items []event.Event
	sync := temporal.Time(0)
	for _, ev := range fleet {
		for ; sync <= ev.V.Start; sync += temporal.Time(10 * temporal.Minute) {
			items = append(items, event.NewCTI(sync))
		}
		items = append(items, ev)
	}
	if _, err := plan.Prepare(monitorQuery); err != nil { // warm the analysis cache, which outlives any engine
		t.Fatal(err)
	}
	var kept []event.Event
	held := heldBy(t, func() *Engine {
		e := New()
		q, err := e.RegisterText(monitorQuery, plan.WithSpec(consistency.Middle()))
		if err != nil {
			t.Fatal(err)
		}
		subscribe(q, func(ev event.Event) { kept = append(kept, ev) })
		for _, ev := range items {
			e.Push(ev)
		}
		e.Finish()
		return e
	})
	detections := 0
	for _, ev := range kept {
		if ev.Kind == event.Insert {
			detections++
		}
	}
	perDetection := float64(held) / float64(detections)
	const bound = 630 // 600 B while every emission copied its lineage, + 5%
	t.Logf("a finished §3.1 chain with %d detections and a subscriber that kept its %d events: %.0f B a detection, held %d B (bound %d B)",
		detections, len(kept), perDetection, held, bound*detections)
	if detections < 100 || perDetection > bound {
		t.Fatalf("%d detections held %.0f B each, above %d B: an output pins the matcher's block", detections, perDetection, bound)
	}
	runtime.KeepAlive(items) // live across heldBy's base reading, so live after it
}
