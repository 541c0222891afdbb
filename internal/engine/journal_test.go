// A durable engine keeps no copy of its log: each record is encoded once,
// into the log's write buffer, never kept decoded, and a snapshot's body is
// the log file verbatim, read back from the file.
package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"unsafe"
	"weak"

	"repro/internal/consistency"
	"repro/internal/delivery"
	"repro/internal/event"
	"repro/internal/leakcheck"
	"repro/internal/operators"
	"repro/internal/plan"
	"repro/internal/stream"
	"repro/internal/temporal"
	"repro/internal/wal"
	"repro/internal/workload"
)

// idleQuery is a stateless query no fleet item matches: a durable engine
// running it holds little beyond its log's write buffer.
const idleQuery = `EVENT Idle WHEN RESTART r`

// fleetItem is the i-th item of a fleet-shaped stream: an INSTALL by one
// of 192 machines, or, every 64th item, a sync point.
func fleetItem(i int) event.Event {
	if i%64 == 63 {
		return event.NewCTI(temporal.Time(i))
	}
	return event.NewInsert(event.ID(i+1), "INSTALL", temporal.Time(i), temporal.Infinity,
		event.Payload{"Machine_Id": fmt.Sprintf("m%03d", i%192)})
}

// journalItems is how many fleet items the retention tests push.
const journalItems = 20_000

// liveHeap is the heap in use after a full collection.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// heldBy is how much the live heap grows while build runs, with the
// engine it returns still reachable; the engine is closed afterwards.
func heldBy(t *testing.T, build func() *Engine) int64 {
	t.Helper()
	base := liveHeap()
	e := build()
	held := liveHeap() - base
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	return held
}

// idleEngine registers idleQuery on e and pushes n fleet items, each
// generated as it is pushed, so only what e keeps outlives its push.
func idleEngine(t *testing.T, e *Engine, n int) *Engine {
	t.Helper()
	if _, err := e.RegisterText(idleQuery); err != nil {
		t.Fatal(err)
	}
	for i := range n {
		e.Push(fleetItem(i))
	}
	return e
}

// durableEngine is an engine born on a fresh log at path.
func durableEngine(t *testing.T, path string) *Engine {
	t.Helper()
	log, err := wal.Open(path, wal.SyncEvery(-1))
	if err != nil {
		t.Fatal(err)
	}
	e, err := Restore(nil, log)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// journalBound is what a durable engine may hold beyond a non-durable
// twin, whatever the number of records: the log's write buffer at its
// largest kept capacity (128 KiB) and 4 KiB more.
const journalBound = 128<<10 + 4<<10

// checkJournalHeld fails unless a durable engine over n fleet items, built
// by durable(n), holds at most journalBound beyond a non-durable twin fed
// the same items, at journalItems and at twice as many: what it holds
// stays flat as its log grows.
func checkJournalHeld(t *testing.T, what string, durable func(n int) int64) {
	t.Helper()
	for _, n := range []int{journalItems, 2 * journalItems} {
		twin := heldBy(t, func() *Engine { return idleEngine(t, New(), n) })
		held := durable(n) - twin
		t.Logf("%s, beyond its non-durable twin over %d items, held %d B (bound %d B)", what, n, held, journalBound)
		if held > journalBound {
			t.Fatalf("%s holds %d B beyond a non-durable engine over %d items (%.0f B each), above %d: it keeps a copy of its log",
				what, held, n, float64(held)/float64(n), journalBound)
		}
	}
}

// TestDurableJournalRetainsEncodedBytes: a durable engine keeps nothing of
// the records it pushed — not the decoded record and the payload map it
// pins (≈ 630 B per fleet record), nor its encoding (124 B) — beyond the
// log's write buffer.
func TestDurableJournalRetainsEncodedBytes(t *testing.T) {
	defer leakcheck.Check(t)()
	checkJournalHeld(t, "a durable engine", func(n int) int64 {
		path := filepath.Join(t.TempDir(), "wal")
		return heldBy(t, func() *Engine { return idleEngine(t, durableEngine(t, path), n) })
	})
}

// TestRestoreKeepsNoDecodedRecords: an engine restored from a log drops
// the log's bytes once it has replayed them, and neither it nor the log
// keeps a decoded record.
func TestRestoreKeepsNoDecodedRecords(t *testing.T) {
	defer leakcheck.Check(t)()
	checkJournalHeld(t, "a restored engine", func(n int) int64 {
		path := filepath.Join(t.TempDir(), "wal")
		if err := idleEngine(t, durableEngine(t, path), n).Close(); err != nil {
			t.Fatal(err)
		}
		return heldBy(t, func() *Engine { return durableEngine(t, path) })
	})
}

// TestRestoreRetainsExactSnapshot: an engine restored from a snapshot keeps
// the snapshot's records (Engine.base), at 20k and 30k records, in an array
// of exactly their size, whatever the reader — an in-memory reader, a file,
// one that states no size. io.ReadAll's growth slack held 2.75 / 4.32 MB
// arrays for 2.47 / 3.71 MB of records.
func TestRestoreRetainsExactSnapshot(t *testing.T) {
	defer leakcheck.Check(t)()
	for _, n := range []int{journalItems, 30_000} {
		e := idleEngine(t, durableEngine(t, filepath.Join(t.TempDir(), "wal")), n)
		snap := snapshotOf(t, e)
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "snap")
		if err := os.WriteFile(path, snap, 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		records := len(snap) - snapHead - len(wal.Magic)
		for _, src := range []struct {
			what string
			r    io.Reader
		}{
			{"an in-memory", bytes.NewReader(snap)},
			{"a file", f},
			{"an unsized", io.MultiReader(bytes.NewReader(snap))},
		} {
			log, err := wal.New(new(memFile))
			if err != nil {
				t.Fatal(err)
			}
			e, err := Restore(src.r, log)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s snapshot of %d records: base held %d B (bound %d B)", src.what, n, cap(e.base), records)
			if len(e.base) != records || cap(e.base) > records {
				t.Errorf("%s snapshot of %d B of records restores a %d-B base in a %d-B array", src.what, records, len(e.base), cap(e.base))
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
		}
		f.Close()
	}
}

// TestFinishedChainRetainsOnlyItsHistory: once finished, a chain's output
// guarantee is ∞ and nothing a repair could read is needed, so the engine
// holds its history and at most 16 KiB more. Q at Middle over fleet items
// (INSTALLs only) keeps every one in its matcher until Finish; while the
// matcher's undo journal kept the Advance(∞) reset record, that whole
// pre-reset tree stayed reachable after Finish (5.6 MB), and while the
// chain's plan and the finished monitor still referenced the matcher it
// held 33 KB beyond the history.
func TestFinishedChainRetainsOnlyItsHistory(t *testing.T) {
	defer leakcheck.Check(t)()
	// Warm the analysis cache, which outlives any one engine.
	if _, err := plan.Prepare(monitorQuery); err != nil {
		t.Fatal(err)
	}
	var own int64
	held := heldBy(t, func() *Engine {
		e := New()
		q, err := e.RegisterText(monitorQuery)
		if err != nil {
			t.Fatal(err)
		}
		for i := range journalItems {
			e.Push(fleetItem(i))
		}
		e.Finish()
		own = historyBytes(q.ch)
		return e
	})
	bound := own + 16<<10
	t.Logf("a finished Middle chain over %d items, its history %d B, held %d B (bound %d B)", journalItems, own, held, bound)
	if held > bound {
		t.Fatalf("a finished chain holds %d B, above its history's %d B + 16 KiB: repair state outlives Finish", held, own)
	}
}

// TestSpentChainRetainsOnlyItsHistory: a chain that can take no more input
// — finished, torn down by its last endpoint's Unregister, or quarantined
// by a panicking operator and then finished — holds its history and
// nothing of its matcher: every shard's head operator is collected, and
// the engine holds at most the history — its chunks, their index and the
// output payload maps they refer to — and 16 KiB more. The §3.1 query and a twin with an
// OUTPUT clause (whose map stages outlive the head) run at Middle over a
// disordered machine stream with sync points, so the matcher holds
// composites and the monitor repair state when it stops; the twin also
// runs at Strong over the stream without sync points, so Finish releases
// every output in one call, through buffers a spent chain must not keep.
func TestSpentChainRetainsOnlyItsHistory(t *testing.T) {
	defer leakcheck.Check(t)()
	src, _ := workload.MachineEvents(workload.Machines{
		Seed: 3, Machines: 64, Cycles: 10,
		RestartDeadline: 5 * temporal.Minute, MissProb: 0.3, CycleGap: 30 * temporal.Minute,
	})
	synced := delivery.Deliver(src, delivery.Disordered(3, temporal.Minute, 10*temporal.Minute, 0.2))
	var unsynced stream.Stream
	for _, ev := range synced {
		if !ev.IsCTI() {
			unsynced = append(unsynced, ev)
		}
	}
	// payloadBytes is what the history's own share of an output payload
	// map may take: the alert's interned composite payload or the OUTPUT
	// clause's projection, ≈360–490 B each here.
	const payloadBytes = 512
	for _, c := range []struct {
		query string
		spec  consistency.Spec
		in    stream.Stream
	}{
		{monitorQuery, consistency.Middle(), synced},
		{pairsQuery, consistency.Middle(), synced},
		{pairsQuery, consistency.Strong(), unsynced},
	} {
		// Warm the analysis cache, which outlives any one engine.
		p, err := plan.Compile(c.query)
		if err != nil {
			t.Fatal(err)
		}
		for _, end := range []string{"finish", "unregister", "quarantine"} {
			for _, shards := range []int{1, 4} {
				for _, endpoints := range []int{1, 2} {
					name := fmt.Sprintf("%s/%s/%s/shards=%d/endpoints=%d", p.Name, c.spec.Name(), end, shards, endpoints)
					t.Run(name, func(t *testing.T) {
						var own int64
						var payloads int
						held := heldBy(t, func() *Engine {
							e := New()
							var qs []*Query
							for range endpoints {
								opts := []plan.Option{plan.WithShards(shards), plan.WithSpec(c.spec)}
								if endpoints > 1 {
									opts = append(opts, plan.WithSharing())
								}
								q, err := e.RegisterText(c.query, opts...)
								if err != nil {
									t.Fatal(err)
								}
								qs = append(qs, q)
							}
							q := qs[0]
							if q.Shards() != shards || qs[len(qs)-1].ch != q.ch {
								t.Fatalf("%d endpoints on %d shards, want one chain on %d", len(qs), q.Shards(), shards)
							}
							if end == "quarantine" {
								armOperatorPanic(t, q, 100)
							}
							alive := headProbes(q)
							for _, ev := range c.in {
								e.Push(ev)
							}
							if end == "unregister" {
								for _, q := range qs {
									q.Unregister()
								}
							} else {
								e.Finish()
							}
							if (end == "quarantine") != (q.Err() != nil) {
								t.Fatalf("quarantined: %v", q.Err())
							}
							// A stopped head keeps its counters (read here on
							// the caller's goroutine, stopped on a worker's).
							if met := q.Metrics(); met[0].InputEvents == 0 {
								t.Fatalf("a spent chain's metrics read %+v", met[0])
							}
							runtime.GC()
							runtime.GC()
							for i, alive := range alive {
								if alive() {
									t.Errorf("shard %d's head operator is still reachable", i)
								}
							}
							maps := map[uintptr]bool{}
							for _, ev := range q.ch.history.window(0, q.ch.pos()) {
								if !ev.IsCTI() {
									maps[reflect.ValueOf(ev.Payload).Pointer()] = true
								}
							}
							payloads = len(maps)
							own = historyBytes(q.ch) + int64(payloads)*payloadBytes
							return e
						})
						bound := own + 16<<10
						t.Logf("%s: history %d B with %d output payloads, held %d B (bound %d B)", name, own, payloads, held, bound)
						if held > bound {
							t.Fatalf("a spent chain holds %d B, above its history's %d B + 16 KiB", held, own)
						}
					})
				}
			}
		}
	}
}

// TestLastUnregisterComputesNothing: tearing a chain down stops it
// instead of finishing it. A Strong chain without sync points holds all its
// output until Finish; when its last endpoint unregisters, no shard's head
// operator is advanced to ∞ and no output is computed — Metrics'
// OutputInserts is what it was before the teardown. A twin that finishes
// instead advances every shard's head once and emits, which shows the
// counter counts.
func TestLastUnregisterComputesNothing(t *testing.T) {
	p, err := plan.Compile(pairsQuery)
	if err != nil {
		t.Fatal(err)
	}
	src, _ := workload.MachineEvents(workload.Machines{
		Seed: 3, Machines: 16, Cycles: 4,
		RestartDeadline: 5 * temporal.Minute, MissProb: 0.3, CycleGap: 30 * temporal.Minute,
	})
	for _, shards := range []int{1, 4} {
		for _, end := range []string{"unregister", "finish"} {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, end), func(t *testing.T) {
				defer leakcheck.Check(t)()
				e := New()
				q, err := e.RegisterText(pairsQuery, plan.WithShards(shards), plan.WithSpec(consistency.Strong()))
				if err != nil {
					t.Fatal(err)
				}
				if q.Shards() != shards {
					t.Fatalf("runs on %d shards, want %d", q.Shards(), shards)
				}
				var finishes atomic.Int64
				for i := range q.ch.sh.workers {
					var op operators.Op = finishCounter{Op: p.Fresh().Stages[0], finishes: &finishes}
					if shards > 1 {
						op = ownKeys(op, RouteByAttr(q.ch.plan.Part.Attr, shards), i)
					}
					q.ch.sh.workers[i].head = consistency.NewMonitor(op, q.ch.plan.Spec)
				}
				for _, ev := range src {
					e.Push(ev)
				}
				e.Drain()
				before := q.Metrics()[0]
				if before.InputEvents == 0 || q.Len() != 0 {
					t.Fatalf("before the end: %d inputs, %d outputs; want input held back", before.InputEvents, q.Len())
				}
				if end == "unregister" {
					q.Unregister()
				} else {
					e.Finish()
				}
				after := q.Metrics()[0]
				t.Logf("%s: %d Advance(∞) calls, OutputInserts %d → %d", end, finishes.Load(), before.OutputInserts, after.OutputInserts)
				switch {
				case end == "unregister" && (finishes.Load() != 0 || after.OutputInserts != before.OutputInserts):
					t.Fatalf("the last Unregister advanced the heads to ∞ %d times and computed %d outputs for nobody",
						finishes.Load(), after.OutputInserts-before.OutputInserts)
				case end == "finish" && (finishes.Load() != int64(shards) || after.OutputInserts == before.OutputInserts):
					t.Fatalf("Finish advanced the heads to ∞ %d times (want %d) and emitted %d outputs",
						finishes.Load(), shards, after.OutputInserts-before.OutputInserts)
				}
			})
		}
	}
}

// finishCounter counts its operator's advances to ∞ (clones share the
// count).
type finishCounter struct {
	operators.Op
	finishes *atomic.Int64
}

func (c finishCounter) Advance(t temporal.Time) []event.Event {
	if t.IsInfinite() {
		c.finishes.Add(1)
	}
	return c.Op.Advance(t)
}

func (c finishCounter) Clone() operators.Op { return finishCounter{c.Op.Clone(), c.finishes} }

func (c finishCounter) AppendAdvanceKey(dst []byte, e event.Event) []byte {
	return c.Op.(operators.AdvanceOrdered).AppendAdvanceKey(dst, e)
}

// historyBytes is what ch's history takes: its data chunks, its sync
// chunks and their two indexes.
func historyBytes(ch *chain) int64 {
	h := ch.history
	b := int64(len(h.syncs))*int64(unsafe.Sizeof(*h.syncs[0])) +
		int64(cap(h.syncs))*int64(unsafe.Sizeof(h.syncs[0])) + int64(cap(h.data))*int64(unsafe.Sizeof(h.data[0]))
	for _, c := range h.data {
		b += int64(cap(c)) * int64(unsafe.Sizeof(c[0]))
	}
	return b
}

// headProbes returns, for each shard of q's chain, a probe that reports
// whether the operator its head monitor runs is still reachable. It reads
// the monitor's unexported win.op field by reflection and unwraps ownKeys, so
// each probe watches the instance the plan built for its shard (or the one
// armOperatorPanic put in its place), whatever else refers to it.
func headProbes(q *Query) []func() bool {
	var probes []func() bool
	for i := range q.ch.sh.workers {
		f := reflect.ValueOf(q.ch.sh.workers[i].head).Elem().FieldByName("win").FieldByName("op")
		op := reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem().Interface()
		if k, ok := op.(*ownedKeys); ok {
			op = k.Versioned
		}
		wp := weak.Make((*byte)(reflect.ValueOf(op).UnsafePointer()))
		probes = append(probes, func() bool { return wp.Value() != nil })
	}
	return probes
}

// TestRunningChainRetainsSlotsNotPayloads: a running chain's history grows
// by one slot per output and by next to nothing else — the output carries
// the payload map the matcher interned, of which the fleet has 192, not a
// copy of it. An unfinished Echo chain is measured at 20k and 40k items;
// the growth between, less the history's chunks, is divided by the outputs
// added (≈339 B an output while every output copied its payload).
func TestRunningChainRetainsSlotsNotPayloads(t *testing.T) {
	defer leakcheck.Check(t)()
	const echo = `EVENT Echo WHEN INSTALL h`
	slot := int64(unsafe.Sizeof(event.Event{}))
	// beyond is what the chain holds beyond its history's chunks after n
	// items, and how many outputs it holds.
	beyond := func(n int) (held int64, outs int) {
		var own int64
		held = heldBy(t, func() *Engine {
			e := New()
			q, err := e.RegisterText(echo)
			if err != nil {
				t.Fatal(err)
			}
			for i := range n {
				e.Push(fleetItem(i))
			}
			outs = q.Len()
			own = historyBytes(q.ch)
			return e
		})
		return held - own, outs
	}
	beyond(1000) // warm the analysis cache, which outlives any one engine
	held20, outs20 := beyond(journalItems)
	held40, outs40 := beyond(2 * journalItems)
	per := float64(held40-held20) / float64(outs40-outs20)
	const bound = 32
	t.Logf("a running Echo chain grows %.1f B per output beyond its %d-B slot: held %d B (bound %d B) over %d outputs",
		per, slot, held40-held20, bound*(outs40-outs20), outs40-outs20)
	if per > bound {
		t.Fatalf("a running chain grows %.1f B per output beyond its history slot, above %d B: outputs copy what they could share", per, bound)
	}
}

// driveEveryKind drives e through every record kind: a sharded private
// registration and a shared template instance (bindings in its register
// record), the durability workload with a consistency switch and an
// unregistration halfway, then finish.
func driveEveryKind(t testing.TB, e *Engine, in stream.Stream) {
	t.Helper()
	q, err := e.RegisterText(monitorQuery, plan.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	tq, err := e.RegisterText(keyedTemplate, bindM("m001"), plan.WithSharing())
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range in {
		if i == len(in)/2 {
			q.SetSpec(consistency.Strong())
			tq.Unregister()
		}
		e.Push(ev)
	}
	e.Finish()
}

// snapshotOf returns e's snapshot.
func snapshotOf(t *testing.T, e *Engine) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := e.Snapshot(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// snapHead is a snapshot's length before its body: header and watermark.
const snapHead = len(snapMagic) + 8

// TestSnapshotBodyIsTheLog: a snapshot's body is the log's bytes. An
// engine born on an empty log snapshots its log file; after rotation the
// next snapshot is the old body followed by the fresh log's records;
// restoring a snapshot over its own log re-snapshots byte for byte; and a
// snapshot an earlier build wrote (testdata) restores and re-snapshots to
// itself.
func TestSnapshotBodyIsTheLog(t *testing.T) {
	defer leakcheck.Check(t)()
	in := durabilityWorkload()
	half := len(in) / 2
	dir := t.TempDir()
	open := func(name string) (*wal.Log, string) {
		path := filepath.Join(dir, name)
		log, err := wal.Open(path, wal.SyncEvery(4))
		if err != nil {
			t.Fatal(err)
		}
		return log, path
	}
	restore := func(snap []byte, log *wal.Log) *Engine {
		var r io.Reader
		if snap != nil {
			r = bytes.NewReader(snap)
		}
		e, err := Restore(r, log)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	fileOf := func(path string) []byte {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	log1, path1 := open("full.wal")
	e1 := restore(nil, log1)
	if _, err := e1.RegisterText(monitorQuery, plan.WithShards(2)); err != nil {
		t.Fatal(err)
	}
	for _, ev := range in[:half] {
		e1.Push(ev)
	}
	mid := snapshotOf(t, e1)
	if body := mid[snapHead:]; !bytes.Equal(body, fileOf(path1)) {
		t.Fatalf("mid-stream snapshot body (%d B) is not the log file (%d B)", len(body), len(fileOf(path1)))
	}
	for _, ev := range in[half:] {
		e1.Push(ev)
	}
	e1.Finish()
	end := snapshotOf(t, e1)
	if body := end[snapHead:]; !bytes.Equal(body, fileOf(path1)) {
		t.Fatal("final snapshot body is not the log file")
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	// Rotation: the next snapshot is the old body, then the fresh log's
	// records.
	log2, path2 := open("rotated.wal")
	e2 := restore(mid, log2)
	for _, ev := range in[half:] {
		e2.Push(ev)
	}
	e2.Finish()
	rotated := snapshotOf(t, e2)
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
	want := append(append([]byte(nil), mid[snapHead:]...), fileOf(path2)[len(wal.Magic):]...)
	if !bytes.Equal(rotated[snapHead:], want) {
		t.Fatal("snapshot after rotation is not the old body followed by the fresh log's records")
	}
	if !bytes.Equal(rotated, end) {
		t.Fatal("snapshot after rotation differs from the unrotated engine's")
	}

	// A snapshot over its own log — mid-stream or final — re-snapshots as
	// the engine that wrote the log would.
	for _, snap := range [][]byte{mid, end} {
		log3, _ := open("full.wal")
		e3 := restore(snap, log3)
		if got := snapshotOf(t, e3); !bytes.Equal(got, end) {
			t.Fatalf("restore over the original log re-snapshots %d B, want the final %d B", len(got), len(end))
		}
		if err := e3.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// A snapshot written by the previous build (decoded-record journal,
	// re-framed per snapshot) of driveEveryKind's run: it restores to that
	// run's results and re-snapshots to itself.
	old := fileOf(filepath.Join("testdata", "every-kind.snap"))
	log4, _ := open("old.wal")
	e4 := restore(old, log4)
	if got := snapshotOf(t, e4); !bytes.Equal(got, old) {
		t.Fatalf("committed snapshot re-snapshots to %d B, not its own %d B", len(got), len(old))
	}
	live := New()
	driveEveryKind(t, live, in)
	if n, m := len(e4.snapshot()), len(live.snapshot()); n != m {
		t.Fatalf("committed snapshot restores %d registrations, want %d", n, m)
	}
	for i, q := range e4.snapshot() {
		compareStreams(t, fmt.Sprintf("committed snapshot, query %d", i), q.Results(), live.snapshot()[i].Results())
	}
	live.shutdownQueries()
	if err := e4.Close(); err != nil {
		t.Fatal(err)
	}
}

// memFile is an in-memory wal.File.
type memFile struct {
	b   []byte
	off int64
}

func (f *memFile) Read(p []byte) (int, error) {
	if f.off >= int64(len(f.b)) {
		return 0, io.EOF
	}
	n := copy(p, f.b[f.off:])
	f.off += int64(n)
	return n, nil
}

func (f *memFile) Write(p []byte) (int, error) {
	f.b = append(f.b[:f.off], p...)
	f.off += int64(len(p))
	return len(p), nil
}

func (f *memFile) Seek(off int64, whence int) (int64, error) {
	switch whence {
	case io.SeekCurrent:
		off += f.off
	case io.SeekEnd:
		off += int64(len(f.b))
	}
	f.off = off
	return off, nil
}

func (f *memFile) Truncate(size int64) error { f.b = f.b[:size]; return nil }
func (f *memFile) Sync() error               { return nil }
func (f *memFile) Close() error              { return nil }

// faultyFile is a memFile whose Seek or Read fails on the failSeek-th or
// failRead-th call from when the count is set (0: never).
type faultyFile struct {
	memFile
	failSeek, failRead int
}

var errInjected = errors.New("injected fault")

// fails counts one call down and reports whether it is the one to fail.
func fails(n *int) bool {
	if *n == 0 {
		return false
	}
	*n--
	return *n == 0
}

func (f *faultyFile) Seek(off int64, whence int) (int64, error) {
	if fails(&f.failSeek) {
		return 0, errInjected
	}
	return f.memFile.Seek(off, whence)
}

func (f *faultyFile) Read(p []byte) (int, error) {
	if fails(&f.failRead) {
		return 0, errInjected
	}
	return f.memFile.Read(p)
}

// failingWriter takes n bytes, then fails.
type failingWriter struct{ n int }

func (w *failingWriter) Write(p []byte) (int, error) {
	n := min(len(p), w.n)
	if w.n -= n; n < len(p) {
		return n, errInjected
	}
	return n, nil
}

// TestSnapshotReadFailures: a snapshot reads its body back from the log
// file, so the file can fail it. A failed seek or read of the log, or a
// failed write to the snapshot's writer, fails only that snapshot: the
// engine takes input afterwards, appended where it belongs — its log file
// ends up byte-identical to a twin's that never failed — and snapshots
// its log file. A log that cannot seek back to its end does not know
// where to append, so the engine fails stop: Err reports it and later
// input is dropped. A closed engine refuses to snapshot.
func TestSnapshotReadFailures(t *testing.T) {
	defer leakcheck.Check(t)()
	in := durabilityWorkload()
	half := len(in) / 2
	for _, c := range []struct {
		name               string
		failSeek, failRead int
		failWrite          bool
		failStop           bool
	}{
		{name: "seek to note the end", failSeek: 1},
		{name: "seek to the first record", failSeek: 2},
		{name: "read", failRead: 1},
		{name: "write", failWrite: true},
		{name: "seek back to the end", failSeek: 3, failStop: true},
	} {
		t.Run(c.name, func(t *testing.T) {
			start := func(f wal.File) (*Engine, *wal.Log, *Query) {
				log, err := wal.New(f, wal.SyncEvery(4))
				if err != nil {
					t.Fatal(err)
				}
				e, err := Restore(nil, log)
				if err != nil {
					t.Fatal(err)
				}
				q, err := e.RegisterText(monitorQuery)
				if err != nil {
					t.Fatal(err)
				}
				for _, ev := range in[:half] {
					e.Push(ev)
				}
				return e, log, q
			}
			f := new(faultyFile)
			e, log, q := start(f)
			defer e.Close()
			f.failSeek, f.failRead = c.failSeek, c.failRead
			var w io.Writer = io.Discard
			if c.failWrite {
				w = &failingWriter{n: snapHead + len(wal.Magic) + 100}
			}
			if err := e.Snapshot(w); !errors.Is(err, errInjected) {
				t.Fatalf("snapshot returned %v, want the injected fault", err)
			}
			if f.failSeek != 0 || f.failRead != 0 {
				t.Fatalf("the snapshot never reached the injected fault (%d seeks, %d reads to go)", f.failSeek, f.failRead)
			}
			seq, outs := log.LastSeq(), q.Len()
			for _, ev := range in[half:] {
				e.Push(ev)
			}
			if c.failStop {
				if err := e.Err(); !errors.Is(err, errInjected) {
					t.Fatalf("Err is %v after the log lost its end, want the injected fault", err)
				}
				if log.LastSeq() != seq || q.Len() != outs {
					t.Fatalf("input after the failure was logged (seq %d → %d) or processed (%d → %d outputs)", seq, log.LastSeq(), outs, q.Len())
				}
				if err := e.Snapshot(io.Discard); err == nil {
					t.Fatal("a failed engine snapshots")
				}
				return
			}
			if err := e.Err(); err != nil {
				t.Fatalf("a failed snapshot failed the engine: %v", err)
			}
			twinFile := new(memFile)
			twin, _, _ := start(twinFile)
			for _, ev := range in[half:] {
				twin.Push(ev)
			}
			if err := twin.Close(); err != nil {
				t.Fatal(err)
			}
			if err := log.Sync(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(f.b, twinFile.b) {
				t.Fatalf("after a failed snapshot the log file holds %d B (%d records), a twin's that never failed %d B",
					len(f.b), log.LastSeq(), len(twinFile.b))
			}
			if body := snapshotOf(t, e)[snapHead:]; !bytes.Equal(body, f.b) {
				t.Fatalf("the next snapshot's body (%d B) is not the log file (%d B)", len(body), len(f.b))
			}
		})
	}
	t.Run("closed", func(t *testing.T) {
		e := idleEngine(t, durableEngine(t, filepath.Join(t.TempDir(), "wal")), 100)
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := e.Snapshot(&b); err == nil || b.Len() != 0 {
			t.Fatalf("a closed engine snapshots: wrote %d B, err %v", b.Len(), err)
		}
	})
}

// TestSnapshotsBetweenPushes: snapshots taken between pushes each read the
// log file as it stands, and appending resumes at the file's end, so every
// snapshot's body is the file and the final log restores to the same
// results and the same snapshot.
func TestSnapshotsBetweenPushes(t *testing.T) {
	defer leakcheck.Check(t)()
	in := durabilityWorkload()
	path := filepath.Join(t.TempDir(), "wal")
	log, err := wal.Open(path, wal.SyncEvery(4))
	if err != nil {
		t.Fatal(err)
	}
	e, err := Restore(nil, log)
	if err != nil {
		t.Fatal(err)
	}
	q, err := e.RegisterText(monitorQuery, plan.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	var last []byte
	for i, ev := range in {
		e.Push(ev)
		if (i+1)%(len(in)/4) != 0 || i+1 == len(in) {
			continue
		}
		last = snapshotOf(t, e)
		file, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(last[snapHead:], file) {
			t.Fatalf("the snapshot after %d items has a %d-B body, the log file %d B", i+1, len(last)-snapHead, len(file))
		}
	}
	e.Finish()
	end := snapshotOf(t, e)
	if len(end) <= len(last) {
		t.Fatal("no record logged after the last mid-stream snapshot")
	}
	e.Drain()
	want := q.Results()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	log2, err := wal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := Restore(nil, log2)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	compareStreams(t, "restored from the final log", e2.snapshot()[0].Results(), want)
	if got := snapshotOf(t, e2); !bytes.Equal(got, end) {
		t.Fatalf("the final log re-snapshots to %d B, want %d B", len(got), len(end))
	}
}

// Work a fuzzed snapshot may ask for: registrations × events is legitimate
// work, not an allocation bug, so inputs beyond this are skipped. (Shards
// need no bound here: replay prepares every registration, and Prepare
// refuses more than plan.MaxShards.)
const maxFuzzRegs = 4

// fuzzable reports whether snap's records stay within maxFuzzRegs
// registrations.
func fuzzable(snap []byte) bool {
	if len(snap) < snapHead {
		return true
	}
	regs := 0
	// A body Scan refuses, Restore refuses too: nothing to skip.
	_, _ = wal.Scan(snap[snapHead:], func(rec wal.Record, _, _ int64) error {
		if rec.Kind == wal.KindRegister {
			regs++
		}
		return nil
	})
	return regs <= maxFuzzRegs
}

// restoreMem restores snap over an empty in-memory log.
func restoreMem(snap []byte) (*Engine, error) {
	log, err := wal.New(new(memFile))
	if err != nil {
		return nil, err
	}
	e, err := Restore(bytes.NewReader(snap), log)
	if err != nil {
		log.Close()
	}
	return e, err
}

// forgedLength returns snap with its last frame's length prefix claiming
// 64 MiB — the longest record recovery accepts — past the bytes that follow.
func forgedLength(snap []byte) []byte {
	snap = bytes.Clone(snap)
	last := 0
	for off := snapHead + len(wal.Magic); off+8 <= len(snap); off += 8 + int(binary.LittleEndian.Uint32(snap[off:])) {
		last = off
	}
	binary.LittleEndian.PutUint32(snap[last:], 1<<26)
	return snap
}

// TestRestoreForgedLength: Restore refuses a snapshot whose last length
// prefix is forged, and allocates under 64 KiB more doing so than refusing
// the same snapshot cut before that frame (an engine and a decoder table,
// ≈66 KB): replay scans the snapshot where it lies, so a prefix sizes
// nothing. A scan that streamed it allocated the 64 MiB the prefix claimed.
func TestRestoreForgedLength(t *testing.T) {
	defer leakcheck.Check(t)()
	log, err := wal.New(new(memFile))
	if err != nil {
		t.Fatal(err)
	}
	e, err := Restore(nil, log)
	if err != nil {
		t.Fatal(err)
	}
	e.Finish() // the snapshot's one record
	var b bytes.Buffer
	if err := e.Snapshot(&b); err != nil {
		t.Fatal(err)
	}
	e.Close()
	forged := forgedLength(b.Bytes())
	refusal := func(snap []byte) uint64 {
		least := uint64(math.MaxUint64)
		var before, after runtime.MemStats
		for range 3 { // the least of three: the runtime allocates beside the test
			runtime.ReadMemStats(&before)
			_, err := restoreMem(snap)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("restore accepted a %d-byte snapshot whose last frame is torn or missing", len(snap))
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	got, base := refusal(forged), refusal(forged[:snapHead+len(wal.Magic)])
	const bound = 64 << 10
	t.Logf("refusing a %d-byte snapshot whose last length prefix claims 64 MiB: %d B allocated, %d B without that frame (bound %d B more)",
		len(forged), got, base, bound)
	if got > base+bound {
		t.Fatalf("refusing a %d-byte snapshot allocated %d B, %d B without its forged frame (bound %d B more); a forged length prefix sizes an allocation again",
			len(forged), got, base, bound)
	}
}

// FuzzRestore feeds arbitrary snapshot bytes to Restore over an in-memory
// log — each input as it is and with its frames' checksums recomputed.
// Whatever the input, Restore must not panic and must leave no goroutine
// behind once the engine is closed; an accepted snapshot must
// re-snapshot to exactly its input bytes, and two restores of one input
// must agree — the same error, or the same results for every
// registration. The seeds (the shapes of TestSnapshotRestoreRotation and
// of driveEveryKind, a forged watermark, a forged last length prefix,
// trailing garbage) run under plain
// `go test`; CI fuzzes it with
//
//	go test -run '^$' -fuzz '^FuzzRestore$' -fuzztime 30s -fuzzminimizetime 100x ./internal/engine
//
// Each try is a full restore, so minimizing an input that found new
// coverage is capped at 100 tries; the default 60 s per input would spend
// a 30 s smoke minimizing.
func FuzzRestore(f *testing.F) {
	in := durabilityWorkload()[:32] // seeds of a few KiB minimize quickly
	mem := func() *Engine {
		log, err := wal.New(new(memFile))
		if err != nil {
			f.Fatal(err)
		}
		e, err := Restore(nil, log)
		if err != nil {
			f.Fatal(err)
		}
		return e
	}
	snap := func(e *Engine) []byte {
		var b bytes.Buffer
		if err := e.Snapshot(&b); err != nil {
			f.Fatal(err)
		}
		return b.Bytes()
	}
	e := mem()
	fresh := snap(e)
	if _, err := e.RegisterText(monitorQuery, plan.WithShards(2)); err != nil {
		f.Fatal(err)
	}
	for _, ev := range in[:len(in)/2] {
		e.Push(ev)
	}
	mid := snap(e)
	for _, ev := range in[len(in)/2:] {
		e.Push(ev)
	}
	e.Finish()
	end := snap(e)
	e.Close()
	e = mem()
	driveEveryKind(f, e, in)
	every := snap(e)
	e.Close()
	forged := func(s []byte, delta byte) []byte {
		s = bytes.Clone(s)
		s[len(snapMagic)] += delta
		return s
	}
	for _, s := range [][]byte{
		fresh, mid, end, every,
		forged(mid, 1), forged(end, 0xff), forgedLength(end),
		append(bytes.Clone(end), "trailing garbage"...),
	} {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, snap []byte) {
		defer leakcheck.Check(t)()
		checkRestore(t, snap)
		if sealed := reseal(snap); !bytes.Equal(sealed, snap) {
			checkRestore(t, sealed)
		}
	})
}

// reseal returns snap with the checksum of every whole frame in its body
// recomputed, so that mutated records reach the decoder and replay rather
// than ending the scan at their checksum.
func reseal(snap []byte) []byte {
	snap = bytes.Clone(snap)
	for off := snapHead + len(wal.Magic); off+8 <= len(snap); {
		n := int(binary.LittleEndian.Uint32(snap[off:]))
		if n > len(snap)-off-8 {
			break
		}
		binary.LittleEndian.PutUint32(snap[off+4:], crc32.Checksum(snap[off+8:off+8+n], crc32.MakeTable(crc32.Castagnoli)))
		off += 8 + n
	}
	return snap
}

// checkRestore restores snap twice over empty in-memory logs: the two
// must agree, and an accepted snapshot must re-snapshot to itself.
func checkRestore(t *testing.T, snap []byte) {
	if !fuzzable(snap) {
		return
	}
	e1, err1 := restoreMem(snap)
	e2, err2 := restoreMem(snap)
	if (err1 == nil) != (err2 == nil) || err1 != nil && err1.Error() != err2.Error() {
		t.Fatalf("two restores of one input disagree: %v / %v", err1, err2)
	}
	if err1 != nil {
		return
	}
	defer e1.Close()
	defer e2.Close()
	var b bytes.Buffer
	if err := e1.Snapshot(&b); err != nil {
		t.Fatalf("accepted snapshot does not re-snapshot: %v", err)
	}
	if !bytes.Equal(b.Bytes(), snap) {
		t.Fatalf("accepted %d-byte snapshot re-snapshots to %d different bytes", len(snap), b.Len())
	}
	q1, q2 := e1.snapshot(), e2.snapshot()
	if len(q1) != len(q2) {
		t.Fatalf("two restores register %d and %d queries", len(q1), len(q2))
	}
	for i := range q1 {
		// %#v: NaN payload values print alike, where DeepEqual says they differ.
		if r1, r2 := fmt.Sprintf("%#v", q1[i].Results()), fmt.Sprintf("%#v", q2[i].Results()); r1 != r2 {
			t.Fatalf("two restores of one input give query %d different results:\n%s\n%s", i, r1, r2)
		}
	}
}
