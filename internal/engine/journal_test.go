// The journal is the WAL's own bytes: what a durable engine keeps of its
// input is each record's encoding, never the decoded record, and a
// snapshot's body is the log file verbatim.
package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/consistency"
	"repro/internal/event"
	"repro/internal/leakcheck"
	"repro/internal/plan"
	"repro/internal/stream"
	"repro/internal/temporal"
	"repro/internal/wal"
)

// idleQuery is a stateless query no fleet item matches: a durable engine
// running it holds little beyond its journal.
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

// checkJournalHeld fails unless a durable engine holds, beyond what a
// non-durable twin fed the same items holds, at most each record's
// encoding plus 16 bytes, and 128 KiB (the log's write buffer, the
// journal's last chunk).
func checkJournalHeld(t *testing.T, what string, durable int64) {
	t.Helper()
	twin := heldBy(t, func() *Engine { return idleEngine(t, New(), journalItems) })
	frame, err := wal.AppendRecord(nil, wal.Record{Seq: 1, Kind: wal.KindEvent, Ev: fleetItem(0)})
	if err != nil {
		t.Fatal(err)
	}
	held, bound := durable-twin, int64(journalItems)*int64(len(frame)+16)+128<<10
	t.Logf("%s, beyond its non-durable twin over %d items (%.1f B per item, %d B per encoded event record), held %d B (bound %d B)",
		what, journalItems, float64(held)/journalItems, len(frame), held, bound)
	if held > bound {
		t.Fatalf("%s holds %d B beyond a non-durable engine over %d items (%.0f B each), above %d: decoded records are kept",
			what, held, journalItems, float64(held)/journalItems, bound)
	}
}

// TestDurableJournalRetainsEncodedBytes: what a durable engine keeps of
// each pushed record is the record's WAL encoding — not the decoded record
// and the payload map it pins (≈ 630 B per fleet record).
func TestDurableJournalRetainsEncodedBytes(t *testing.T) {
	defer leakcheck.Check(t)()
	path := filepath.Join(t.TempDir(), "wal")
	durable := heldBy(t, func() *Engine { return idleEngine(t, durableEngine(t, path), journalItems) })
	checkJournalHeld(t, "a durable engine", durable)
}

// TestRestoreKeepsNoDecodedRecords: an engine restored from a log keeps
// the log's bytes as its journal, and neither it nor the log keeps a
// decoded record.
func TestRestoreKeepsNoDecodedRecords(t *testing.T) {
	defer leakcheck.Check(t)()
	path := filepath.Join(t.TempDir(), "wal")
	if err := idleEngine(t, durableEngine(t, path), journalItems).Close(); err != nil {
		t.Fatal(err)
	}
	restored := heldBy(t, func() *Engine { return durableEngine(t, path) })
	checkJournalHeld(t, "a restored engine", restored)
}

// TestFinishedChainRetainsOnlyItsHistory: once finished, a chain's output
// guarantee is ∞ and nothing a repair could read is needed, so the engine
// holds its history and at most 256 KiB more. Q at Middle over fleet items
// (INSTALLs only) keeps every one in its matcher until Finish; while the
// matcher's undo journal kept the Advance(∞) reset record, that whole
// pre-reset tree stayed reachable after Finish (5.6 MB, 17× the bound).
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
		own = int64(cap(q.ch.history)) * int64(unsafe.Sizeof(event.Event{}))
		return e
	})
	bound := own + 256<<10
	t.Logf("a finished Middle chain over %d items, its history %d B, held %d B (bound %d B)", journalItems, own, held, bound)
	if held > bound {
		t.Fatalf("a finished chain holds %d B, above its history's %d B + 256 KiB: repair state outlives Finish", held, own)
	}
}

// TestRunningChainRetainsSlotsNotPayloads: a running chain's history grows
// by one slot per output and by next to nothing else — the output carries
// the payload map the matcher interned, of which the fleet has 192, not a
// copy of it. An unfinished Echo chain is measured at 20k and 40k items;
// the growth between, less the history slots, is divided by the outputs
// added (≈339 B an output while every output copied its payload).
func TestRunningChainRetainsSlotsNotPayloads(t *testing.T) {
	defer leakcheck.Check(t)()
	const echo = `EVENT Echo WHEN INSTALL h`
	slot := int64(unsafe.Sizeof(event.Event{}))
	// beyond is what the chain holds beyond its history slots after n
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
			own = int64(cap(q.ch.history)) * slot
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
