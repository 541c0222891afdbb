// Crash-safety differentials: the engine is killed at every WAL record
// boundary (and inside records, for torn tails) of a CIDR07 workload, the
// survivor is recovered, the lost suffix re-sent, and the recovered output
// history — inserts, retractions, punctuation, metrics — must be
// byte-identical to the uninterrupted oracle run. Runs under -race in the
// dedicated CI fault-injection job.
package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/consistency"
	"repro/internal/delivery"
	"repro/internal/event"
	"repro/internal/faultinject"
	"repro/internal/leakcheck"
	"repro/internal/plan"
	"repro/internal/stream"
	"repro/internal/temporal"
	"repro/internal/wal"
	"repro/internal/workload"
)

// durabilityWorkload is a small disordered machine-lifecycle stream — big
// enough to exercise blocking, repair, and retraction; small enough that
// crashing at every record boundary stays fast.
func durabilityWorkload() stream.Stream {
	src, _ := workload.MachineEvents(workload.Machines{
		Seed:            7,
		Machines:        4,
		Cycles:          2,
		RestartDeadline: 5 * temporal.Minute,
		MissProb:        0.5,
		CycleGap:        30 * temporal.Minute,
	})
	return delivery.Deliver(src, delivery.Disordered(7, temporal.Minute, 10*temporal.Minute, 0.2))
}

// driveOracle runs the uninterrupted durable reference: register, push the
// first third, switch to strong consistency, push the second third, switch
// back to middle, push the rest, finish.
func driveOracle(t *testing.T, e *Engine, shards int, in stream.Stream) *Query {
	t.Helper()
	q, err := e.RegisterText(monitorQuery, plan.WithShards(shards))
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range in {
		if i == len(in)/3 {
			q.SetSpec(consistency.Strong())
		}
		if i == 2*len(in)/3 {
			q.SetSpec(consistency.Middle())
		}
		e.Push(ev)
	}
	e.Finish()
	return q
}

// redrive re-sends lost records through the engine's public API, playing
// the role of the upstream client that resends unacknowledged input after
// a crash.
func redrive(t *testing.T, e *Engine, recs []wal.Record) {
	t.Helper()
	for _, rec := range recs {
		switch rec.Kind {
		case wal.KindEvent, wal.KindCTI:
			e.Push(rec.Ev)
		case wal.KindRegister:
			if _, err := e.RegisterText(rec.Src, plan.WithRegOpts(rec.Opts)); err != nil {
				t.Fatal(err)
			}
		case wal.KindSpec:
			e.Queries()[rec.Query].SetSpec(rec.Spec)
		case wal.KindFinish:
			e.Finish()
		default:
			t.Fatalf("unexpected record kind %v", rec.Kind)
		}
	}
}

// fullSweep is set by the fault-injection CI job (CEDR_EVERY_BOUNDARY): the
// sweeps and grids that plain `go test` samples run in full.
var fullSweep = os.Getenv("CEDR_EVERY_BOUNDARY") != ""

// TestCrashRecoveryAtEveryRecordBoundary is the crash-point differential:
// for shard counts 1 and 4, the oracle's WAL is cut at every record
// boundary — plus a torn cut inside every record — and each survivor is
// recovered and driven to completion. Every recovered history must equal
// the oracle's byte for byte.
//
// The full sweep runs when CEDR_EVERY_BOUNDARY is set, as the
// fault-injection CI job does; plain `go test` visits every seventh cut
// (boundary and torn cuts alternate, so an odd stride samples both kinds)
// plus the last.
func TestCrashRecoveryAtEveryRecordBoundary(t *testing.T) {
	stride := 7
	if fullSweep {
		stride = 1
	}
	in := durabilityWorkload()
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			defer leakcheck.Check(t)()
			dir := t.TempDir()
			oraclePath := filepath.Join(dir, "oracle.wal")
			log, err := wal.Open(oraclePath, wal.SyncEvery(1))
			if err != nil {
				t.Fatal(err)
			}
			e, err := Restore(nil, log)
			if err != nil {
				t.Fatal(err)
			}
			q := driveOracle(t, e, shards, in)
			wantResults := q.Results()
			wantMetrics := q.Metrics()
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			if len(wantResults) == 0 {
				t.Fatal("oracle produced no output; the differential would be vacuous")
			}

			img, err := os.ReadFile(oraclePath)
			if err != nil {
				t.Fatal(err)
			}
			records, good, err := wal.ReadAll(bytes.NewReader(img))
			if err != nil {
				t.Fatal(err)
			}
			if good != int64(len(img)) {
				t.Fatalf("oracle WAL has a %d-byte tail past the last record", int64(len(img))-good)
			}
			var cuts []int64
			if _, err := wal.Scan(img, func(_ wal.Record, start, end int64) error {
				// Crash exactly at the boundary before this record, and torn
				// three bytes into its frame.
				cuts = append(cuts, start, start+3)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			cuts = append(cuts, int64(len(img))) // crash after the final record

			crashPath := filepath.Join(dir, "crash.wal")
			for i, cut := range cuts {
				if i%stride != 0 && i != len(cuts)-1 {
					continue
				}
				if err := os.WriteFile(crashPath, img[:cut], 0o644); err != nil {
					t.Fatal(err)
				}
				log2, err := wal.Open(crashPath, wal.SyncEvery(1))
				if err != nil {
					t.Fatalf("cut=%d: reopen: %v", cut, err)
				}
				survived := int(log2.LastSeq()) // sequences run 1..n
				e2, err := Restore(nil, log2)
				if err != nil {
					t.Fatalf("cut=%d: restore: %v", cut, err)
				}
				redrive(t, e2, records[survived:])
				q2s := e2.Queries()
				if len(q2s) != 1 {
					t.Fatalf("cut=%d: recovered %d queries, want 1", cut, len(q2s))
				}
				compareStreams(t, fmt.Sprintf("cut=%d results", cut), q2s[0].Results(), wantResults)
				if got := q2s[0].Metrics(); !reflect.DeepEqual(got, wantMetrics) {
					t.Fatalf("cut=%d: metrics diverge:\n got %+v\nwant %+v", cut, got, wantMetrics)
				}
				if err := e2.Close(); err != nil {
					t.Fatalf("cut=%d: close: %v", cut, err)
				}
			}
		})
	}
}

// TestSnapshotRestoreRotation: a snapshot taken mid-stream restores (a)
// against a fresh empty log — WAL rotation — with the remaining input
// re-driven, and (b) against the original full log, where replay resumes
// from the watermark with nothing re-sent. Both must reproduce the oracle
// byte for byte.
func TestSnapshotRestoreRotation(t *testing.T) {
	defer leakcheck.Check(t)()
	in := durabilityWorkload()
	half := len(in) / 2
	dir := t.TempDir()

	log1, err := wal.Open(filepath.Join(dir, "full.wal"), wal.SyncEvery(4))
	if err != nil {
		t.Fatal(err)
	}
	e1, err := Restore(nil, log1)
	if err != nil {
		t.Fatal(err)
	}
	q1, err := e1.RegisterText(monitorQuery, plan.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range in[:half] {
		e1.Push(ev)
	}
	var snap bytes.Buffer
	if err := e1.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	q1.ch.sh.barrier() // sharded delivery is asynchronous; settle before reading
	midResults := q1.Results()
	for _, ev := range in[half:] {
		e1.Push(ev)
	}
	e1.Finish()
	wantResults := q1.Results()
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	// (a) Rotation: snapshot + fresh empty log; the client re-sends the
	// input that postdates the snapshot.
	log2, err := wal.Open(filepath.Join(dir, "rotated.wal"), wal.SyncEvery(4))
	if err != nil {
		t.Fatal(err)
	}
	e2, err := Restore(bytes.NewReader(snap.Bytes()), log2)
	if err != nil {
		t.Fatal(err)
	}
	q2 := e2.Queries()[0]
	compareStreams(t, "post-snapshot restore", q2.Results(), midResults)
	for _, ev := range in[half:] {
		e2.Push(ev)
	}
	e2.Finish()
	compareStreams(t, "rotated results", q2.Results(), wantResults)
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}

	// (b) Snapshot + the original log: records at or before the watermark
	// are skipped, the rest replay from the log.
	log3, err := wal.Open(filepath.Join(dir, "full.wal"))
	if err != nil {
		t.Fatal(err)
	}
	e3, err := Restore(bytes.NewReader(snap.Bytes()), log3)
	if err != nil {
		t.Fatal(err)
	}
	q3 := e3.Queries()[0]
	e3.Finish() // the oracle finished after its last logged record
	compareStreams(t, "snapshot+log results", q3.Results(), wantResults)
	if err := e3.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotRestoresEveryRegistrationShape: a snapshot carries every way
// an endpoint can be registered — a shared attach, template instances
// sharing and not, an opt-out of sharing, explicit and automatic shard
// counts, a spec override — and the spec switch and unregistration that
// followed. Restored onto an empty log and fed the same remaining input,
// every registration's results, order tags, metrics and chain shape equal
// the original's.
func TestSnapshotRestoresEveryRegistrationShape(t *testing.T) {
	defer leakcheck.Check(t)()
	in := durabilityWorkload()
	half := len(in) / 2
	dir := t.TempDir()
	open := func(name string) *wal.Log {
		log, err := wal.Open(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return log
	}
	e1, err := Restore(nil, open("orig.wal"))
	if err != nil {
		t.Fatal(err)
	}
	shared := plan.WithSharing()
	for _, r := range []struct {
		src  string
		opts []plan.Option
	}{
		{monitorQuery, []plan.Option{shared}},
		{monitorQuery, []plan.Option{shared}}, // attaches
		{keyedTemplate, []plan.Option{bindM("m000"), shared}},
		{keyedTemplate, []plan.Option{bindM("m000"), shared}}, // attaches
		{keyedTemplate, []plan.Option{bindM("m001"), shared}},
		{monitorQuery, nil}, // without sharing: a private chain
		{monitorQuery, []plan.Option{plan.WithShards(4)}},
		{monitorQuery, []plan.Option{plan.WithShards(plan.AutoShards)}},
		{monitorQuery, []plan.Option{plan.WithSpec(consistency.Strong()), shared}},
	} {
		if _, err := e1.RegisterText(r.src, r.opts...); err != nil {
			t.Fatal(err)
		}
	}
	qs := e1.snapshot()
	if qs[0].ch != qs[1].ch || qs[2].ch != qs[3].ch || qs[5].Shared() || qs[6].Shards() != 4 {
		t.Fatal("registrations did not take the shapes under test")
	}
	for _, ev := range in[:half] {
		e1.Push(ev)
	}
	qs[6].SetSpec(consistency.Strong())
	qs[3].Unregister()
	var snap bytes.Buffer
	if err := e1.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	e2, err := Restore(bytes.NewReader(snap.Bytes()), open("rotated.wal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []*Engine{e1, e2} {
		for _, ev := range in[half:] {
			e.Push(ev)
		}
		e.Finish()
	}
	rs := e2.snapshot()
	if len(rs) != len(qs) {
		t.Fatalf("restored %d registrations, want %d", len(rs), len(qs))
	}
	for i, q := range qs {
		r := rs[i]
		label := fmt.Sprintf("registration %d", i)
		compareStreams(t, label+" results", r.Results(), q.Results())
		if !reflect.DeepEqual(r.Tags(), q.Tags()) {
			t.Errorf("%s: order tags diverge", label)
		}
		if got, want := r.Metrics(), q.Metrics(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: metrics diverge\n got: %+v\nwant: %+v", label, got, want)
		}
		if r.Shards() != q.Shards() || r.Shared() != q.Shared() {
			t.Errorf("%s: restored on %d shards (shared %v), want %d (shared %v)", label, r.Shards(), r.Shared(), q.Shards(), q.Shared())
		}
	}
	for _, e := range []*Engine{e1, e2} {
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSnapshotRefusals: snapshots require a durable engine, and a corrupt
// snapshot is a hard restore error rather than a silent partial replay.
func TestSnapshotRefusals(t *testing.T) {
	defer leakcheck.Check(t)()
	var buf bytes.Buffer
	if err := New().Snapshot(&buf); err == nil {
		t.Fatal("snapshot of a non-durable engine succeeded")
	}

	// Corrupt snapshot → hard error.
	dir := t.TempDir()
	log2, err := wal.Open(filepath.Join(dir, "wal2"))
	if err != nil {
		t.Fatal(err)
	}
	e2, err := Restore(nil, log2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e2.RegisterText(monitorQuery); err != nil {
		t.Fatal(err)
	}
	e2.Push(event.NewCTI(1))
	var snap bytes.Buffer
	if err := e2.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
	bad := faultinject.FlipByte(snap.Bytes(), int64(snap.Len()-2))
	log3, err := wal.Open(filepath.Join(dir, "wal3"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(bytes.NewReader(bad), log3); err == nil {
		t.Fatal("restore from corrupt snapshot succeeded")
	}
	log3.Close()
	torn := faultinject.TornTail(snap.Bytes(), 2)
	log4, err := wal.Open(filepath.Join(dir, "wal4"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(bytes.NewReader(torn), log4); err == nil {
		t.Fatal("restore from torn snapshot succeeded")
	}
	log4.Close()
}

// TestEngineFailStopOnFsyncError: after an injected fsync failure the
// engine reports the error and refuses further input — events that cannot
// be made durable are never processed.
func TestEngineFailStopOnFsyncError(t *testing.T) {
	defer leakcheck.Check(t)()
	f, err := os.Create(filepath.Join(t.TempDir(), "wal"))
	if err != nil {
		t.Fatal(err)
	}
	ff := faultinject.NewFile(f)
	ff.FailSyncAt = 2 // sync 1 covers the registration; fail the first event
	log, err := wal.New(ff, wal.SyncEvery(1))
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
	if e.Err() != nil {
		t.Fatalf("premature failure: %v", e.Err())
	}
	in := durabilityWorkload()
	for _, ev := range in {
		e.Push(ev)
	}
	e.Finish()
	if e.Err() == nil {
		t.Fatal("engine reports no error after fsync failure")
	}
	if got := q.Results(); len(got) != 0 {
		t.Fatalf("%d results emitted from input that was never durable", len(got))
	}
	if err := e.Close(); err == nil {
		t.Fatal("Close cleared the sticky durability error")
	}
	if err := e.Close(); err == nil {
		t.Fatal("second Close cleared the sticky durability error")
	}
}

// TestCrashDuringAppend drives a wal.Log over a crash-at-offset file: the
// torn write reaches the disk, recovery truncates it, and replay of the
// durable prefix matches an uninterrupted run over that prefix.
func TestCrashDuringAppend(t *testing.T) {
	defer leakcheck.Check(t)()
	in := durabilityWorkload()
	path := filepath.Join(t.TempDir(), "wal")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	ff := faultinject.NewFile(f)
	ff.CrashAtByte = 900
	log, err := wal.New(ff, wal.SyncEvery(1))
	if err != nil {
		t.Fatal(err)
	}
	e, err := Restore(nil, log)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RegisterText(monitorQuery); err != nil {
		t.Fatal(err)
	}
	for _, ev := range in {
		e.Push(ev) // the append past byte 900 crashes; later pushes drop
	}
	if e.Err() == nil {
		t.Fatal("crash not surfaced")
	}
	e.Close()

	// Recover the torn file.
	log2, err := wal.Open(path, wal.SyncEvery(1))
	if err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(path) // opening truncated the torn tail
	if err != nil {
		t.Fatal(err)
	}
	durable, _, err := wal.ReadAll(bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	if len(durable) == 0 {
		t.Fatal("nothing durable before the crash point")
	}
	e2, err := Restore(nil, log2)
	if err != nil {
		t.Fatal(err)
	}
	got := e2.Queries()[0].Results()
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}

	// Oracle over exactly the durable prefix.
	oe := New()
	var oq *Query
	for _, rec := range durable {
		switch rec.Kind {
		case wal.KindRegister:
			if oq, err = oe.RegisterText(rec.Src); err != nil {
				t.Fatal(err)
			}
		case wal.KindEvent, wal.KindCTI:
			oe.Push(rec.Ev)
		}
	}
	compareStreams(t, "durable prefix replay", got, oq.Results())
}

// TestRestoreIgnoresRetiredPlanFlags: a log written by an older binary may
// carry register flag bits 0x2 (oracle evaluator) and 0x4 (flat matcher).
// This binary has neither plan; the record must replay on the default plan
// and reproduce the plain run's output item for item.
func TestRestoreIgnoresRetiredPlanFlags(t *testing.T) {
	defer leakcheck.Check(t)()
	in := durabilityWorkload()
	want := run(t, monitorQuery, in, plan.WithSpec(consistency.Middle()))
	if len(want.Results()) == 0 {
		t.Fatal("plain run produced no output; the differential would be vacuous")
	}

	// Write today's log, then set the retired bits in its register record
	// and re-seal the frame.
	path := filepath.Join(t.TempDir(), "old.wal")
	log, err := wal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	e, err := Restore(nil, log)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RegisterText(monitorQuery, plan.WithSpec(consistency.Middle())); err != nil {
		t.Fatal(err)
	}
	e.Run(in)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	patched := false
	if _, err := wal.Scan(img, func(rec wal.Record, start, end int64) error {
		if rec.Kind != wal.KindRegister {
			return nil
		}
		// Frame: u32 len, u32 crc, then the payload — u64 seq, kind byte,
		// u32-prefixed source, flags.
		payload := img[start+8 : end]
		flags := &payload[8+1+4+len(rec.Src)]
		if *flags != 0x1 {
			t.Fatalf("register flags = %#x, want 0x1 (HasSpec only)", *flags)
		}
		*flags |= 0x2 | 0x4
		binary.LittleEndian.PutUint32(img[start+4:], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
		patched = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !patched {
		t.Fatal("no register record in the log")
	}
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}

	log2, err := wal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := log2.LastSeq(); n != uint64(len(in)+2) {
		t.Fatalf("recovered %d records from the patched log, want %d", n, len(in)+2)
	}
	e2, err := Restore(nil, log2)
	if err != nil {
		t.Fatal(err)
	}
	qs := e2.Queries()
	if len(qs) != 1 {
		t.Fatalf("recovered %d queries, want 1", len(qs))
	}
	if got, plain := qs[0].Plan().Explain(), want.Plan().Explain(); got != plain {
		t.Errorf("restored plan\n%s\nwant the plain run's\n%s", got, plain)
	}
	compareStreams(t, "restored results", qs[0].Results(), want.Results())
	if got := qs[0].Metrics(); !reflect.DeepEqual(got, want.Metrics()) {
		t.Fatalf("metrics diverge:\n got %+v\nwant %+v", got, want.Metrics())
	}
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreRefusesUndecodableRecord: opening a log checks frames, not
// payloads, so a record whose checksum holds but whose payload does not
// decode — here an unknown kind, re-sealed — reaches replay, which refuses
// the log instead of silently dropping that record and every one after it.
func TestRestoreRefusesUndecodableRecord(t *testing.T) {
	defer leakcheck.Check(t)()
	path := filepath.Join(t.TempDir(), "wal")
	e := durableEngine(t, path)
	if _, err := e.RegisterText(monitorQuery); err != nil {
		t.Fatal(err)
	}
	e.Push(event.NewCTI(1))
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ranges := [][2]int64{}
	if _, err := wal.Scan(img, func(_ wal.Record, start, end int64) error {
		ranges = append(ranges, [2]int64{start, end})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	reg := ranges[0]
	payload := img[reg[0]+8 : reg[1]]
	payload[8] = 0xee // the kind byte, after the sequence number
	binary.LittleEndian.PutUint32(img[reg[0]+4:], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	log, err := wal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := log.LastSeq(); n != 2 {
		t.Fatalf("opening kept %d records, want both: frames are intact", n)
	}
	if _, err := Restore(nil, log); err == nil {
		t.Fatal("restore replayed a log holding an undecodable record")
	}
	log.Close()
}
