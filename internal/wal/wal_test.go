package wal_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/consistency"
	"repro/internal/event"
	"repro/internal/faultinject"
	"repro/internal/temporal"
	"repro/internal/wal"
)

// noTable decodes without sharing strings or payloads.
var noTable *wal.Decoder

// sampleRecords covers every record kind and every payload value type the
// encoding supports, including lineage and a retraction.
func sampleRecords() []wal.Record {
	ev := event.NewInsert(7, "INSTALL", 10, temporal.Infinity, event.Payload{
		"Machine_Id": "m001",
		"count":      int64(42),
		"small":      3,
		"load":       0.75,
		"critical":   true,
	})
	ret := event.NewRetract(7, "INSTALL", 10, 20, event.Payload{"Machine_Id": "m001"})
	composite := ev
	composite.CBT = []event.ID{3, 5, 9}
	composite.RT = 4
	return []wal.Record{
		{Kind: wal.KindRegister, Src: "EVENT E WHEN ANY(INSTALL x)", Opts: wal.RegOpts{
			HasSpec: true, Spec: consistency.Strong(), Shards: 4,
		}},
		{Kind: wal.KindEvent, Ev: ev},
		{Kind: wal.KindEvent, Ev: ret},
		{Kind: wal.KindEvent, Ev: composite},
		{Kind: wal.KindCTI, Ev: event.NewCTI(25)},
		{Kind: wal.KindSpec, Query: 0, Spec: consistency.Weak(3 * temporal.Minute)},
		{Kind: wal.KindFinish},
	}
}

// writeLog appends recs to a fresh WAL at path and closes it.
func writeLog(t *testing.T, path string, recs []wal.Record) {
	t.Helper()
	l, err := wal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if _, err := l.Append(r); err != nil {
			t.Fatalf("append %s: %v", r.Kind, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// withSeqs returns recs with the auto-assigned sequence numbers 1..n filled
// in, for comparing against recovered records.
func withSeqs(recs []wal.Record) []wal.Record {
	out := append([]wal.Record(nil), recs...)
	for i := range out {
		out[i].Seq = uint64(i + 1)
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	recs := sampleRecords()
	writeLog(t, path, recs)

	l, err := wal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	got := recovered(t, l)
	want := withSeqs(recs)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	if l.LastSeq() != uint64(len(recs)) {
		t.Fatalf("LastSeq = %d, want %d", l.LastSeq(), len(recs))
	}
}

// recovered decodes the records l read back at open time.
func recovered(t *testing.T, l *wal.Log) []wal.Record {
	t.Helper()
	recs, _, err := wal.ReadAll(bytes.NewReader(l.TakeRecovered()))
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// registerPayload hand-encodes a registration record's payload (seq, kind,
// source, flags, spec, shards) without going through AppendRecord, so the
// decoder can be shown flag bits the encoder no longer writes.
func registerPayload(seq uint64, src string, flags byte, spec consistency.Spec, shards int32) []byte {
	le := binary.LittleEndian
	b := le.AppendUint64(nil, seq)
	b = append(b, byte(wal.KindRegister))
	b = le.AppendUint32(b, uint32(len(src)))
	b = append(b, src...)
	b = append(b, flags)
	b = le.AppendUint64(b, uint64(spec.B))
	b = le.AppendUint64(b, uint64(spec.M))
	return le.AppendUint32(b, uint32(shards))
}

// TestDecodeIgnoresRetiredPlanFlags: register flag bits 0x2 and 0x4 selected
// the oracle evaluator and the flat matcher in older binaries. A record
// carrying them must decode to exactly the record without them — the log
// replays on the default plan.
func TestDecodeIgnoresRetiredPlanFlags(t *testing.T) {
	const src = "EVENT E WHEN SEQUENCE(A a, B b, 10)"
	spec := consistency.Strong()
	want := wal.Record{Seq: 9, Kind: wal.KindRegister, Src: src,
		Opts: wal.RegOpts{HasSpec: true, Spec: spec, Shards: 4}}
	for _, flags := range []byte{0x1, 0x1 | 0x2, 0x1 | 0x4, 0x1 | 0x2 | 0x4} {
		got, err := noTable.Payload(registerPayload(9, src, flags, spec, 4))
		if err != nil {
			t.Fatalf("flags %#x: %v", flags, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("flags %#x decoded to\n %+v\nwant\n %+v", flags, got, want)
		}
	}
	// The encoder never sets them: today's record is the flags-0x1 payload.
	frame, err := wal.AppendRecord(nil, want)
	if err != nil {
		t.Fatal(err)
	}
	if plain := registerPayload(9, src, 0x1, spec, 4); !bytes.Equal(frame[8:], plain) {
		t.Errorf("encoded payload\n %x\nwant\n %x", frame[8:], plain)
	}
}

// recordRanges opens the log image and returns each record's [start, end)
// byte range, so corruption tests can aim at exact frame offsets.
func recordRanges(t *testing.T, img []byte) [][2]int64 {
	t.Helper()
	var ranges [][2]int64
	if _, err := wal.Scan(img, func(_ wal.Record, start, end int64) error {
		ranges = append(ranges, [2]int64{start, end})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return ranges
}

// TestCorruptRecovery is the corrupt-WAL table: every mutation must recover
// exactly the longest intact prefix, and the recovered log must accept new
// appends (recovery truncates the torn tail rather than failing).
func TestCorruptRecovery(t *testing.T) {
	recs := sampleRecords()
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref")
	writeLog(t, ref, recs)
	img, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	ranges := recordRanges(t, img)
	if len(ranges) != len(recs) {
		t.Fatalf("scan found %d records, want %d", len(ranges), len(recs))
	}
	last := ranges[len(ranges)-1]

	tests := []struct {
		name string
		img  []byte
		keep int // records expected to survive
	}{
		{"intact", img, len(recs)},
		{"empty file", nil, 0},
		{"torn magic", faultinject.TruncateAt(img, 3), 0},
		{"magic only", faultinject.TruncateAt(img, int64(len(wal.Magic))), 0},
		{"torn tail mid body", faultinject.TornTail(img, 3), len(recs) - 1},
		{"torn tail one byte", faultinject.TornTail(img, 1), len(recs) - 1},
		{"truncated length prefix", faultinject.TruncateAt(img, last[0]+2), len(recs) - 1},
		{"flipped crc byte", faultinject.FlipByte(img, last[0]+4), len(recs) - 1},
		{"flipped payload byte", faultinject.FlipByte(img, last[0]+8), len(recs) - 1},
		{"flipped mid-log byte", faultinject.FlipByte(img, ranges[2][0]+8), 2},
		{"truncated mid log", faultinject.TruncateAt(img, ranges[3][0]+5), 3},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, "c_"+tc.name)
			if err := os.WriteFile(path, tc.img, 0o644); err != nil {
				t.Fatal(err)
			}
			l, err := wal.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			got := recovered(t, l)
			want := withSeqs(recs)[:tc.keep]
			if len(want) == 0 {
				want = nil
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("recovered %d records, want %d:\n got %+v\nwant %+v", len(got), len(want), got, want)
			}
			// Append-after-recovery: the truncated log is a working log.
			seq, err := l.Append(wal.Record{Kind: wal.KindFinish})
			if err != nil {
				t.Fatalf("append after recovery: %v", err)
			}
			if want := uint64(tc.keep + 1); seq != want {
				t.Fatalf("post-recovery seq = %d, want %d", seq, want)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			// The re-recovered log sees the prefix plus the new record.
			l2, err := wal.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			if n := len(recovered(t, l2)); n != tc.keep+1 {
				t.Fatalf("after truncate+append: %d records, want %d", n, tc.keep+1)
			}
		})
	}
}

func TestBadMagicIsHardError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not-a-wal")
	if err := os.WriteFile(path, []byte("GARBAGE!"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := wal.Open(path); err == nil {
		t.Fatal("opening a non-WAL file succeeded; want bad-magic error")
	}
}

// TestOutOfSequenceTail splices a stale record (lower seq) after a good one;
// recovery must stop at the splice.
func TestOutOfSequenceTail(t *testing.T) {
	img := []byte(wal.Magic)
	var err error
	img, err = wal.AppendRecord(img, wal.Record{Seq: 5, Kind: wal.KindFinish})
	if err != nil {
		t.Fatal(err)
	}
	img, err = wal.AppendRecord(img, wal.Record{Seq: 5, Kind: wal.KindFinish})
	if err != nil {
		t.Fatal(err)
	}
	recs, good, err := wal.ReadAll(bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Seq != 5 {
		t.Fatalf("recovered %+v, want one record with seq 5", recs)
	}
	if good >= int64(len(img)) {
		t.Fatalf("good offset %d should exclude the stale tail (%d bytes)", good, len(img))
	}
}

func TestAppendSeqValidation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	l, err := wal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append(wal.Record{Seq: 10, Kind: wal.KindFinish}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(wal.Record{Seq: 10, Kind: wal.KindFinish}); err == nil {
		t.Fatal("duplicate sequence accepted")
	}
	if _, err := l.Append(wal.Record{Seq: 3, Kind: wal.KindFinish}); err == nil {
		t.Fatal("regressing sequence accepted")
	}
	if seq, err := l.Append(wal.Record{Kind: wal.KindFinish}); err != nil || seq != 11 {
		t.Fatalf("auto-assign after explicit seq: got %d, %v; want 11, nil", seq, err)
	}
}

// TestAppendWritesItsFrames: Append encodes each record onto the log's
// buffer, so the file is wal.Magic followed by exactly the frames
// AppendRecord makes of the records; a stale or equal sequence and an
// unencodable record are refused without touching the buffer or the file,
// and the log stays healthy.
func TestAppendWritesItsFrames(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	recs := withSeqs(sampleRecords())
	l, err := wal.Open(path, wal.SyncEvery(-1))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	fileIs := func(what string, want []byte) {
		t.Helper()
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: the file holds %d B, want %d B", what, len(got), len(want))
		}
	}
	refuse := func(what string) {
		t.Helper()
		last := l.LastSeq()
		for _, r := range []wal.Record{
			{Seq: last, Kind: wal.KindFinish},     // equal
			{Seq: last - 1, Kind: wal.KindFinish}, // stale
			{Kind: wal.Kind(200)},                 // unencodable
		} {
			if seq, err := l.Append(r); err == nil {
				t.Fatalf("%s: record %+v accepted as %d", what, r, seq)
			}
		}
		if err := l.Err(); err != nil || l.LastSeq() != last {
			t.Fatalf("%s: a refused record left the log at %d (want %d), err %v", what, l.LastSeq(), last, err)
		}
	}
	half := len(recs) / 2
	for _, r := range recs[:half] {
		if _, err := l.Append(r); err != nil {
			t.Fatalf("append %d: %v", r.Seq, err)
		}
	}
	refuse("buffered")
	fileIs("before a sync", nil) // everything waits in the buffer
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	fileIs("after a sync", append([]byte(wal.Magic), framesOf(t, recs[:half])...))
	refuse("synced")
	for _, r := range recs[half:] {
		want := r.Seq
		r.Seq = 0 // auto-assigned: the refusals took no sequence number
		if seq, err := l.Append(r); err != nil || seq != want {
			t.Fatalf("append after refusals: got %d, %v; want %d", seq, err, want)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	fileIs("every record", append([]byte(wal.Magic), framesOf(t, recs)...))
}

// framesOf is the concatenated AppendRecord frames of recs.
func framesOf(t *testing.T, recs []wal.Record) []byte {
	t.Helper()
	var b []byte
	for _, r := range recs {
		var err error
		if b, err = wal.AppendRecord(b, r); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// TestCopyToReadsTheFileBack: CopyTo syncs the log and copies the file from
// an offset to its end, and appending then continues at the end.
func TestCopyToReadsTheFileBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	recs := withSeqs(sampleRecords())
	l, err := wal.Open(path, wal.SyncEvery(-1))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	half := len(recs) / 2
	for i, r := range recs {
		if _, err := l.Append(r); err != nil {
			t.Fatal(err)
		}
		if i+1 != half && i+1 != len(recs) {
			continue
		}
		var got bytes.Buffer
		if err := l.CopyTo(&got, int64(len(wal.Magic))); err != nil {
			t.Fatal(err)
		}
		if want := framesOf(t, recs[:i+1]); !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("after %d records CopyTo wrote %d B, want their %d B of frames", i+1, got.Len(), len(want))
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := append([]byte(wal.Magic), framesOf(t, recs)...); !bytes.Equal(file, want) {
		t.Fatalf("the file holds %d B, want %d B: an append after CopyTo did not land at the end", len(file), len(want))
	}
	if err := l.CopyTo(io.Discard, 0); err == nil {
		t.Fatal("CopyTo on a closed log succeeded")
	}
}

func TestSyncBatching(t *testing.T) {
	f, err := os.Create(filepath.Join(t.TempDir(), "wal"))
	if err != nil {
		t.Fatal(err)
	}
	ff := faultinject.NewFile(f)
	l, err := wal.New(ff, wal.SyncEvery(8))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := l.Append(wal.Record{Kind: wal.KindFinish}); err != nil {
			t.Fatal(err)
		}
	}
	// 20 appends at every-8 batching: two automatic syncs, the rest pending.
	if got := l.Syncs(); got != 2 {
		t.Fatalf("after 20 appends: %d syncs, want 2", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := l.Syncs(); got != 3 {
		t.Fatalf("after close: %d syncs, want 3 (close flushes the tail)", got)
	}
	if ff.Syncs() != 3 {
		t.Fatalf("file saw %d fsyncs, log reports 3", ff.Syncs())
	}
}

// TestFsyncFailStop: after an injected fsync error the log rejects every
// further append with the original error — records that cannot be made
// durable are not accepted.
func TestFsyncFailStop(t *testing.T) {
	f, err := os.Create(filepath.Join(t.TempDir(), "wal"))
	if err != nil {
		t.Fatal(err)
	}
	ff := faultinject.NewFile(f)
	ff.FailSyncAt = 2 // first sync writes the magic header; fail the next
	l, err := wal.New(ff, wal.SyncEvery(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(wal.Record{Kind: wal.KindFinish}); err != nil {
		t.Fatal(err)
	}
	_, err = l.Append(wal.Record{Kind: wal.KindFinish})
	if !errors.Is(err, faultinject.ErrInjectedSync) {
		t.Fatalf("append after failed fsync: %v, want ErrInjectedSync", err)
	}
	if _, err2 := l.Append(wal.Record{Kind: wal.KindFinish}); !errors.Is(err2, faultinject.ErrInjectedSync) {
		t.Fatalf("log did not fail stop: %v", err2)
	}
	if l.Err() == nil {
		t.Fatal("Err() nil after fsync failure")
	}
}

// fleetRecord is the i-th record of a fleet-like stream: one machine of
// eight, so names and values repeat.
func fleetRecord(i int) wal.Record {
	return wal.Record{Kind: wal.KindEvent, Ev: event.NewInsert(event.ID(i), "INSTALL", temporal.Time(i), temporal.Infinity,
		event.Payload{"Machine_Id": fmt.Sprintf("m%03d", 1+i%8)})}
}

// writeThroughAt is how many event records of fleetRecord's size fill the
// 64 KiB a log buffers (after the magic header) before it writes them out.
func writeThroughAt(t *testing.T) int {
	frame, err := wal.AppendRecord(nil, fleetRecord(1))
	if err != nil {
		t.Fatal(err)
	}
	return (64<<10 - len(wal.Magic) + len(frame) - 1) / len(frame)
}

// TestWriteThrough: with automatic syncing off, the log's memory is still
// bounded — the file receives the buffered records once 64 KiB have
// accumulated — and writing is not syncing: the fsync counts are those of
// the sync policy alone.
func TestWriteThrough(t *testing.T) {
	f, err := os.Create(filepath.Join(t.TempDir(), "wal"))
	if err != nil {
		t.Fatal(err)
	}
	ff := faultinject.NewFile(f)
	l, err := wal.New(ff, wal.SyncEvery(-1))
	if err != nil {
		t.Fatal(err)
	}
	size := func() int64 {
		st, err := f.Stat()
		if err != nil {
			t.Fatal(err)
		}
		return st.Size()
	}
	n := writeThroughAt(t)
	for i := range 2 * n {
		if _, err := l.Append(fleetRecord(i)); err != nil {
			t.Fatal(err)
		}
		switch i + 1 {
		case n - 1:
			if got := size(); got != 0 {
				t.Fatalf("%d records (under 64 KiB) reached the file: %d bytes", i+1, got)
			}
		case n:
			if got := size(); got < 64<<10 {
				t.Fatalf("%d records (64 KiB) are still buffered: the file holds %d bytes", i+1, got)
			}
		}
	}
	if l.Syncs() != 0 || ff.Syncs() != 0 {
		t.Fatalf("write-through synced: log %d, file %d fsyncs; want 0", l.Syncs(), ff.Syncs())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if l.Syncs() != 1 || ff.Syncs() != 1 {
		t.Fatalf("after close: log %d, file %d fsyncs; want 1", l.Syncs(), ff.Syncs())
	}
	l2, err := wal.Open(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := len(recovered(t, l2)); got != 2*n {
		t.Fatalf("recovered %d records, want %d", got, 2*n)
	}
}

// TestWriteThroughFailStop: a crash inside a write-through fails that append
// with the original error, and the log fails stop as after a failed fsync.
func TestWriteThroughFailStop(t *testing.T) {
	f, err := os.Create(filepath.Join(t.TempDir(), "wal"))
	if err != nil {
		t.Fatal(err)
	}
	ff := faultinject.NewFile(f)
	ff.CrashAtByte = 10_000
	l, err := wal.New(ff, wal.SyncEvery(-1))
	if err != nil {
		t.Fatal(err)
	}
	n := writeThroughAt(t)
	for i := range n - 1 {
		if _, err := l.Append(fleetRecord(i)); err != nil {
			t.Fatalf("append %d, before any write: %v", i, err)
		}
	}
	if _, err := l.Append(fleetRecord(n)); !errors.Is(err, faultinject.ErrCrashed) {
		t.Fatalf("append crossing 64 KiB: %v, want ErrCrashed", err)
	}
	if _, err := l.Append(fleetRecord(n + 1)); !errors.Is(err, faultinject.ErrCrashed) {
		t.Fatalf("log did not fail stop: %v", err)
	}
	if err := l.Sync(); !errors.Is(err, faultinject.ErrCrashed) {
		t.Fatalf("sync after a failed write: %v, want ErrCrashed", err)
	}
}

// TestDecoderSharesOnlyWholePayloads: a Decoder hands a kept payload out
// only where decoding its bytes would yield it. A record whose payload is
// followed by a stray byte is refused at every decode through one Decoder,
// not accepted from its third, once a map decoded from a part of its tail
// was kept; and a kept payload's entries under another count are refused.
func TestDecoderSharesOnlyWholePayloads(t *testing.T) {
	frame, err := wal.AppendRecord(nil, fleetRecord(1))
	if err != nil {
		t.Fatal(err)
	}
	body, dec := frame[8:], wal.NewDecoder()
	stray := append(bytes.Clone(body), 0)
	for i := range 3 {
		if _, err := dec.Payload(stray); err == nil {
			t.Fatalf("decode %d of a record with a stray byte after its payload was accepted", i+1)
		}
	}
	for i := range 3 {
		if _, err := dec.Payload(body); err != nil {
			t.Fatalf("decode %d of the record without the stray byte: %v", i+1, err)
		}
	}
	empty, _ := wal.AppendRecord(nil, wal.Record{Kind: wal.KindEvent, Ev: event.NewInsert(1, "INSTALL", 1, temporal.Infinity, nil)})
	recount := bytes.Clone(body)
	binary.LittleEndian.PutUint32(recount[len(empty)-8-4:], 2) // the payload count: 1 entry, now claimed as 2
	for i := range 3 {
		if _, err := dec.Payload(recount); err == nil {
			t.Fatalf("decode %d of a kept payload's entries under count 2 was accepted", i+1)
		}
	}
}

// BenchmarkDecodeEvents is the shared-strings-and-payloads guard: 20,000
// fleet events decoded through one table, as one connection decodes them.
// In "repeated" the Machine_Id takes 192 values, as on the fleet stream, so
// most payloads are handed out again; in "distinct" every event has its
// own, so every string value and payload lookup misses and the table adds
// only its cost; in "mixed" the Machine_Id repeats but each event also
// carries its own Seq, so every payload misses while its strings hit; in
// "wide" 600 payloads of 48 bytes repeat, 28.8 KB of text to keep.
// Compare allocs/op and ns/op with -benchmem -cpu 1.
func BenchmarkDecodeEvents(b *testing.B) {
	for _, c := range []struct {
		name, id string
		values   int
		seq      bool
	}{{"repeated", "m%05d", 192, false}, {"distinct", "m%05d", 20000, false}, {"mixed", "m%05d", 192, true}, {"wide", "m%028d", 600, false}} {
		b.Run(c.name, func(b *testing.B) {
			bodies := make([][]byte, 20000)
			for i := range bodies {
				p := event.Payload{"Machine_Id": fmt.Sprintf(c.id, i%c.values)}
				if c.seq {
					p["Seq"] = int64(i)
				}
				e := event.NewInsert(event.ID(i), "INSTALL", temporal.Time(i), temporal.Infinity, p)
				var err error
				if bodies[i], err = wal.AppendEvent(nil, e); err != nil {
					b.Fatal(err)
				}
			}
			dec := wal.NewDecoder()
			for b.Loop() {
				for _, body := range bodies {
					r := wal.NewReader(body, dec)
					r.Event()
					if err := r.Done(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// TestCrashAtEveryByte drives a crash at every byte offset of a small log's
// image and re-opens the survivor: recovery must always yield a prefix of
// the intended records, never an error, never reordered or invented data.
func TestCrashAtEveryByte(t *testing.T) {
	recs := sampleRecords()
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref")
	writeLog(t, ref, recs)
	img, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	want := withSeqs(recs)
	path := filepath.Join(dir, "crash")
	for cut := 0; cut <= len(img); cut++ {
		if err := os.WriteFile(path, img[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := wal.Open(path)
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		got := recovered(t, l)
		if len(got) > len(want) {
			t.Fatalf("cut=%d: recovered %d records from a %d-record image", cut, len(got), len(want))
		}
		if !reflect.DeepEqual(got, append([]wal.Record(nil), want[:len(got)]...)) {
			t.Fatalf("cut=%d: recovered records are not a prefix", cut)
		}
		l.Close()
	}
}
