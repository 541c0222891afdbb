package wal

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/event"
	"repro/internal/temporal"
)

// TestDecoderRetainsBoundedPayloads: a Decoder keeps one payload per slot,
// and only a payload encoded in at most event.SharedMax bytes, so what one
// connection's table pins stays bounded however many distinct payloads it
// decodes. The payloads here sit at that bound and hold as many entries as
// fit — bool values under single-letter names, the most map per encoded
// byte — made distinct by which letters name them; each is decoded twice,
// so the table keeps it.
func TestDecoderRetainsBoundedPayloads(t *testing.T) {
	const n = 100_000
	const entry = 4 + 1 + 1 + 1 // name length, name, tag, bool
	const entries, pick = event.SharedMax / entry, 5
	var body []byte
	encode := func(i int) []byte {
		p := make(event.Payload, entries)
		for j := range entries { // entry j from letters [pick*j, pick*j+pick): sorted
			name := string(rune('A' + pick*j + i%pick))
			if j == 0 {
				name += strings.Repeat("A", event.SharedMax%entry) // fill the bound exactly
			}
			p[name] = true
			i /= pick
		}
		var err error
		if body, err = AppendEvent(body[:0], event.NewInsert(0, "T", 0, temporal.Infinity, p)); err != nil {
			t.Fatal(err)
		}
		return body
	}
	empty, _ := AppendEvent(nil, event.NewInsert(0, "T", 0, temporal.Infinity, nil))
	if span := len(encode(0)) - len(empty); span != event.SharedMax {
		t.Fatalf("the payload encodes in %d bytes, want the sharing bound %d", span, event.SharedMax)
	}
	probe := NewDecoder()
	var maps [3]unsafe.Pointer
	for i := range maps {
		r := NewReader(encode(1), probe)
		maps[i] = reflect.ValueOf(r.Event().Payload).UnsafePointer()
	}
	if maps[0] == maps[1] || maps[1] != maps[2] {
		t.Fatal("a payload at the sharing bound is not kept at its second decode and shared at its third")
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	dec := NewDecoder()
	for i := range 2 * n {
		r := NewReader(encode(i/2), dec)
		r.Event()
		if err := r.Done(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(dec)
	held := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	// The tables themselves, then one map per slot and its kept text in the
	// spill arena: 16 heap bytes per encoded byte covers a map of as many
	// entries as event.SharedMax bytes hold, and the text.
	bound := int64(reflect.TypeFor[Decoder]().Size()) + event.TableSlots*16*event.SharedMax
	t.Logf("a Decoder after %d distinct %d-byte payloads: held %d B (bound %d B)", n, event.SharedMax, held, bound)
	if held > bound {
		t.Fatalf("a Decoder holds %d B after %d distinct payloads (bound %d B); its payload table is no longer bounded", held, n, bound)
	}
}

// TestForgedLengthPrefix: a length prefix claiming more than the bytes left
// is a torn tail, and buys nothing, since recovery decodes the image where
// it lies. Opening a 32-byte log — the magic, one frame header claiming
// maxBody, 16 body bytes — keeps no record and allocates under 64 KiB; a
// scan that streamed the file sized its payload buffer from the prefix
// and allocated 67 MB.
func TestForgedLengthPrefix(t *testing.T) {
	img := binary.LittleEndian.AppendUint32([]byte(Magic), maxBody)
	img = append(img, make([]byte, 4+16)...) // the checksum, then the body
	path := filepath.Join(t.TempDir(), "wal")
	least := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for range 3 { // the least of three: the runtime allocates beside the test
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&before)
		l, err := Open(path)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if kept := l.TakeRecovered(); len(kept) > len(Magic) || l.LastSeq() != 0 {
			t.Fatalf("recovery kept %d bytes, up to seq %d, of a log whose one frame is torn", len(kept), l.LastSeq())
		}
		l.Close()
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	const bound = 64 << 10
	t.Logf("opening a %d-byte log whose length prefix claims %d bytes: %d B allocated (bound %d B)", len(img), maxBody, least, bound)
	if least > bound {
		t.Fatalf("opening a %d-byte log allocated %d B (bound %d B); a forged length prefix sizes an allocation again", len(img), least, bound)
	}
}

// TestForgedLineageCountSizesNoChunk: a Decoder carves lineage from chunks
// of idsLen IDs, and a lineage count sizes no chunk: a count past the bytes
// left fails the event before anything is allocated, and a lineage longer
// than idsLen — which the bytes left do hold — gets an array of its own
// while the chunk stays as it was.
func TestForgedLineageCountSizesNoChunk(t *testing.T) {
	encode := func(n int) []byte {
		e := event.NewInsert(1, "INSTALL", 3, 9, nil)
		for i := range n {
			e.CBT = append(e.CBT, event.ID(i+1))
		}
		b, err := AppendEvent(nil, e)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	d := NewDecoder()
	forged := encode(2)
	binary.LittleEndian.PutUint32(forged[len(forged)-4-2*8-4:], 1<<28)
	r := NewReader(forged, d)
	if r.Event(); r.Done() == nil || d.ids != nil {
		t.Fatalf("a forged lineage count decoded (%v), leaving a %d-ID chunk", r.Done(), cap(d.ids))
	}
	r = NewReader(encode(idsLen+1), d)
	if e := r.Event(); r.Done() != nil || len(e.CBT) != idsLen+1 || d.ids != nil {
		t.Fatalf("a %d-ID lineage decoded as %d IDs (%v), leaving a %d-ID chunk", idsLen+1, len(e.CBT), r.Done(), cap(d.ids))
	}
	var kept [][]event.ID
	for range 2*idsLen/3 + 1 {
		r = NewReader(encode(3), d)
		e := r.Event()
		if r.Done() != nil || !reflect.DeepEqual(e.CBT, []event.ID{1, 2, 3}) || cap(e.CBT) != 3 || cap(d.ids) != idsLen {
			t.Fatalf("a 3-ID lineage decoded as %v (cap %d, %v) from a %d-ID chunk", e.CBT, cap(e.CBT), r.Done(), cap(d.ids))
		}
		kept = append(kept, e.CBT)
	}
	for _, cbt := range kept {
		if !reflect.DeepEqual(cbt, []event.ID{1, 2, 3}) {
			t.Fatalf("a later decode wrote an earlier lineage: %v", cbt)
		}
	}
}
