package wal

import (
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
		e, _, _ := probe.Event(encode(1))
		maps[i] = reflect.ValueOf(e.Payload).UnsafePointer()
	}
	if maps[0] == maps[1] || maps[1] != maps[2] {
		t.Fatal("a payload at the sharing bound is not kept at its second decode and shared at its third")
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	dec := NewDecoder()
	for i := range 2 * n {
		if _, _, err := dec.Event(encode(i / 2)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(dec)
	held := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	// The tables themselves, then one map per slot: 16 heap bytes per
	// encoded byte covers a map of as many entries as event.SharedMax bytes hold.
	bound := int64(reflect.TypeFor[Decoder]().Size()) + event.TableSlots*16*event.SharedMax
	t.Logf("a Decoder after %d distinct %d-byte payloads: held %d B (bound %d B)", n, event.SharedMax, held, bound)
	if held > bound {
		t.Fatalf("a Decoder holds %d B after %d distinct payloads (bound %d B); its payload table is no longer bounded", held, n, bound)
	}
}
