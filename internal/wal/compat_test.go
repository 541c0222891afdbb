// Format compatibility: registration records written before the
// standing-query fabric (no Share flag, no Bindings section) must keep
// decoding, and the extended records must round-trip.
package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"testing"

	"repro/internal/consistency"
	"repro/internal/event"
)

// TestDecodeOldFormatRegister hand-assembles a KindRegister record exactly
// as the pre-fabric encoder framed it — flags byte without bits 8/16, the
// payload ending right after Shards — and decodes it.
func TestDecodeOldFormatRegister(t *testing.T) {
	const src = "EVENT E WHEN ANY(INSTALL x)"
	payload := AppendU64(nil, 1)
	payload = append(payload, byte(KindRegister))
	payload = AppendStr(payload, src)
	payload = append(payload, byte(1)) // HasSpec — the only old flag set
	payload = appendSpec(payload, consistency.Strong())
	payload = AppendU32(payload, 4) // Shards

	file := append([]byte(nil), Magic...)
	file = binary.LittleEndian.AppendUint32(file, uint32(len(payload)))
	file = binary.LittleEndian.AppendUint32(file, crc32.Checksum(payload, castagnoli))
	file = append(file, payload...)

	recs, good, err := ReadAll(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	if good != int64(len(file)) || len(recs) != 1 {
		t.Fatalf("decoded %d records over %d bytes, want 1 over %d", len(recs), good, len(file))
	}
	rec := recs[0]
	if rec.Kind != KindRegister || rec.Src != src || rec.Opts.Shards != 4 || !rec.Opts.HasSpec {
		t.Fatalf("old-format record decoded wrong: %+v", rec)
	}
	if rec.Opts.Share || rec.Opts.Bindings != nil {
		t.Fatalf("old-format record grew fabric fields: %+v", rec.Opts)
	}
}

// TestRegisterBindingsRoundTrip: the extended record — Share flag plus a
// sorted bindings section — survives encode/decode byte-exactly, and so
// does KindUnregister.
func TestRegisterBindingsRoundTrip(t *testing.T) {
	recs := []Record{
		{Seq: 1, Kind: KindRegister, Src: "EVENT E WHEN ANY(INSTALL x) WHERE [m Equal $id]",
			Opts: RegOpts{
				HasSpec: true, Spec: consistency.Middle(), Shards: 2, Share: true,
				Bindings: map[string]event.Value{"id": "m007", "limit": int64(3)},
			}},
		{Seq: 2, Kind: KindUnregister, Query: 17},
	}
	buf := append([]byte(nil), Magic...)
	var err error
	for _, rec := range recs {
		if buf, err = AppendRecord(buf, rec); err != nil {
			t.Fatal(err)
		}
	}
	got, good, err := ReadAll(bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	if good != int64(len(buf)) || len(got) != len(recs) {
		t.Fatalf("decoded %d records over %d bytes", len(got), good)
	}
	if !reflect.DeepEqual(got[0].Opts, recs[0].Opts) {
		t.Errorf("register opts round trip:\n got %+v\nwant %+v", got[0].Opts, recs[0].Opts)
	}
	if got[1].Kind != KindUnregister || got[1].Query != 17 {
		t.Errorf("unregister round trip: %+v", got[1])
	}
}
