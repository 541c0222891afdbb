package wal_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/consistency"
	"repro/internal/event"
	"repro/internal/temporal"
	"repro/internal/wal"
)

// FuzzDecodePayload fuzzes the decoder recovery runs over every record a log
// holds — bytes the checksum vouches for but nothing else does. Whatever
// the input, DecodePayload must not panic and must not allocate more than a
// constant times the input length (a forged count must not buy a giant
// allocation); decoding through a shared-strings table — fresh, holding the
// same record's strings already, or one whose slots all collide — must
// yield exactly what decoding without one does, value types included; and a
// record it accepts must survive AppendRecord and a second decode unchanged
// (NaN compared as equal). Bytes need not survive:
// retired flag bits 0x2/0x4, duplicate payload names and non-canonical bools
// all decode to a record whose canonical encoding differs. The committed
// seeds cover every Kind and run under plain `go test`; CI fuzzes it with
//
//	go test -run '^$' -fuzz '^FuzzDecodePayload$' -fuzztime 30s ./internal/wal
func FuzzDecodePayload(f *testing.F) {
	seeds := append(sampleRecords(),
		wal.Record{Kind: wal.KindRegister, Src: "EVENT T WHEN ANY(INSTALL x) WHERE [Machine_Id Equal $m]",
			Opts: wal.RegOpts{Shards: -1, Share: true, Bindings: map[string]event.Value{
				"m": "m007", "n": int64(-3), "i": 3, "f": math.NaN(), "b": false}}},
		wal.Record{Kind: wal.KindEvent, Ev: event.NewInsert(1, "T", 0, temporal.Infinity,
			event.Payload{"nan": math.NaN(), "neg0": math.Copysign(0, -1)})},
		wal.Record{Kind: wal.KindUnregister, Query: 3},
	)
	for i, r := range seeds {
		r.Seq = uint64(i + 1)
		frame, err := wal.AppendRecord(nil, r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[8:])
	}
	f.Add(registerPayload(20, "EVENT E WHEN SEQUENCE(A a, B b, 10)", 0x1|0x2|0x4, consistency.Strong(), 2))

	// Forged counts: each claims as many entries as there are bytes left,
	// which the bounds check used to admit — and the count, not the bytes,
	// sized the allocation.
	le := binary.LittleEndian
	tail := make([]byte, 4000)
	forged := func(b []byte) []byte { return append(le.AppendUint32(b, uint32(len(tail))), tail...) }
	noLineage := le.AppendUint32(nil, 0)
	evHead := func() []byte {
		frame, _ := wal.AppendRecord(nil, wal.Record{Seq: 1, Kind: wal.KindEvent, Ev: event.NewCTI(5)})
		return frame[8 : len(frame)-8] // drop the empty lineage and payload counts
	}
	f.Add(forged(evHead()))                       // lineage count
	f.Add(forged(append(evHead(), noLineage...))) // payload count
	reg := registerPayload(21, "EVENT T WHEN ANY(A a)", 0x10, consistency.Strong(), 1)
	f.Add(forged(reg)) // binding count

	// Registrations as a client frames them: a register frame's body is
	// AppendRegister's, the same bytes the log stores after seq and kind.
	wire := func(seq uint64, src string, o wal.RegOpts) []byte {
		b, err := wal.AppendRegister(append(le.AppendUint64(nil, seq), byte(wal.KindRegister)), src, o)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	const tmpl = "EVENT T WHEN ANY(HOT h) WHERE [sensor Equal $s]"
	f.Add(wire(22, tmpl, wal.RegOpts{HasSpec: true, Spec: consistency.Level(5, 7), Shards: -1, Share: true,
		Bindings: map[string]event.Value{"s": "A", "i": int64(3), "n": -4, "f": math.NaN(), "b": false}}))
	f.Add(wire(23, "EVENT E WHEN ANY(HOT h)", wal.RegOpts{Shards: math.MinInt32}))
	forgedWire := wire(24, tmpl, wal.RegOpts{Shards: -2, Bindings: map[string]event.Value{"s": "A"}})
	count := 8 + 1 + 4 + len(tmpl) + 1 + 16 + 4 // seq, kind, src, flags, spec, shards
	if le.Uint32(forgedWire[count:]) != 1 {
		f.Fatal("the binding count is not where the seeds forge it")
	}
	for _, n := range []uint32{2, uint32(len(forgedWire)), math.MaxUint32} {
		le.PutUint32(forgedWire[count:], n)
		f.Add(bytes.Clone(forgedWire))
	}

	// One string as type, name and value, and a value string past the
	// table's length cap: slots shared between names and boxed values.
	long := string(make([]byte, 100))
	shared, _ := wal.AppendRecord(nil, wal.Record{Seq: 1, Kind: wal.KindEvent, Ev: event.NewInsert(2, "m007", 0, 9,
		event.Payload{"m007": "m007", "Machine_Id": "m007", "long": long, long: "INSTALL"})})
	f.Add(shared[8:])

	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := wal.DecodePayload(payload)
		if n, bound := decodeBytes(payload), 16*uint64(len(payload))+4096; n > bound {
			t.Fatalf("decoding %d bytes allocated %d (bound %d)", len(payload), n, bound)
		}
		shared, collided := wal.NewDecoder(), new(wal.Decoder)
		for pass := range 2 { // the second pass hits what the first stored
			for _, dec := range []*wal.Decoder{shared, collided} {
				got, gotErr := dec.Payload(payload)
				if (gotErr == nil) != (err == nil) || !sameRecord(got, rec) {
					t.Fatalf("pass %d through shared strings decoded\n %+v (%v)\nwant\n %+v (%v)", pass, got, gotErr, rec, err)
				}
			}
		}
		if err != nil {
			return
		}
		frame, err := wal.AppendRecord(nil, rec)
		if err != nil {
			t.Fatalf("accepted record %+v does not re-encode: %v", rec, err)
		}
		back, err := wal.DecodePayload(frame[8:])
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		if !sameRecord(rec, back) {
			t.Fatalf("round trip changed the record\n got %+v\nwant %+v", back, rec)
		}
	})
}

// decodeBytes is the heap bytes one decode of payload allocates, through a
// fresh shared-strings table allocated beforehand (a scan's, made once):
// the least of three measurements, since a fuzz worker's own goroutines
// allocate beside the decoder.
func decodeBytes(payload []byte) uint64 {
	least := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for range 3 {
		dec := wal.NewDecoder()
		runtime.ReadMemStats(&before)
		dec.Payload(payload)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// sameRecord is reflect.DeepEqual with every NaN equal to every NaN.
func sameRecord(a, b wal.Record) bool {
	return reflect.DeepEqual(denan(a), denan(b))
}

func denan(r wal.Record) wal.Record {
	r.Ev.Payload = denanMap(r.Ev.Payload)
	r.Opts.Bindings = denanMap(r.Opts.Bindings)
	return r
}

func denanMap[M ~map[string]event.Value](m M) M {
	if m == nil {
		return nil
	}
	out := make(M, len(m))
	for k, v := range m {
		if f, ok := v.(float64); ok && f != f {
			v = "NaN"
		}
		out[k] = v
	}
	return out
}
