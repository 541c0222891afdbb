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
// the input, decoding without a table must not panic and must not allocate
// more than a constant times the input length (a forged count must not buy
// a giant allocation); decoding through a Decoder's shared strings and payloads — a
// fresh table, one pre-filled with every seed, or the zero Decoder, its one
// slot holding each seed in turn — must yield exactly what decoding without
// one does, value types and float bits included, on a first decode, a
// second (which keeps the payload) and a third (which is handed it); no
// decode may change a payload handed out earlier; an accepted payload
// whose text (its entries) fits the table and names as many distinct names
// as its count claims must be handed out by the fresh table at the third —
// in whatever encoding, since a kept map is handed out again for the very
// text it was decoded from, never for a re-encoding; and a record
// it accepts must survive AppendRecord and a second decode unchanged. Scan
// reads each input too, as given and after wal.Magic: it must not panic,
// must allocate no more than its table and a constant times the input, and
// must return an offset on a record boundary within the image. Bytes
// need not survive: retired flag bits 0x2/0x4, duplicate payload names and
// non-canonical bools all decode to a record whose canonical encoding
// differs. The committed seeds cover every Kind and payloads a table must
// not confuse — duplicate names, NaN and −0, int(3) beside int64(3), a
// non-canonical bool — and run under plain `go test`; CI fuzzes it with
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
	// Payloads equal under ==, or under a check that ignores types or
	// assumes distinct names, that a shared table must still tell apart.
	for _, p := range []event.Payload{
		{"n": 3}, {"n": int64(3)}, {"n": 3.0},
		{"f": math.NaN()}, {"f": -math.NaN()}, {"f": math.Copysign(0, -1)}, {"f": 0.0},
		{"b": false}, {"b": true}, {"a": int64(1)}, {"a": int64(1), "b": int64(1)}, {"a": int64(1), "b": int64(2)},
	} {
		seeds = append(seeds, wal.Record{Kind: wal.KindEvent, Ev: event.NewInsert(3, "T", 0, 9, p)})
	}
	var prefill [][]byte // every seed record, for the pre-filled tables
	img := []byte(wal.Magic)
	for i := range seeds {
		seeds[i].Seq = uint64(i + 1)
		frame, err := wal.AppendRecord(nil, seeds[i])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[8:])
		prefill = append(prefill, frame[8:])
		img = append(img, frame...)
	}
	// Non-canonical encodings of the last four: true as 2, a payload that
	// does not end its record, and "a" named twice — a:1 twice has two
	// entries, all of them in {a:1, b:1}.
	last := func(i int) []byte { return bytes.Clone(prefill[len(prefill)-i]) }
	two := last(4)
	two[len(two)-1] = 2
	f.Add(two)
	f.Add(append(last(3), 0))
	for _, dup := range [][]byte{last(2), last(1)} {
		dup[bytes.LastIndex(dup, []byte("\x01\x00\x00\x00b"))+4] = 'a'
		f.Add(dup)
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

	// Log images, which Scan reads as given and after the magic: every
	// seed's frame, then a torn length prefix; the same frames without the
	// magic or the last byte, a torn body.
	f.Add(append(img, 1, 2, 3))
	f.Add(img[len(wal.Magic) : len(img)-1])

	// A kept payload's entries under another count: {a:1}, claimed as two
	// entries, which the pre-filled table must not hand out.
	recount := last(3)
	le.PutUint32(recount[bytes.LastIndex(recount, []byte("\x01\x00\x00\x00a"))-4:], 2)
	f.Add(recount)

	table := scanBytes(nil) // what Scan allocates before it reads a byte
	f.Fuzz(func(t *testing.T, payload []byte) {
		for _, img := range [][]byte{append([]byte(wal.Magic), payload...), payload} {
			checkScan(t, img, table)
		}
		rec, err := noTable.Payload(payload)
		if n, bound := decodeBytes(payload), 16*uint64(len(payload))+4096; n > bound {
			t.Fatalf("decoding %d bytes allocated %d (bound %d)", len(payload), n, bound)
		}
		// Every record handed out, with a copy taken when it was.
		var handed, copies []wal.Record
		decode := func(dec *wal.Decoder, b []byte) (wal.Record, error) {
			got, err := dec.Payload(b)
			handed, copies = append(handed, got), append(copies, exact(got))
			return got, err
		}
		fresh, filled, collided := wal.NewDecoder(), wal.NewDecoder(), new(wal.Decoder)
		for _, q := range prefill {
			decode(filled, q)
			decode(filled, q) // kept at its second decode
		}
		check := func(pass int, what string, dec *wal.Decoder) wal.Record {
			got, gotErr := decode(dec, payload)
			if (gotErr == nil) != (err == nil) || !sameRecord(got, rec) {
				t.Fatalf("pass %d through %s decoded\n %+v (%v)\nwant\n %+v (%v)", pass, what, got, gotErr, rec, err)
			}
			return got
		}
		// The second pass keeps the input, the third hits it: kept and hit
		// are what the fresh table hands out there.
		var kept, hit event.Payload
		for pass := range 3 {
			kept, hit = hit, check(pass, "a fresh table", fresh).Ev.Payload
			check(pass, "a pre-filled table", filled)
			for i, q := range prefill { // the one slot holding each seed in turn
				for range 2 {
					if got, _ := decode(collided, q); !sameRecord(got, seeds[i]) {
						t.Fatalf("pass %d: the zero Decoder decoded seed %d as\n %+v\nwant\n %+v", pass, i, got, seeds[i])
					}
				}
				check(pass, "the zero Decoder", collided)
			}
		}
		for i, r := range handed {
			if !reflect.DeepEqual(exact(r), copies[i]) {
				t.Fatalf("a later decode changed the record handed out by decode %d:\n %+v\nwas\n %+v", i, exact(r), copies[i])
			}
		}
		if err != nil {
			return
		}
		if len(rec.Ev.Payload) > 0 {
			bare := rec
			bare.Ev.Payload = nil
			head, _ := wal.AppendRecord(nil, bare)
			at := len(head) - 8 // the payload's entries start after its count
			if len(payload)-at <= event.SharedMax && int(le.Uint32(payload[at-4:])) == len(rec.Ev.Payload) &&
				reflect.ValueOf(kept).UnsafePointer() != reflect.ValueOf(hit).UnsafePointer() {
				t.Fatalf("a payload whose %d-byte text fits the table was not handed out at its third decode", len(payload)-at)
			}
		}
		frame, err := wal.AppendRecord(nil, rec)
		if err != nil {
			t.Fatalf("accepted record %+v does not re-encode: %v", rec, err)
		}
		back, err := noTable.Payload(frame[8:])
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		if !sameRecord(rec, back) {
			t.Fatalf("round trip changed the record\n got %+v\nwant %+v", back, rec)
		}
	})
}

// checkScan scans img, which must not panic, must allocate no more than a
// table and a constant times the input, and must return the end of the
// last record it handed fn — each starting where the one before ended —
// or 0 for an image with a wrong magic.
func checkScan(t *testing.T, img []byte, table uint64) {
	var at int64
	if len(img) >= len(wal.Magic) {
		at = int64(len(wal.Magic))
	}
	good, err := wal.Scan(img, func(_ wal.Record, start, end int64) error {
		if start != at || end <= start || end > int64(len(img)) {
			t.Fatalf("Scan of %d bytes handed out a record at [%d, %d) after one ending at %d", len(img), start, end, at)
		}
		at = end
		return nil
	})
	if err != nil {
		at = 0
	}
	if good != at {
		t.Fatalf("Scan of %d bytes returned offset %d (%v), want %d: the end of the last record it handed out", len(img), good, err, at)
	}
	if n, bound := scanBytes(img), table+16*uint64(len(img))+4096; n > bound {
		t.Fatalf("scanning %d bytes allocated %d (bound %d)", len(img), n, bound)
	}
}

// scanBytes is the heap bytes one Scan of img allocates, its table
// included: the least of three measurements.
func scanBytes(img []byte) uint64 {
	least := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for range 3 {
		runtime.ReadMemStats(&before)
		wal.Scan(img, nil)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
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

// sameRecord is reflect.DeepEqual — which compares payload values' dynamic
// types — with floats compared by their bits: NaN equals the same NaN, and
// −0 differs from 0.
func sameRecord(a, b wal.Record) bool {
	return reflect.DeepEqual(exact(a), exact(b))
}

// exact copies r's payload and bindings with every float replaced by its
// bits.
func exact(r wal.Record) wal.Record {
	r.Ev.Payload = floatBits(r.Ev.Payload)
	r.Opts.Bindings = floatBits(r.Opts.Bindings)
	return r
}

type bits uint64

func floatBits[M ~map[string]event.Value](m M) M {
	if m == nil {
		return nil
	}
	out := make(M, len(m))
	for k, v := range m {
		if f, ok := v.(float64); ok {
			v = bits(math.Float64bits(f))
		}
		out[k] = v
	}
	return out
}
