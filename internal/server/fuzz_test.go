package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"repro"
	"repro/internal/event"
	"repro/internal/temporal"
	"repro/internal/wal"
)

// FuzzReadFrame fuzzes the bytes a server reads from a connection before it
// trusts anything in them: the frame header, then the register, push and
// output bodies the way conn.handle and the client decode them. Whatever the
// input, nothing may panic; reading and decoding must not allocate more than
// a constant times the bytes that arrived — a length prefix alone must not
// buy a frame-sized buffer — whether the bytes come buffered or one at a
// time; both ways, and a fresh reader per frame, must yield the same frames
// as one reader reusing its buffer; an event body must decode the same
// through a connection's shared strings, and through a table whose slots
// all collide, as without one (types and NaN included) — register bodies
// too; and a register body the decoder accepts must survive
// wal.AppendRegister and a second decode unchanged (NaN compared as equal):
// the frame and the log share that one register codec. The committed seeds
// cover every client→server frame type and run under plain `go test`; CI
// fuzzes it with
//
//	go test -run '^$' -fuzz '^FuzzReadFrame$' -fuzztime 30s ./internal/server
func FuzzReadFrame(f *testing.F) {
	spec := cedr.Spec{B: 5, M: 7}
	reg := func(src string, o wal.RegOpts) []byte {
		body, err := wal.AppendRegister(nil, src, o)
		if err != nil {
			f.Fatal(err)
		}
		return frameOf(fRegister, body)
	}
	push := func(e event.Event) []byte {
		body, err := wal.AppendEvent(nil, e)
		if err != nil {
			f.Fatal(err)
		}
		return frameOf(fPush, body)
	}
	hot := func(id event.ID, sensor string) []byte {
		return push(event.NewInsert(id, "HOT", 3, temporal.Infinity, event.Payload{"sensor": sensor, "t": 71.5}))
	}
	seeds := [][]byte{
		frameOf(fOpen, appendStr(nil, "sensors")),
		push(event.NewInsert(1, "HOT", 3, temporal.Infinity, event.Payload{"sensor": "A", "t": 71.5, "n": int64(-2), "ok": true})),
		push(event.NewRetract(1, "HOT", 3, 9, nil)),
		push(event.NewCTI(12)),
		// Larger than the first read's buffer: one at a time, it grows.
		push(event.NewInsert(2, "HOT", 4, temporal.Infinity, event.Payload{"blob": strings.Repeat("x", 5000)})),
		reg(stuckHot, wal.RegOpts{Share: true}),
		reg("EVENT T WHEN ANY(HOT h) WHERE [sensor Equal $s]", wal.RegOpts{HasSpec: true, Spec: spec, Shards: -1,
			Bindings: event.Payload{"s": "A", "i": int64(3), "f": math.NaN(), "b": false}}),
		frameOf(fSubscribe, appendU32(nil, 1)),
		frameOf(fUnregister, appendU32(nil, 1)),
		frameOf(fSync, appendU64(nil, 42)),
		frameOf(fFinish, nil),
		frameOf(fStatus, appendU32(nil, 1)),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Add(bytes.Join(seeds, nil)) // one whole session
	// Bare length prefixes claiming the largest frame: four bytes used to
	// make the server allocate maxFrame.
	maxHead := binary.LittleEndian.AppendUint32(nil, maxFrame)
	f.Add(maxHead)
	f.Add(append(maxHead, byte(fPush), 1, 2, 3))
	// A frame past the retention bound, then small ones that repeat and
	// alternate their strings: the reused buffer is dropped and regrown, and
	// the shared strings hit.
	big := push(event.NewInsert(3, "HOT", 5, temporal.Infinity, event.Payload{"blob": strings.Repeat("y", maxRetained+100)}))
	f.Add(bytes.Join([][]byte{big, hot(4, "A"), hot(5, "B"), hot(6, "A"), hot(7, "B")}, nil))
	// An output frame as the client reads one.
	out, err := wal.AppendEvent(appendU64(appendU32(nil, 2), 9), event.NewInsert(8, "Echo", 5, 7, event.Payload{"sensor": "A"}))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frameOf(fOutput, out))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, slow := range []bool{false, true} {
			if n, bound := readBytes(data, slow), 16*uint64(len(data))+4096; n > bound {
				t.Fatalf("reading %d bytes (one at a time: %v) allocated %d (bound %d)", len(data), slow, n, bound)
			}
		}
		frames := readFrames(connReader(data, false), false)
		if slow := readFrames(connReader(data, true), false); !reflect.DeepEqual(frames, slow) {
			t.Fatalf("frames differ when the bytes arrive one at a time:\n got %v\nwant %v", slow, frames)
		}
		if fresh := readFrames(connReader(data, false), true); !reflect.DeepEqual(frames, fresh) {
			t.Fatalf("frames differ between one reused reader and a fresh one per frame:\n got %v\nwant %v", fresh, frames)
		}
		shared, collided := wal.NewDecoder(), new(wal.Decoder)
		for _, fr := range frames {
			switch fr.t {
			case fPush, fOutput:
				want, wantErr := decodeBody(fr, nil)
				for _, dec := range []*wal.Decoder{shared, collided} {
					got, err := decodeBody(fr, dec)
					if (err == nil) != (wantErr == nil) || !sameEvent(got, want) {
						t.Fatalf("%v body decodes differently through shared strings:\n got %v (%v)\nwant %v (%v)", fr.t, got, err, want, wantErr)
					}
				}
			case fRegister:
				src, o, err := readRegister(fr.body, nil)
				for _, dec := range []*wal.Decoder{shared, collided} {
					src2, o2, err2 := readRegister(fr.body, dec)
					if (err2 == nil) != (err == nil) || src2 != src || !reflect.DeepEqual(exactOpts(o2), exactOpts(o)) {
						t.Fatalf("register body decodes differently through shared strings:\n got %q %+v (%v)\nwant %q %+v (%v)", src2, o2, err2, src, o, err)
					}
				}
				if err != nil {
					continue
				}
				body, err := wal.AppendRegister(nil, src, o)
				if err != nil {
					t.Fatalf("accepted register body %+v does not re-encode: %v", o, err)
				}
				src2, o2, err := readRegister(body, nil)
				if err != nil {
					t.Fatalf("re-encoded register body does not decode: %v", err)
				}
				if src2 != src || !reflect.DeepEqual(exactOpts(o2), exactOpts(o)) {
					t.Fatalf("round trip changed the register body\n got %q %+v\nwant %q %+v", src2, o2, src, o)
				}
			}
		}
	})
}

// frameOf encodes one frame.
func frameOf(t frameType, body []byte) []byte {
	return endFrame(append(beginFrame(nil, t), body...))
}

type frame struct {
	t    frameType
	body []byte
}

// connReader serves data the way a connection does: buffered, as the
// server's reader, or one byte per read, as a slow link.
func connReader(data []byte, slow bool) *bufio.Reader {
	var r io.Reader = bytes.NewReader(data)
	if slow {
		return bufio.NewReaderSize(iotest.OneByteReader(r), 16)
	}
	return bufio.NewReaderSize(r, len(data)+16)
}

// readFrames reads every frame of br, copying each body before the next
// read: through one frameReader, as a connection does, or a fresh one per
// frame.
func readFrames(br *bufio.Reader, fresh bool) []frame {
	var frames []frame
	fr := &frameReader{br: br}
	for {
		if fresh {
			fr = &frameReader{br: br}
		}
		t, body, err := fr.next()
		if err != nil {
			return frames
		}
		frames = append(frames, frame{t, bytes.Clone(body)})
	}
}

// decodeBody decodes a push or output body through dec, as the server and
// the client do.
func decodeBody(fr frame, dec *wal.Decoder) (event.Event, error) {
	r := &reader{b: fr.body, dec: dec}
	if fr.t == fOutput {
		r.u32()
		r.u64()
	}
	e := r.event()
	return e, r.done()
}

// readRegister decodes a register body through dec, as the server does.
func readRegister(body []byte, dec *wal.Decoder) (string, wal.RegOpts, error) {
	r := &reader{b: body, dec: dec}
	src, o := r.register()
	return src, o, r.done()
}

// drain reads every frame of data and decodes the register, push and output
// bodies, as a connection does.
func drain(data []byte, slow bool, dec *wal.Decoder) {
	fr := frameReader{br: connReader(data, slow)}
	for {
		t, body, err := fr.next()
		if err != nil {
			return
		}
		switch t {
		case fRegister:
			readRegister(body, dec)
		case fPush, fOutput:
			decodeBody(frame{t, body}, dec)
		}
	}
}

// readBytes is the heap bytes one drain of data allocates, through a fresh
// shared-strings table allocated beforehand (a connection's, made once at
// its handshake): the least of three measurements, since a fuzz worker's own
// goroutines allocate beside it.
func readBytes(data []byte, slow bool) uint64 {
	least := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for range 3 {
		dec := wal.NewDecoder()
		runtime.ReadMemStats(&before)
		drain(data, slow, dec)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// sameEvent is reflect.DeepEqual — which compares payload values' dynamic
// types — with floats compared by their bits: NaN equals the same NaN, and
// −0 differs from 0.
func sameEvent(a, b event.Event) bool {
	a.Payload, b.Payload = floatBits(a.Payload), floatBits(b.Payload)
	return reflect.DeepEqual(a, b)
}

// exactOpts replaces float binding values with their bits.
func exactOpts(o wal.RegOpts) wal.RegOpts {
	o.Bindings = floatBits(o.Bindings)
	return o
}

type bits uint64

// floatBits copies p with every float replaced by its bits.
func floatBits[M ~map[string]event.Value](p M) M {
	if p == nil {
		return nil
	}
	out := make(M, len(p))
	for k, v := range p {
		if f, ok := v.(float64); ok {
			v = bits(math.Float64bits(f))
		}
		out[k] = v
	}
	return out
}
