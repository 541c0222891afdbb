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
// trusts anything in them: the frame header, then the register and push
// bodies the way conn.handle decodes them. Whatever the input, nothing may
// panic; reading and decoding must not allocate more than a constant times
// the bytes that arrived — a length prefix alone must not buy a frame-sized
// buffer — whether the bytes come buffered or one at a time; both ways must
// yield the same frames; and a register body the decoder accepts must
// survive appendRegister and a second decode unchanged (NaN compared as
// equal). The committed seeds cover every client→server frame type and run
// under plain `go test`; CI fuzzes it with
//
//	go test -run '^$' -fuzz '^FuzzReadFrame$' -fuzztime 30s ./internal/server
func FuzzReadFrame(f *testing.F) {
	spec := cedr.Spec{B: 5, M: 7}
	reg := func(src string, ro RegOptions) []byte {
		body, err := appendRegister(nil, src, ro)
		if err != nil {
			f.Fatal(err)
		}
		return appendFrame(nil, fRegister, body)
	}
	push := func(e event.Event) []byte {
		body, err := wal.AppendEvent(nil, e)
		if err != nil {
			f.Fatal(err)
		}
		return appendFrame(nil, fPush, body)
	}
	seeds := [][]byte{
		appendFrame(nil, fOpen, appendStr(nil, "sensors")),
		push(event.NewInsert(1, "HOT", 3, temporal.Infinity, event.Payload{"sensor": "A", "t": 71.5, "n": int64(-2), "ok": true})),
		push(event.NewRetract(1, "HOT", 3, 9, nil)),
		push(event.NewCTI(12)),
		// Larger than the first read's buffer: one at a time, it grows.
		push(event.NewInsert(2, "HOT", 4, temporal.Infinity, event.Payload{"blob": strings.Repeat("x", 5000)})),
		reg(stuckHot, RegOptions{}),
		reg("EVENT T WHEN ANY(HOT h) WHERE [sensor Equal $s]", RegOptions{Spec: &spec, Shards: -1, NoSharing: true,
			Bindings: event.Payload{"s": "A", "i": int64(3), "f": math.NaN(), "b": false}}),
		appendFrame(nil, fSubscribe, appendU32(nil, 1)),
		appendFrame(nil, fUnregister, appendU32(nil, 1)),
		appendFrame(nil, fSync, appendU64(nil, 42)),
		appendFrame(nil, fFinish, nil),
		appendFrame(nil, fStatus, appendU32(nil, 1)),
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

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, slow := range []bool{false, true} {
			if n, bound := readBytes(data, slow), 16*uint64(len(data))+4096; n > bound {
				t.Fatalf("reading %d bytes (one at a time: %v) allocated %d (bound %d)", len(data), slow, n, bound)
			}
		}
		frames := readFrames(connReader(data, false))
		if slow := readFrames(connReader(data, true)); !reflect.DeepEqual(frames, slow) {
			t.Fatalf("frames differ when the bytes arrive one at a time:\n got %v\nwant %v", slow, frames)
		}
		for _, fr := range frames {
			if fr.t != fRegister {
				continue
			}
			src, ro, err := decodeRegister(fr.body)
			if err != nil {
				continue
			}
			body, err := appendRegister(nil, src, regOptions(ro))
			if err != nil {
				t.Fatalf("accepted register body %+v does not re-encode: %v", ro, err)
			}
			src2, ro2, err := decodeRegister(body)
			if err != nil {
				t.Fatalf("re-encoded register body does not decode: %v", err)
			}
			if src2 != src || !reflect.DeepEqual(denanOpts(ro2), denanOpts(ro)) {
				t.Fatalf("round trip changed the register body\n got %q %+v\nwant %q %+v", src2, ro2, src, ro)
			}
		}
	})
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

func readFrames(br *bufio.Reader) []frame {
	var frames []frame
	for {
		t, body, err := readFrame(br)
		if err != nil {
			return frames
		}
		frames = append(frames, frame{t, body})
	}
}

// drain reads every frame of data and decodes the register and push bodies,
// as conn.handle does.
func drain(data []byte, slow bool) {
	br := connReader(data, slow)
	for {
		t, body, err := readFrame(br)
		if err != nil {
			return
		}
		switch t {
		case fRegister:
			decodeRegister(body)
		case fPush:
			r := &reader{b: body}
			r.event()
			r.done()
		}
	}
}

// readBytes is the heap bytes one drain of data allocates: the least of
// three measurements, since a fuzz worker's own goroutines allocate beside it.
func readBytes(data []byte, slow bool) uint64 {
	least := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for range 3 {
		runtime.ReadMemStats(&before)
		drain(data, slow)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// regOptions is the client-side view of decoded register options.
func regOptions(ro regOpts) RegOptions {
	o := RegOptions{Shards: ro.shards, NoSharing: ro.noShare, Bindings: ro.bindings}
	if ro.hasSpec {
		o.Spec = &ro.spec
	}
	return o
}

// denanOpts replaces NaN binding values with "NaN" and an empty binding set
// with none: a register frame cannot tell those apart.
func denanOpts(ro regOpts) regOpts {
	if len(ro.bindings) == 0 {
		ro.bindings = nil
		return ro
	}
	b := make(event.Payload, len(ro.bindings))
	for k, v := range ro.bindings {
		if f, ok := v.(float64); ok && f != f {
			v = "NaN"
		}
		b[k] = v
	}
	ro.bindings = b
	return ro
}
