//go:build !race

package server

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/event"
	"repro/internal/temporal"
	"repro/internal/wal"
)

// Allocation ceilings of the serve path: neither end of a connection
// allocates per frame in the steady state except for what a decoded event
// or a queued output frame must own. (Skipped under -race: instrumentation
// changes allocation counts.)

// install is a fleet-stream event: what every push of serve-durable carries.
func install(i int) event.Event {
	return event.NewInsert(event.ID(i), "INSTALL", temporal.Time(i), temporal.Infinity,
		event.Payload{"Machine_Id": []string{"m001", "m002", "m003"}[i%3]})
}

func TestAllocsClientPush(t *testing.T) {
	c := &Client{bw: bufio.NewWriterSize(io.Discard, 64<<10)}
	e := install(1)
	allocs := testing.AllocsPerRun(1000, func() {
		if err := c.Push(e); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Client.Push: %.2f allocs/push (ceiling 0)", allocs)
	if allocs > 0 {
		t.Fatalf("Client.Push allocates %.2f objects per push; the frame is no longer encoded in place", allocs)
	}
}

// pushFrames is n push frames of fleet events.
func pushFrames(t *testing.T, n int) []byte {
	var data []byte
	for i := range n {
		body, err := wal.AppendEvent(nil, install(i))
		if err != nil {
			t.Fatal(err)
		}
		data = append(data, frameOf(fPush, body)...)
	}
	return data
}

func TestAllocsFrameReader(t *testing.T) {
	const runs = 1000
	fr := frameReader{br: bufio.NewReaderSize(bytes.NewReader(pushFrames(t, runs+1)), 64<<10)}
	allocs := testing.AllocsPerRun(runs, func() {
		if _, _, err := fr.next(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("frame reader: %.2f allocs/frame (ceiling 0)", allocs)
	if allocs > 0 {
		t.Fatalf("the frame reader allocates %.2f objects per frame; its body buffer is no longer reused", allocs)
	}

	// One frame past the retention bound must not pin its buffer.
	big := frameOf(fPush, []byte(strings.Repeat("x", maxRetained+1)))
	fr = frameReader{br: bufio.NewReader(bytes.NewReader(append(big, pushFrames(t, 1)...)))}
	for range 2 {
		if _, _, err := fr.next(); err != nil {
			t.Fatal(err)
		}
	}
	if cap(fr.buf) > maxRetained {
		t.Fatalf("after a %d-byte frame and a small one the reader keeps a %d-byte buffer (bound %d)", len(big), cap(fr.buf), maxRetained)
	}
}

func TestAllocsPushDecode(t *testing.T) {
	dec := wal.NewDecoder()
	decode := func(body []byte) {
		r := wal.NewReader(body, dec)
		r.Event()
		if err := r.Done(); err != nil {
			t.Fatal(err)
		}
	}
	body, err := wal.AppendEvent(nil, install(1))
	if err != nil {
		t.Fatal(err)
	}
	decode(body) // AllocsPerRun's warm-up run is the second decode, which keeps the payload
	allocs := testing.AllocsPerRun(1000, func() { decode(body) })
	t.Logf("push-frame decode of a repeated event: %.2f allocs/frame (ceiling 0)", allocs)
	if allocs > 0 {
		t.Fatalf("decoding a repeated push allocates %.2f objects; its strings or its payload are no longer shared", allocs)
	}

	// Every payload distinct: each decode misses and pays what decoding
	// without a table does — the map, the value string and its box.
	const runs = 1000
	bodies := make([][]byte, runs+1) // AllocsPerRun adds a warm-up run
	for i := range bodies {
		e := install(i)
		e.Payload = event.Payload{"Machine_Id": fmt.Sprintf("m%05d", i)}
		if bodies[i], err = wal.AppendEvent(nil, e); err != nil {
			t.Fatal(err)
		}
	}
	next := 0
	allocs = testing.AllocsPerRun(runs, func() {
		decode(bodies[next])
		next++
	})
	const ceiling = 4.0
	t.Logf("push-frame decode of a distinct event: %.2f allocs/frame (ceiling %.0f)", allocs, ceiling)
	if allocs > ceiling {
		t.Fatalf("decoding a distinct push allocates %.2f objects, above the pinned ceiling %.0f; a payload miss costs more than decoding without a table", allocs, ceiling)
	}
}

func TestAllocsEgress(t *testing.T) {
	box := newOutbox(1, nil)
	send := box.egress(wireOutput(1))
	out := install(1)
	out.CBT = []event.ID{1}
	allocs := testing.AllocsPerRun(1000, func() {
		send(out, 7)
		<-box.ch
	})
	const ceiling = 1.0 // the queued copy
	t.Logf("subscriber egress: %.2f allocs/output frame (ceiling %.0f)", allocs, ceiling)
	if allocs > ceiling {
		t.Fatalf("an output frame costs %.2f allocations, above the pinned ceiling %.0f; it is no longer encoded into the subscription's scratch buffer", allocs, ceiling)
	}
}
