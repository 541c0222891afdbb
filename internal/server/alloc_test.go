//go:build !race

package server

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/event"
	"repro/internal/temporal"
	"repro/internal/wal"
)

// Allocation ceilings of the serve path: neither end of a connection
// allocates per frame in the steady state except for what a decoded event
// must own. (Skipped under -race: instrumentation changes allocation
// counts.)

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
	box := newOutbox(1, new(egressStats), nil)
	send := box.egress(wireOutput(1))
	out := install(1)
	out.CBT = []event.ID{1}
	allocs := testing.AllocsPerRun(1000, func() {
		send(out, 7)
		if err := box.flush(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 0
	t.Logf("subscriber egress: %.2f allocs/output frame (ceiling %d)", allocs, ceiling)
	if allocs > ceiling {
		t.Fatalf("an output frame costs %.2f allocations, above the pinned ceiling %d; it is no longer encoded into the subscription's scratch buffer and copied into a reused block", allocs, ceiling)
	}
}

// TestOutboxRetainsOneBlock: an outbox's memory follows what it queues, not
// its frame bound. A new one allocates no queue (a channel at the bound was
// 96 KiB at DefaultQueue), and after 10,000 output frames are queued and
// written it holds one block, the block lists' headers and itself.
func TestOutboxRetainsOneBlock(t *testing.T) {
	const boxes = 100
	kept, stats := make([]*outbox, boxes), new(egressStats)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range kept {
		kept[i] = newOutbox(DefaultQueue, stats, nil)
	}
	runtime.ReadMemStats(&after)
	perBox := (after.TotalAlloc - before.TotalAlloc) / boxes
	t.Logf("a new outbox at DefaultQueue allocates %d B (ceiling 1024)", perBox)
	if perBox >= 1<<10 {
		t.Fatalf("a new outbox allocates %d B; its queue is sized by the bound, not by what it holds", perBox)
	}

	out := install(1)
	out.CBT = []event.ID{1}
	held, headers := int64(math.MaxInt64), 0
	for range 3 { // the least of three: the runtime allocates beside the test
		base := liveHeap()
		box := newOutbox(DefaultQueue, stats, nil)
		send := box.egress(wireOutput(1))
		for i := range 10_000 {
			send(out, uint64(i))
			if i%1000 == 999 {
				if err := box.flush(io.Discard); err != nil {
					t.Fatal(err)
				}
			}
		}
		held = min(held, int64(liveHeap())-int64(base))
		headers = (cap(box.blocks) + cap(box.free)) * int(unsafe.Sizeof([]byte(nil)))
	}
	bound := int64(blockSize+headers) + 2<<10 // + the outbox, its channels and scratch frame
	t.Logf("an outbox after 10,000 frames queued and written held %d B (bound %d B)", held, bound)
	if held > bound {
		t.Fatalf("an outbox holds %d B after its frames were written, above one %d-B block, %d B of list headers and 2 KiB", held, blockSize, headers)
	}
	runtime.KeepAlive(kept)
}
