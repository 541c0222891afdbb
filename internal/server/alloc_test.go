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

	"repro"
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

// TestAllocsClientOutputDecode: the client's decoder carves each output's
// lineage from its chunk, so n output frames of a fleet detection with a
// one-ID lineage, decoded as the client's reader does, cost at most n/32
// allocations (64 lineages fill a chunk); a lineage of its own per frame
// was n. Every output keeps its own IDs.
func TestAllocsClientOutputDecode(t *testing.T) {
	const n = 4096
	bodies := make([][]byte, n)
	for i := range bodies {
		e := install(i)
		e.CBT = []event.ID{event.ID(i)}
		body, err := wal.AppendEvent(wal.AppendU64(wal.AppendU32(nil, 1), uint64(i)), e)
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = body
	}
	dec := wal.NewDecoder()
	outs := make([]event.Event, 0, len(bodies))
	for _, b := range bodies[:3] { // the table keeps a payload from its second copy
		if _, err := decodeBody(frame{fOutput, b}, dec); err != nil {
			t.Fatal(err)
		}
	}
	// AllocsPerRun truncates to whole allocations per run: count them all.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, b := range bodies {
		out, err := decodeBody(frame{fOutput, b}, dec)
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, out)
	}
	runtime.ReadMemStats(&after)
	allocs, ceiling := after.Mallocs-before.Mallocs, uint64(n/32)
	t.Logf("client decode of %d outputs with a one-ID lineage: measured %d allocs (ceiling %d)", n, allocs, ceiling)
	if allocs > ceiling {
		t.Fatalf("decoding %d output frames allocates %d objects, above %d: lineage is no longer carved from a chunk", n, allocs, ceiling)
	}
	for i, out := range outs {
		if out.ID != event.ID(i) || len(out.CBT) != 1 || out.CBT[0] != event.ID(i) || cap(out.CBT) != 1 {
			t.Fatalf("output %d decoded as %v, lineage %v (cap %d)", i, out, out.CBT, cap(out.CBT))
		}
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

// TestServerChurnRetainsNoQuery: the server keeps no list of queries, so a
// query registered, fed and unregistered through its verbs is garbage once
// it goes, as it is through the facade. The least of three readings, after
// n and after 2n churned queries, stays within 64 B a query: the engine's
// tombstone and its list's growth. A server that kept every registration
// held ≈7.6 KB a query: its endpoint, its chain's history and its plan.
func TestServerChurnRetainsNoQuery(t *testing.T) {
	srv := New(cedr.New())
	defer srv.Shutdown()
	item := 0
	churn := func(queries int) {
		for range queries {
			info, err := srv.register(`EVENT Echo WHEN INSTALL h`, wal.RegOpts{Share: true})
			if err != nil {
				t.Fatal(err)
			}
			for range 20 {
				item++
				if err := srv.push(install(item)); err != nil {
					t.Fatal(err)
				}
			}
			if err := srv.unregister(info.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	const n, bound = 1000, 64 // bytes a query
	churn(n)                  // warm the analysis cache
	heldN, held2N := int64(math.MaxInt64), int64(math.MaxInt64)
	for range 3 { // the least of three: the runtime allocates beside the test
		base := int64(liveHeap())
		churn(n)
		heldN = min(heldN, int64(liveHeap())-base)
		churn(n)
		held2N = min(held2N, int64(liveHeap())-base)
	}
	for _, r := range []struct {
		queries int
		held    int64
	}{{n, heldN}, {2 * n, held2N}} {
		t.Logf("%d queries churned through the server's verbs held %d B (bound %d B)", r.queries, r.held, bound*r.queries)
		if r.held > int64(bound*r.queries) {
			t.Errorf("%d churned queries hold %d B, %d B each: something keeps unregistered queries", r.queries, r.held, r.held/int64(r.queries))
		}
	}
}
