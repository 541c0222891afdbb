package engine

import (
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/event"
	"repro/internal/temporal"
)

// historyBatches is a seeded random history in output batches: data items
// (inserts and retractions, with and without lineage and payload),
// canonical sync points, and CTIs a sync point cannot hold — with an ID,
// a payload, a type, a root time, lineage, an unstamped C, or O ≠ V. It
// ends once both lists have crossed two chunk boundaries (the data list's
// first a short one).
func historyBatches(seed int64) [][]event.Event {
	r := rand.New(rand.NewSource(seed))
	payloads := []event.Payload{nil, {"Machine_Id": "m001"}, {"Machine_Id": "m002"}}
	var batches [][]event.Event
	var data, syncs uint64
	at := temporal.Time(0)
	for data <= firstLen+2*chunkLen || syncs <= 2*syncLen {
		b := make([]event.Event, r.Intn(12))
		for i := range b {
			at += temporal.Time(r.Intn(3))
			ev := event.NewCTI(at)
			ev.C = temporal.From(at + temporal.Time(r.Intn(5)))
			switch x := r.Intn(20); {
			case x < 15:
				syncs++
			case x < 18:
				ev = event.NewInsert(event.ID(r.Intn(50)), "INSTALL", at, at+temporal.Time(1+r.Intn(9)), payloads[r.Intn(3)])
				if r.Intn(2) == 0 {
					ev.Kind = event.Retract
				}
				switch r.Intn(3) {
				case 0:
					ev.CBT = []event.ID{ev.ID, ev.ID + 1}
				case 1:
					ev.CBT = []event.ID{}
				}
				ev.C = temporal.From(at)
				data++
			default:
				switch r.Intn(7) {
				case 0:
					ev.ID = event.ID(1 + r.Intn(50))
				case 1:
					ev.Payload = payloads[1+r.Intn(2)]
				case 2:
					ev.C = temporal.Interval{}
				case 3:
					ev.Type = "INSTALL"
				case 4:
					ev.RT = at
				case 5:
					ev.CBT = []event.ID{}
				case 6:
					ev.O = temporal.Point(at)
				}
				data++
			}
			b[i] = ev
		}
		batches = append(batches, b)
	}
	return batches
}

// sameItem reports whether a and b are equal field for field, their
// lineage and payload by identity.
func sameItem(a, b event.Event) bool {
	return a.ID == b.ID && a.Kind == b.Kind && a.Type == b.Type && a.V == b.V && a.O == b.O && a.C == b.C &&
		a.RT == b.RT && len(a.CBT) == len(b.CBT) && unsafe.SliceData(a.CBT) == unsafe.SliceData(b.CBT) &&
		*(*unsafe.Pointer)(unsafe.Pointer(&a.Payload)) == *(*unsafe.Pointer)(unsafe.Pointer(&b.Payload))
}

// TestHistoryDifferential: a history of seeded random batches reads as the
// flat slice of the items appended. append points each item's lineage at
// the history's own copy — equal, capped, never the caller's array — in
// lineage chunks of 4 IDs doubling to 64. For every from ≤ end ≤ n,
// window(from, end) yields exactly the reference's items [from, end) with
// their tags; canonical sync points, and only they, are kept as sync
// records; the engine counters count the items, the sync points and
// exactly the chunks allocated.
func TestHistoryDifferential(t *testing.T) {
	const seed = 0
	var h history
	var c historyCounters
	var ref []event.Event
	var idsBytes, last, room uint64 // lineage chunks: their bytes, the last one's IDs and room
	for _, b := range historyBatches(seed) {
		given := make([][]event.ID, len(b))
		for i := range b {
			given[i] = b[i].CBT
		}
		h.append(b, &c)
		for i, ev := range b {
			if len(given[i]) == 0 {
				if unsafe.SliceData(ev.CBT) != unsafe.SliceData(given[i]) {
					t.Fatalf("seed %d: append replaced an empty lineage", seed)
				}
				continue
			}
			if !reflect.DeepEqual(ev.CBT, given[i]) || cap(ev.CBT) != len(ev.CBT) ||
				unsafe.SliceData(ev.CBT) == unsafe.SliceData(given[i]) {
				t.Fatalf("seed %d: item %v keeps lineage %v (cap %d); want a capped copy of %v", seed, ev, ev.CBT, cap(ev.CBT), given[i])
			}
			if n := uint64(len(ev.CBT)); n > room {
				last = max(min(2*last, idsLen), firstIDs, n)
				idsBytes, room = idsBytes+8*last, last
			}
			room -= uint64(len(ev.CBT))
		}
		ref = append(ref, b...)
	}
	n := uint64(len(ref))
	syncs := uint64(0)
	for i := range ref {
		if isSyncPoint(&ref[i]) {
			syncs++
		}
	}
	if h.n != n || h.ns != syncs || h.ns <= 2*syncLen || n-h.ns <= firstLen+2*chunkLen {
		t.Fatalf("seed %d: %d items, %d sync records; want %d, %d, each list across two chunk boundaries", seed, h.n, h.ns, n, syncs)
	}
	chunkBytes := uint64(len(h.syncs))*uint64(unsafe.Sizeof(*h.syncs[0])) + idsBytes
	for _, d := range h.data {
		chunkBytes += uint64(cap(d)) * uint64(unsafe.Sizeof(d[0]))
	}
	if c.items.Load() != n-syncs || c.syncs.Load() != syncs || c.bytes.Load() != chunkBytes {
		t.Fatalf("seed %d: counters read %d items, %d sync points, %d chunk bytes; want %d, %d, %d",
			seed, c.items.Load(), c.syncs.Load(), c.bytes.Load(), n-syncs, syncs, chunkBytes)
	}
	var all []event.Event
	for _, ev := range h.window(0, n) {
		all = append(all, ev)
	}
	if !reflect.DeepEqual(all, ref) {
		t.Fatalf("seed %d: the whole window differs from the items appended", seed)
	}
	for from := uint64(0); from <= n; from++ {
		for end := from; end <= n; end++ {
			i := from
			for tag, ev := range h.window(from, end) {
				if tag != i || !sameItem(ev, ref[i]) {
					t.Fatalf("seed %d: window(%d, %d) yields %+v at tag %d; want %+v at tag %d", seed, from, end, ev, tag, ref[i], i)
				}
				i++
			}
			if i != end {
				t.Fatalf("seed %d: window(%d, %d) ends at tag %d", seed, from, end, i)
			}
		}
	}
}

// TestHistoryReadersRaceWriter: readers iterate copies of the history's
// header, taken under a lock as Query.window takes them, while the writer
// appends; each read is the reference's prefix. Under -race it fails if
// append writes anything a header copy reads.
func TestHistoryReadersRaceWriter(t *testing.T) {
	batches := historyBatches(7)
	var mu sync.Mutex
	var h history
	var c historyCounters
	var ref []event.Event
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, b := range batches {
			mu.Lock()
			h.append(b, &c)
			ref = append(ref, b...)
			mu.Unlock()
			runtime.Gosched()
		}
	}()
	reads := uint64(0)
	for finished := false; !finished; reads++ {
		select {
		case <-done:
			finished = true
		default:
		}
		mu.Lock()
		hc, want := h, ref
		mu.Unlock()
		from := reads % (hc.n + 1)
		i := from
		for tag, ev := range hc.window(from, hc.n) {
			if tag != i || !sameItem(ev, want[i]) {
				t.Fatalf("read %d: tag %d yields %+v; want %+v at tag %d", reads, tag, ev, want[i], i)
			}
			i++
		}
		if i != hc.n {
			t.Fatalf("read %d: window(%d, %d) ends at tag %d", reads, from, hc.n, i)
		}
	}
	t.Logf("%d reads while %d batches were appended", reads, len(batches))
}
