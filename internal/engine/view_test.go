// Endpoint windows: a Query keeps no output of its own, so what it reports
// through Results/Tags/Len/replay must be exactly what a live subscriber on
// the same endpoint was handed — through late attach, subscriber panic,
// unregistration, and chain failure — and a chain's delivery cost must not
// grow with the endpoints nobody subscribed to.
package engine

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/consistency"
	"repro/internal/delivery"
	"repro/internal/event"
	"repro/internal/faultinject"
	"repro/internal/leakcheck"
	"repro/internal/operators"
	"repro/internal/plan"
	"repro/internal/stream"
	"repro/internal/temporal"
	"repro/internal/workload"
)

// recorder is the test-only witness: it keeps every item and tag a
// SubscribeTagged callback was handed.
type recorder struct {
	items stream.Stream
	tags  []uint64
}

func (r *recorder) add(e event.Event, tag uint64) {
	r.items = append(r.items, e)
	r.tags = append(r.tags, tag)
}

func record(q *Query) *recorder {
	r := &recorder{}
	q.SubscribeTagged(math.MaxUint64, r.add)
	return r
}

// subscribe adds fn for q's output from now on, without its tags.
func subscribe(q *Query, fn func(event.Event)) {
	q.SubscribeTagged(math.MaxUint64, func(e event.Event, _ uint64) { fn(e) })
}

// armOperatorPanic swaps the head operator of q's chain (of every shard,
// each with its own trigger) for one that panics on its nth Process call,
// wrapped as start wraps a sharded head. Call before any push.
func armOperatorPanic(t *testing.T, q *Query, after int) {
	t.Helper()
	n := len(q.ch.sh.workers)
	for i := range q.ch.sh.workers {
		var op operators.Op = faultinject.NewPanicOp(mustStages(t)[0], after)
		if n > 1 {
			op = ownKeys(op, RouteByAttr(q.ch.plan.Part.Attr, n), i)
		}
		q.ch.sh.workers[i].head = consistency.NewMonitor(op, q.ch.plan.Spec)
	}
}

// TestViewEquivalence: on a shared chain, an endpoint's window reads item
// for item and tag for tag what a recorder subscribed on that endpoint for
// its whole life saw — whether the endpoint attached at registration or
// warm, lost its subscriber to a panic mid-batch, was unregistered
// mid-stream, or sat on a chain whose operator panicked.
func TestViewEquivalence(t *testing.T) {
	src, _ := workload.MachineEvents(workload.Machines{
		Seed: 11, Machines: 16, Cycles: 3,
		RestartDeadline: 5 * temporal.Minute, MissProb: 0.5, CycleGap: 30 * temporal.Minute,
	})
	in := delivery.Deliver(src, delivery.Disordered(11, temporal.Minute, 10*temporal.Minute, 0.2))
	warmAt, unregisterAt, panicAt := len(in)/3, 2*len(in)/3, 5

	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			defer leakcheck.Check(t)()
			register := func(e *Engine) *Query {
				q, err := e.RegisterText(monitorQuery, plan.WithSharing(), plan.WithShards(shards))
				if err != nil {
					t.Fatal(err)
				}
				if q.Shards() != shards {
					t.Fatalf("query runs %d shards, want %d", q.Shards(), shards)
				}
				return q
			}
			healthy, doomed := New(), New()
			defer healthy.Close()
			defer doomed.Close()

			type endpoint struct {
				name string
				q    *Query
				rec  *recorder
			}
			add := func(name string, e *Engine) endpoint {
				q := register(e)
				return endpoint{name, q, record(q)}
			}
			atReg := add("attached at registration", healthy)
			unreg := add("unregistered mid-stream", healthy)
			// The bomb runs after the endpoint's recorder, so the recorder has
			// the whole batch by then; it goes off on its panicAt-th item or
			// the first later one that is not the last of its batch.
			panicky := add("subscriber panics mid-batch", healthy)
			seen := 0
			panicky.q.SubscribeTagged(math.MaxUint64, func(_ event.Event, tag uint64) {
				if seen++; seen >= panicAt && tag < panicky.rec.tags[len(panicky.rec.tags)-1] {
					panic("subscriber exploded")
				}
			})
			failed := add("operator panics, attached at registration", doomed)
			armOperatorPanic(t, failed.q, len(in)/(2*shards))
			eps := []endpoint{atReg, unreg, panicky, failed}

			for i, ev := range in {
				if i == warmAt {
					// Settle sharded delivery so registering and subscribing the
					// warm endpoints is one step in the chain's output order.
					healthy.Drain()
					doomed.Drain()
					eps = append(eps,
						add("attached warm", healthy),
						add("operator panics, attached warm", doomed))
				}
				if i == unregisterAt {
					unreg.q.Unregister()
				}
				healthy.Push(ev)
				doomed.Push(ev)
			}
			healthy.Finish()
			doomed.Finish()

			for _, ep := range eps {
				var view recorder
				for tag, e := range ep.q.View() {
					view.add(e, tag)
				}
				compareStreams(t, ep.name+": Results", ep.q.Results(), ep.rec.items)
				compareStreams(t, ep.name+": View", view.items, ep.rec.items)
				if got := ep.q.Tags(); len(got) != len(ep.rec.tags) || (len(got) > 0 && !reflect.DeepEqual(got, ep.rec.tags)) {
					t.Errorf("%s: Tags = %v, recorder saw %v", ep.name, got, ep.rec.tags)
				}
				if len(view.tags) > 0 && !reflect.DeepEqual(view.tags, ep.rec.tags) {
					t.Errorf("%s: View's tags = %v, recorder saw %v", ep.name, view.tags, ep.rec.tags)
				}
				if got := ep.q.Len(); got != len(ep.rec.items) {
					t.Errorf("%s: Len = %d, recorder saw %d", ep.name, got, len(ep.rec.items))
				}
				var replay recorder
				ep.q.SubscribeTagged(0, replay.add)
				compareStreams(t, ep.name+": replay", replay.items, ep.rec.items)
				if len(replay.tags) > 0 && !reflect.DeepEqual(replay.tags, ep.rec.tags) {
					t.Errorf("%s: replayed tags = %v, recorder saw %v", ep.name, replay.tags, ep.rec.tags)
				}
			}

			// The windows relate to the full history as the events say.
			full := atReg.rec
			if atReg.q.Err() != nil || len(full.items) == 0 || full.tags[0] != 0 {
				t.Fatalf("reference endpoint: err %v, %d items", atReg.q.Err(), len(full.items))
			}
			warm := eps[4]
			if n := len(warm.rec.items); n == 0 || n >= len(full.items) || warm.rec.tags[0] != uint64(len(full.items)-n) {
				t.Errorf("warm endpoint holds %d of %d items, not a proper suffix", n, len(full.items))
			}
			if n := len(unreg.rec.items); n == 0 || n >= len(full.items) || unreg.rec.tags[0] != 0 {
				t.Errorf("unregistered endpoint holds %d of %d items, not a proper prefix", n, len(full.items))
			}
			if panicky.q.Err() == nil {
				t.Fatal("subscriber never panicked mid-batch; the case tested nothing")
			}
			if n := len(panicky.rec.items); n < panicAt+1 || n >= len(full.items) || panicky.rec.tags[0] != 0 {
				t.Errorf("quarantined endpoint holds %d of %d items, want a proper prefix past item %d", n, len(full.items), panicAt)
			}
			if failed.q.Err() == nil || eps[5].q.Err() == nil {
				t.Fatal("operator panic did not quarantine the chain's endpoints")
			}
			if n := len(failed.rec.items); n == 0 || n >= len(full.items) {
				t.Errorf("failed chain emitted %d items, healthy chain %d: want some, not all", n, len(full.items))
			}
		})
	}
}

// TestFanoutWidthCeiling: the cost of delivering a batch on a shared chain
// does not depend on how many endpoints are registered on it, only on how
// many subscribed: allocations per push are the same at 10 and at 1,000
// subscriber-less endpoints, and a delivery runs exactly one callback per
// subscribed live endpoint.
func TestFanoutWidthCeiling(t *testing.T) {
	// ANY(INSTALL) echoes every pushed INSTALL, so every push delivers.
	const echo = `EVENT AnyInstall WHEN ANY(INSTALL i)`
	allocsPerPush := func(width int) (float64, *Engine, []*Query) {
		e := New()
		qs := make([]*Query, width)
		for i := range qs {
			q, err := e.RegisterText(echo, plan.WithSharing())
			if err != nil {
				t.Fatal(err)
			}
			qs[i] = q
		}
		if qs[0].ch != qs[width-1].ch {
			t.Fatal("endpoints did not share one chain")
		}
		id := event.ID(0)
		push := func() {
			id++
			e.Push(event.NewInsert(id, "INSTALL", temporal.Time(id), temporal.Time(id)+1, nil))
		}
		for i := 0; i < 64; i++ {
			push()
		}
		before := qs[0].Len()
		avg := testing.AllocsPerRun(2000, push)
		if got := qs[width-1].Len() - before; got < 2000 {
			t.Fatalf("%d endpoints: %d items delivered over 2000 pushes", width, got)
		}
		return avg, e, qs
	}
	narrow, _, _ := allocsPerPush(10)
	wide, e, qs := allocsPerPush(1000)
	if wide > narrow+0.5 {
		t.Errorf("allocs per delivering push: %.2f at 1,000 endpoints, %.2f at 10: fan-out width costs allocations", wide, narrow)
	}

	// Subscribe 4 of the 1,000; quarantine one and unregister another.
	calls := 0
	for _, q := range qs[:4] {
		subscribe(q, func(event.Event) { calls++ })
	}
	subscribe(qs[1], func(event.Event) { panic("subscriber exploded") })
	e.Push(event.NewInsert(1<<20, "INSTALL", 1<<20, 1<<20+1, nil))
	qs[2].Unregister()
	calls = 0
	n := len(qs[0].ch.push(event.NewInsert(1<<20+1, "INSTALL", 1<<20+1, 1<<20+2, nil)))
	if n == 0 || calls != 2*n {
		t.Errorf("a delivery of %d items ran %d subscriber callbacks, want %d (2 live subscribed endpoints of 1,000)", n, calls, 2*n)
	}
	if live := qs[0].ch.live; live != 998 {
		t.Errorf("chain counts %d open windows, want 998", live)
	}
}

// echoEndpoints registers n endpoints of one shared chain on which every
// pushed INSTALL is one output item, and returns a pusher of INSTALLs.
func echoEndpoints(t *testing.T, n int) ([]*Query, func(k int)) {
	t.Helper()
	e := New()
	qs := make([]*Query, n)
	for i := range qs {
		q, err := e.RegisterText(`EVENT AnyInstall WHEN ANY(INSTALL i)`, plan.WithSharing())
		if err != nil {
			t.Fatal(err)
		}
		qs[i] = q
	}
	id := event.ID(0)
	return qs, func(k int) {
		for range k {
			id++
			e.Push(event.NewInsert(id, "INSTALL", temporal.Time(id), temporal.Time(id)+1, nil))
		}
	}
}

// TestFanoutOrderTags: every delivered item carries its position in the
// chain's cumulative output sequence, across batches and subscribers.
func TestFanoutOrderTags(t *testing.T) {
	qs, push := echoEndpoints(t, 2)
	a, b := record(qs[0]), record(qs[1])
	push(3)
	push(1)
	for _, r := range []*recorder{a, b} {
		if !reflect.DeepEqual(r.tags, []uint64{0, 1, 2, 3}) {
			t.Fatalf("tags = %v, want 0..3", r.tags)
		}
	}
}

// TestFanoutLateAttach: a callback subscribed mid-stream starts at the
// chain's position at subscription time, and its stream is the suffix of an
// earlier sibling's.
func TestFanoutLateAttach(t *testing.T) {
	qs, push := echoEndpoints(t, 2)
	push(1) // nobody subscribed yet
	early := record(qs[0])
	push(2)
	late := record(qs[1])
	push(2)
	if !reflect.DeepEqual(early.tags, []uint64{1, 2, 3, 4}) || !reflect.DeepEqual(late.tags, []uint64{3, 4}) {
		t.Fatalf("early tags %v, late tags %v; want [1 2 3 4] and [3 4]", early.tags, late.tags)
	}
	compareStreams(t, "late subscriber", late.items, early.items[2:])
}

// TestFanoutPanicIsolation: a panicking callback quarantines its endpoint
// alone — its window closes behind the batch in flight, its other callbacks
// stop — while a sibling keeps receiving, that batch included.
func TestFanoutPanicIsolation(t *testing.T) {
	qs, push := echoEndpoints(t, 2)
	before := record(qs[0])
	subscribe(qs[0], func(event.Event) { panic("boom") })
	after := record(qs[0])
	good := record(qs[1])
	push(2)
	push(1)
	if err := qs[0].Err(); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("endpoint error = %v, want the recovered panic", err)
	}
	if len(before.items) != 1 || len(after.items) != 0 || qs[0].Len() != 1 {
		t.Errorf("quarantined endpoint: callbacks saw %d and %d items, window holds %d; want 1, 0 and 1",
			len(before.items), len(after.items), qs[0].Len())
	}
	if qs[1].Err() != nil || !reflect.DeepEqual(good.tags, []uint64{0, 1, 2}) {
		t.Fatalf("sibling disturbed: err %v, tags %v", qs[1].Err(), good.tags)
	}
}

// TestFanoutCallsOnlyLiveSubscribers: one delivery runs exactly one callback
// per item for each live subscription — none for a cancelled one, none for a
// quarantined endpoint's — and subscriptions add no allocations to a push.
func TestFanoutCallsOnlyLiveSubscribers(t *testing.T) {
	qs, push := echoEndpoints(t, 6)
	calls := 0
	count := func(event.Event, uint64) { calls++ }
	cancels := make([]func(), 5)
	for i, q := range qs[:5] {
		cancels[i] = q.SubscribeTagged(math.MaxUint64, count)
	}
	qs[5].SubscribeTagged(math.MaxUint64, func(event.Event, uint64) { calls++; panic("boom") })

	push(1)
	if calls != 6 {
		t.Fatalf("first delivery ran %d callbacks, want 6", calls)
	}
	cancels[0]()
	calls = 0
	push(1)
	if calls != 4 {
		t.Fatalf("delivery after one cancel and one panic ran %d callbacks, want 4", calls)
	}
	// Each measured push ends with a sync point that covers it, so both
	// readings run in the same steady state: the chain's checkpoint empties
	// its journal, which otherwise grows one chunk per 32 records.
	e, last := qs[0].ch.eng, temporal.Time(2) // item k occupies [k, k+1)
	pushSynced := func() {
		push(1)
		last++
		e.Push(event.NewCTI(last + 1))
	}
	with := testing.AllocsPerRun(200, pushSynced)
	for _, cancel := range cancels[1:] {
		cancel()
	}
	without := testing.AllocsPerRun(200, pushSynced)
	t.Logf("a push and its sync point allocate %.1f with 4 live subscriptions, %.1f with none", with, without)
	if with > without {
		t.Errorf("a push allocates %.1f with 4 live subscriptions, %.1f with none: delivery to subscribers allocates", with, without)
	}
}

// TestSubscriptionCancel: a cancelled callback never runs again while its
// siblings keep receiving; a second cancel, and a cancel after Unregister,
// are no-ops; and cancel gives the chain's subscription list back.
func TestSubscriptionCancel(t *testing.T) {
	qs, push := echoEndpoints(t, 2)
	ch := qs[0].ch
	var gone, kept recorder
	cancelGone := qs[0].SubscribeTagged(math.MaxUint64, gone.add)
	cancelKept := qs[1].SubscribeTagged(math.MaxUint64, kept.add)
	push(2)
	cancelGone()
	push(2)
	cancelGone()
	if len(gone.items) != 2 || len(kept.items) != 4 || len(ch.subs) != 1 {
		t.Fatalf("after cancel: cancelled saw %d, sibling %d, chain holds %d subscriptions; want 2, 4, 1",
			len(gone.items), len(kept.items), len(ch.subs))
	}
	qs[1].Unregister()
	cancelKept()
	cancelKept()
	push(1)
	if len(kept.items) != 4 || len(ch.subs) != 0 {
		t.Fatalf("after unregister: %d items, %d subscriptions; want 4, 0", len(kept.items), len(ch.subs))
	}
	// A closed window takes no subscription; its cancel is a no-op too.
	qs[1].SubscribeTagged(0, kept.add)()
	if len(ch.subs) != 0 {
		t.Fatalf("a closed window added a subscription")
	}
}

// TestSubscriptionCancelRacesDelivery: cancel from one goroutine while
// another pushes; once cancel returns, the callback never runs again.
func TestSubscriptionCancelRacesDelivery(t *testing.T) {
	qs, push := echoEndpoints(t, 1)
	q := qs[0]
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				push(1)
			}
		}
	}()
	defer func() { close(stop); <-done }()
	for range 50 {
		var calls atomic.Int64
		cancel := q.SubscribeTagged(math.MaxUint64, func(event.Event, uint64) { calls.Add(1) })
		for at := q.Len(); q.Len() < at+2; {
			runtime.Gosched()
		}
		cancel()
		n, at := calls.Load(), q.Len()
		for q.Len() < at+2 { // deliveries after the cancel
			runtime.Gosched()
		}
		if got := calls.Load(); got != n {
			t.Fatalf("a cancelled callback ran %d more times", got-n)
		}
	}
}

// TestViewAcrossChunkBoundaries: the chunked history reads as one flat
// slice. A recorder subscribed from tag 0 is the flat reference; endpoints
// attached at tags chunkLen−1, chunkLen and chunkLen+1, one unregistered
// mid-chunk, one whose subscriber panics mid-batch in a batch that
// crosses a chunk boundary, and one subscribed from a mid-window tag and
// read through View while another goroutine pushes must each read,
// through View, Results, Tags, Len and SubscribeTagged, exactly their
// window of it. SubscribeTagged(from) reads [clamp(from), end) for every
// from around the window's edges and the chunk boundaries: an endpoint of
// a warm chain subscribed from 0 reads its own window, no more.
func TestViewAcrossChunkBoundaries(t *testing.T) {
	const echo = `EVENT Echo WHEN ANY(INSTALL i) WHERE CorrelationKey(Machine_Id, EQUAL)`
	k := chunkLen
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			defer leakcheck.Check(t)()
			e := New()
			type endpoint struct {
				name     string
				q        *Query
				from, to uint64 // the window's expected bounds; to = 0 while open
			}
			var eps []*endpoint
			attach := func(name string) *endpoint {
				q, err := e.RegisterText(echo, plan.WithSharing(), plan.WithShards(shards), plan.WithSpec(consistency.Strong()))
				if err != nil {
					t.Fatal(err)
				}
				if q.Shards() != shards {
					t.Fatalf("%s runs on %d shards, want %d", name, q.Shards(), shards)
				}
				ep := &endpoint{name: name, q: q, from: q.ch.pos()}
				eps = append(eps, ep)
				return ep
			}
			ref := record(attach("reference").q)
			ch := eps[0].q.ch
			id, at := event.ID(0), temporal.Time(0)
			// batch pushes n INSTALLs and the CTI that releases them at
			// Strong: n+1 items, delivered in one batch.
			batch := func(n int) {
				for range n {
					id++
					at++
					e.Push(event.NewInsert(id, "INSTALL", at, at+1, event.Payload{"Machine_Id": int64(id % 7)}))
				}
				at += 2
				e.Push(event.NewCTI(at))
				e.Drain()
			}
			// to pushes until the chain is at tag t.
			to := func(t uint64) {
				for ch.pos()+2 <= t {
					batch(1)
				}
				if ch.pos() < t {
					batch(0)
				}
			}
			to(k - 1)
			cut := attach("attached at chunkLen-1, unregistered mid-chunk")
			to(k)
			attach("attached at chunkLen")
			to(k + 1)
			attach("attached at chunkLen+1")
			to(k + k/2)
			cut.q.Unregister()
			cut.to = ch.pos()

			to(2*k - 3)
			panicky := attach("subscriber panics mid-batch across a chunk boundary")
			seen := 0
			panicky.q.SubscribeTagged(math.MaxUint64, func(event.Event, uint64) {
				if seen++; seen == 3 {
					panic("subscriber exploded")
				}
			})
			batch(5)
			panicky.to = ch.pos()
			if panicky.q.Err() == nil || panicky.from/k == panicky.to/k {
				t.Fatalf("the panicking batch [%d, %d) did not quarantine its endpoint across a chunk boundary (err %v)", panicky.from, panicky.to, panicky.q.Err())
			}

			racer := attach("subscribed mid-window and viewed while another goroutine pushes")
			// The pusher runs while the racer subscribes and views, and
			// pushes once more after both, so the subscription sees live
			// output too.
			subscribed, done := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(done)
				for i := range 3 * k {
					batch(int(i % 5))
				}
				<-subscribed
				batch(3)
			}()
			for racer.q.Len() < int(k) {
				runtime.Gosched()
			}
			var replayed, viewed recorder
			mid := racer.from + k/2
			cancel := racer.q.SubscribeTagged(mid, replayed.add)
			for tag, ev := range racer.q.View() {
				viewed.add(ev, tag)
			}
			close(subscribed)
			<-done
			cancel()
			e.Finish()
			end := ch.pos()
			if end < 4*k || uint64(len(ref.items)) != end {
				t.Fatalf("chain at tag %d, reference holds %d items: want 4 chunks, all recorded", end, len(ref.items))
			}
			racerEnd := mid + uint64(len(replayed.items))
			if len(viewed.items) < int(k) || racerEnd != end-1 {
				t.Fatalf("the racing reads saw %d items (View) and [%d, %d) (subscription), want ≥ %d and up to the finishing CTI at %d",
					len(viewed.items), mid, racerEnd, k, end-1)
			}

			tags := func(from, to uint64) []uint64 {
				var ts []uint64
				for t := from; t < to; t++ {
					ts = append(ts, t)
				}
				return ts
			}
			check := func(name string, got recorder, from, to uint64) {
				t.Helper()
				compareStreams(t, name, got.items, ref.items[from:to])
				if want := tags(from, to); !reflect.DeepEqual(got.tags, want) {
					t.Errorf("%s: tags %v, want %v", name, got.tags, want)
				}
			}
			check(racer.name+": subscription", replayed, mid, racerEnd)
			check(racer.name+": View", viewed, racer.from, racer.from+uint64(len(viewed.items)))
			for _, ep := range eps {
				to := ep.to
				if to == 0 {
					to = end
				}
				var view recorder
				for tag, ev := range ep.q.View() {
					view.add(ev, tag)
				}
				check(ep.name+": View", view, ep.from, to)
				for _, from := range []uint64{0, ep.from, ep.from + 1, k - 1, k, k + 1, to, math.MaxUint64} {
					var sub recorder
					ep.q.SubscribeTagged(from, sub.add)()
					check(fmt.Sprintf("%s: subscribed from %d", ep.name, from), sub, min(max(from, ep.from), to), to)
				}
				compareStreams(t, ep.name+": Results", ep.q.Results(), ref.items[ep.from:to])
				if got, want := ep.q.Tags(), tags(ep.from, to); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: Tags %v, want %v", ep.name, got, want)
				}
				if got := ep.q.Len(); got != int(to-ep.from) {
					t.Errorf("%s: Len %d, want %d", ep.name, got, to-ep.from)
				}
			}
		})
	}
}
