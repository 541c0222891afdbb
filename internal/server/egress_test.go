package server

import (
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro"
	"repro/internal/wal"
)

// scrape reads srv's GET /metrics into series → value.
func scrape(t *testing.T, srv *Server) map[string]float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics: %d", rec.Code)
	}
	m := map[string]float64{}
	for _, line := range strings.Split(strings.TrimSuffix(rec.Body.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "# ") {
			continue
		}
		series, v, ok := strings.Cut(line, " ")
		f, err := strconv.ParseFloat(v, 64)
		if !ok || err != nil {
			t.Fatalf("GET /metrics: bad sample line %q", line)
		}
		m[series] = f
	}
	return m
}

// TestHistoryCounters: /metrics' history counters reconcile with the
// queries' output. Over a stream that carries each chain's sync points
// across a chunk boundary, pushed through a client, the items and sync
// points counted equal the sum of Len() over the distinct chains — a
// registration that shares a chain adds nothing — split by kind, and the
// chunk bytes hold every item at its size and its lineage's IDs at 8 B
// each, with at most one partly filled chunk of each of the three lists
// (data, sync points, lineage) a chain.
func TestHistoryCounters(t *testing.T) {
	sys := cedr.New()
	var chains []*cedr.Query
	for _, r := range []struct {
		src  string
		opts []cedr.QueryOption
	}{
		{stuckHot, nil},
		{stuckHot, []cedr.QueryOption{cedr.WithoutSharing()}},
		{`EVENT Echo WHEN HOT h CONSISTENCY middle`, nil},
	} {
		q, err := sys.Register(r.src, r.opts...)
		if err != nil {
			t.Fatal(err)
		}
		chains = append(chains, q)
	}
	if _, err := sys.Register(stuckHot); err != nil { // shares the first chain
		t.Fatal(err)
	}
	srv, addr := startServer(t, sys)
	defer srv.Shutdown()
	c, err := Dial(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Open("src"); err != nil {
		t.Fatal(err)
	}
	for i := range 600 {
		at := cedr.Time(i) * 1000
		e := cedr.NewCTI(at)
		if i%3 != 2 {
			e = cedr.NewEvent(cedr.ID(i+1), "HOT", at, cedr.Forever, cedr.Payload{"sensor": strconv.Itoa(i % 5)})
		}
		if err := c.Push(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Finish(); err != nil {
		t.Fatal(err)
	}

	var items, syncs, ids, lens float64
	for _, q := range chains {
		lens += float64(q.Len())
		for _, e := range q.Results() {
			if e.IsCTI() {
				syncs++
			} else {
				items++
				ids += float64(len(e.CBT))
			}
		}
	}
	m := scrape(t, srv)
	got := m["cedr_history_items_total"]
	t.Logf("%d chains: %v items, %v sync points, %v chunk bytes", len(chains), got, m["cedr_history_sync_points_total"], m["cedr_history_chunk_bytes_total"])
	if got != items || m["cedr_history_sync_points_total"] != syncs || items+syncs != lens || syncs <= 3*170 {
		t.Fatalf("history counters read %v items and %v sync points; the %d chains hold %v and %v (want > 510)",
			got, m["cedr_history_sync_points_total"], len(chains), items, syncs)
	}
	low := items*float64(unsafe.Sizeof(cedr.Event{})) + syncs*24 + ids*8
	high := low + float64(len(chains))*(2*4096+512)
	if ids < items {
		t.Fatalf("%v items carry %v lineage IDs; every detection has a contributor", items, ids)
	}
	if b := m["cedr_history_chunk_bytes_total"]; b < low || b > high {
		t.Fatalf("history chunk bytes %v, want [%v, %v]", b, low, high)
	}
}

// TestEgressCounters: /metrics reconciles with what the clients saw. A
// subscribed session's frames counter equals the outputs and replies it
// received, no batch is written empty, and a subscriber that stops reading
// counts exactly one overflow.
func TestEgressCounters(t *testing.T) {
	t.Run("subscribed", func(t *testing.T) {
		events := lateStream()
		want, _ := referenceRun(t, stuckHot, events)
		srv, addr := startServer(t, cedr.New())
		defer srv.Shutdown()
		c, err := Dial(addr, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		replies := 0
		reply := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
			replies++
		}
		reply(c.Open("src"))
		rq, err := c.Register(stuckHot, RegOptions{})
		reply(err)
		reply(c.Subscribe(rq.ID))
		for _, e := range events {
			if err := c.Push(e); err != nil {
				t.Fatal(err)
			}
		}
		reply(c.Finish())
		got := collect(t, c, len(want))

		m := scrape(t, srv)
		if frames := m["cedr_egress_frames_total"]; frames != float64(len(got)+replies) {
			t.Errorf("frames counter %v, want %d outputs + %d replies", frames, len(got), replies)
		}
		if w := m["cedr_egress_writes_total"]; w < 1 || w > m["cedr_egress_frames_total"] {
			t.Errorf("writes counter %v, want 1 to the frames counter (%v)", w, m["cedr_egress_frames_total"])
		}
		if m["cedr_egress_bytes_total"] < m["cedr_egress_frames_total"]*5 {
			t.Errorf("bytes counter %v below 5 header bytes per frame", m["cedr_egress_bytes_total"])
		}
		if m["cedr_egress_queued_frames_max"] < 1 || m["cedr_egress_overflows_total"] != 0 || m["cedr_connections"] != 1 {
			t.Errorf("queued max %v, overflows %v, connections %v: want ≥ 1, 0, 1",
				m["cedr_egress_queued_frames_max"], m["cedr_egress_overflows_total"], m["cedr_connections"])
		}
		for _, class := range []string{"mark_assist", "mark_dedicated", "mark_idle", "pause"} {
			if _, ok := m[`cedr_gc_cpu_seconds_total{class="`+class+`"}`]; !ok {
				t.Errorf("no GC CPU sample for class %s", class)
			}
		}
	})

	t.Run("stalled", func(t *testing.T) {
		srv, addr := startServer(t, cedr.New(), WithQueue(4))
		defer srv.Shutdown()
		src, err := Dial(addr, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer src.Close()
		if err := src.Open("pusher"); err != nil {
			t.Fatal(err)
		}
		rq, err := src.Register(`EVENT Echo WHEN HOT h CONSISTENCY middle`, RegOptions{})
		if err != nil {
			t.Fatal(err)
		}
		stalled, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer stalled.Close()
		if _, err := stalled.Write(append([]byte(Magic), frameOf(fSubscribe, wal.AppendU32(nil, uint32(rq.ID)))...)); err != nil {
			t.Fatal(err)
		}

		// Push bulky output until the stalled subscriber's queue overflows,
		// then as much again: a dead outbox counts no second overflow.
		blob := strings.Repeat("x", 32<<10)
		push := func(i int) {
			e := cedr.NewEvent(cedr.ID(i+1), "HOT", cedr.Time(i)*1000, cedr.Forever, cedr.Payload{"blob": blob})
			if err := src.Push(e); err != nil {
				t.Fatal(err)
			}
			if i%32 == 31 {
				if err := src.Sync(); err != nil {
					t.Fatalf("pusher failed at %d: %v", i, err)
				}
			}
		}
		i := 0
		for ; scrape(t, srv)["cedr_egress_overflows_total"] == 0; i++ {
			if i == 4096 {
				t.Fatal("no overflow after 4,096 pushes of 32 KiB")
			}
			push(i)
		}
		for end := 2 * i; i < end; i++ {
			push(i)
		}
		stalled.SetReadDeadline(time.Now().Add(10 * time.Second))
		buf := make([]byte, 64<<10)
		for {
			if _, err := stalled.Read(buf); err != nil {
				break
			}
		}
		if n := scrape(t, srv)["cedr_egress_overflows_total"]; n != 1 {
			t.Fatalf("overflows counter %v after one stalled subscriber, want 1", n)
		}
	})
}

// TestConcurrentProducersShareOneOutbox: two chains deliver into one
// connection's outbox at once, each pushed by its own source connection.
// Every frame decodes, and each query's outputs arrive complete, their tags
// strictly increasing.
func TestConcurrentProducersShareOneOutbox(t *testing.T) {
	srv, addr := startServer(t, cedr.New())
	defer srv.Shutdown()
	sub, err := Dial(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	types := []string{"HOT", "COOL"}
	for _, typ := range types {
		rq, err := sub.Register(`EVENT Echo`+typ+` WHEN `+typ+` x CONSISTENCY middle`, RegOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := sub.Subscribe(rq.ID); err != nil {
			t.Fatal(err)
		}
	}

	const n = 1000
	var wg sync.WaitGroup
	for _, typ := range types {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr, 0)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			if err := c.Open(typ); err != nil {
				t.Error(err)
				return
			}
			for i := range n {
				e := cedr.NewEvent(cedr.ID(i+1), typ, cedr.Time(i), cedr.Forever, cedr.Payload{"i": int64(i)})
				if err := c.Push(e); err != nil {
					t.Error(err)
					return
				}
			}
			if err := c.Sync(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	want, total := map[int]int{}, 0
	for id := range types {
		st, err := sub.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		want[id] = int(st.Results)
		total += want[id]
	}
	got, last := map[int]int{}, map[int]uint64{}
	deadline := time.After(10 * time.Second)
	for seen := 0; seen < total; seen++ {
		select {
		case out, ok := <-sub.Outputs():
			if !ok {
				t.Fatalf("connection closed after %d/%d outputs: %v", seen, total, sub.Err())
			}
			if got[out.Query] > 0 && out.Tag <= last[out.Query] {
				t.Fatalf("query %d: tag %d after %d", out.Query, out.Tag, last[out.Query])
			}
			got[out.Query]++
			last[out.Query] = out.Tag
		case <-deadline:
			t.Fatalf("timed out after %d/%d outputs", seen, total)
		}
	}
	for id, w := range want {
		if w < n || got[id] != w {
			t.Errorf("query %d: %d outputs received, %d produced (at least %d inputs)", id, got[id], w, n)
		}
	}
}

// TestMatcherCountersMetrics: /metrics carries the matchers' composite
// counters, summed over the running chains — a one-shard one and a
// two-shard one — as System.MatcherStats reads them, and a disordered stream
// repaired at Middle both builds composites and finds them again in the
// caches.
func TestMatcherCountersMetrics(t *testing.T) {
	sys := cedr.New()
	for _, opts := range [][]cedr.QueryOption{{cedr.WithoutSharing()}, {cedr.WithoutSharing(), cedr.WithShards(2)}} {
		if _, err := sys.Register(missedRestartMiddle, opts...); err != nil {
			t.Fatal(err)
		}
	}
	srv, _ := startServer(t, sys)
	defer srv.Shutdown()
	pushRepaired(sys, disorderedFleet())
	m, want := scrape(t, srv), sys.MatcherStats()
	built, hits := m["cedr_matcher_composites_total"], m["cedr_matcher_composite_cache_hits_total"]
	t.Logf("%v composites built, %v cache hits", built, hits)
	if built != float64(want.Composites) || hits != float64(want.CompositeHits) {
		t.Fatalf("/metrics reads %v built and %v hits; MatcherStats %+v", built, hits, want)
	}
	if built == 0 || hits == 0 {
		t.Fatalf("a repaired disordered stream built %v composites and hit %v", built, hits)
	}
}

// TestMatcherUndoRecordsGauge: /metrics' cedr_matcher_undo_records counts
// the running matchers' live undo records: it rises with each push to a
// Middle chain fed no sync point, and a covering sync point returns it to 0.
// Beside it, cedr_matcher_payload_entries counts one entry for the pushes'
// one content.
func TestMatcherUndoRecordsGauge(t *testing.T) {
	sys := cedr.New()
	if _, err := sys.Register("EVENT Echo WHEN INSTALL h\nCONSISTENCY middle"); err != nil {
		t.Fatal(err)
	}
	srv, _ := startServer(t, sys)
	defer srv.Shutdown()
	last := 0.0
	for i := range 3 {
		sys.Push(cedr.NewEvent(cedr.ID(i+1), "INSTALL", cedr.Time(i), cedr.Forever, nil))
		n := scrape(t, srv)["cedr_matcher_undo_records"]
		if n <= last {
			t.Fatalf("push %d: the gauge reads %v, %v before", i, n, last)
		}
		last = n
	}
	if n := scrape(t, srv)["cedr_matcher_payload_entries"]; n != 1 {
		t.Fatalf("three pushes of one (empty) payload: the payload-entries gauge reads %v, want 1", n)
	}
	sys.Push(cedr.NewCTI(cedr.Time(3)))
	if n := scrape(t, srv)["cedr_matcher_undo_records"]; n != 0 {
		t.Fatalf("after a covering sync point the gauge reads %v, want 0", n)
	}
}

const missedRestartMiddle = `
EVENT MissedRestart
WHEN UNLESS(SEQUENCE(INSTALL x, SHUTDOWN AS y, 12 hours), RESTART AS z, 5 minutes)
WHERE CorrelationKey(Machine_Id, EQUAL)
CONSISTENCY middle`

// disorderedFleet is 40 install cycles over 4 machines, a third of them
// restarted too late, with every fourth pair of events swapped.
func disorderedFleet() []cedr.Event {
	const minute = cedr.Duration(60_000)
	var evs []cedr.Event
	for c := range 40 {
		at, m := cedr.Time(0).Add(cedr.Duration(c)*10*minute), cedr.Payload{"Machine_Id": "m" + strconv.Itoa(c%4)}
		restart := 2 * minute
		if c%3 == 0 {
			restart = 9 * minute
		}
		evs = append(evs,
			cedr.NewEvent(cedr.ID(3*c+1), "INSTALL", at, cedr.Forever, m),
			cedr.NewEvent(cedr.ID(3*c+2), "SHUTDOWN", at.Add(minute), cedr.Forever, m),
			cedr.NewEvent(cedr.ID(3*c+3), "RESTART", at.Add(minute+restart), cedr.Forever, m))
	}
	for i := 0; i+1 < len(evs); i += 4 { // every fourth pair arrives swapped
		evs[i], evs[i+1] = evs[i+1], evs[i]
	}
	return evs
}

// pushRepaired pushes evs with a sync point after every tenth event, at
// the earlier of the next two events' starts: the swapped pairs before it
// are repaired, not blocked.
func pushRepaired(sys *cedr.System, evs []cedr.Event) {
	for i, e := range evs {
		sys.Push(e)
		if i%10 == 9 && i+2 < len(evs) {
			sys.Push(cedr.NewCTI(min(evs[i+1].V.Start, evs[i+2].V.Start)))
		}
	}
}

// TestMatcherCountersNeverFall: the matcher counters are totals, so a
// scrape after an Unregister, and one after a Finish, reads at least what
// the scrape before it read — a head that stops adds its matcher's counts
// to the engine's before its monitor lets go of the matcher. Two private
// chains at shards 1, then 2: one is unregistered halfway through the
// stream, and the other finishes.
func TestMatcherCountersNeverFall(t *testing.T) {
	for _, shards := range []int{1, 2} {
		sys := cedr.New()
		var qs []*cedr.Query
		for range 2 {
			q, err := sys.Register(missedRestartMiddle, cedr.WithoutSharing(), cedr.WithShards(shards))
			if err != nil {
				t.Fatal(err)
			}
			qs = append(qs, q)
		}
		srv := New(sys)
		evs := disorderedFleet()
		half := len(evs) / 2
		for _, step := range []struct {
			name string
			in   []cedr.Event
			stop func()
		}{
			{"Unregister", evs[:half], qs[0].Unregister},
			{"Finish", evs[half:], sys.Finish},
		} {
			pushRepaired(sys, step.in)
			before := scrape(t, srv)
			step.stop()
			after, want := scrape(t, srv), sys.MatcherStats()
			for _, series := range []string{"cedr_matcher_composites_total", "cedr_matcher_composite_cache_hits_total"} {
				t.Logf("shards=%d: %s %v before %s, %v after", shards, series, before[series], step.name, after[series])
				if before[series] == 0 || after[series] < before[series] {
					t.Errorf("shards=%d: %s reads %v before %s and %v after", shards, series, before[series], step.name, after[series])
				}
			}
			if after["cedr_matcher_composites_total"] != float64(want.Composites) || after["cedr_matcher_composite_cache_hits_total"] != float64(want.CompositeHits) {
				t.Errorf("shards=%d: /metrics after %s disagrees with MatcherStats %+v", shards, step.name, want)
			}
		}
		srv.Shutdown()
	}
}

// TestStandingGauges: cedr_queries counts the registered endpoints that
// are not unregistered, len(Queries()), and cedr_chains the chains they
// run on, after shared, template and private registrations and an
// Unregister.
func TestStandingGauges(t *testing.T) {
	sys := cedr.New()
	srv := New(sys)
	defer srv.Shutdown()
	check := func(when string, chains int) {
		t.Helper()
		m := scrape(t, srv)
		t.Logf("%s: cedr_queries %v, cedr_chains %v", when, m["cedr_queries"], m["cedr_chains"])
		if m["cedr_queries"] != float64(len(sys.Queries())) || m["cedr_chains"] != float64(chains) {
			t.Errorf("%s: /metrics reads %v queries and %v chains; want %d and %d",
				when, m["cedr_queries"], m["cedr_chains"], len(sys.Queries()), chains)
		}
	}
	check("empty", 0)
	register := func(src string, opts ...cedr.QueryOption) *cedr.Query {
		t.Helper()
		q, err := sys.Register(src, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	for range 3 {
		register(missedRestartMiddle) // three endpoints, one shared chain
	}
	check("3 shared", 1)
	const tmpl = `EVENT Restarted WHEN RESTART AS r WHERE [Machine_Id Equal $m]`
	for i := range 4 {
		register(tmpl, cedr.WithTemplate(cedr.Payload{"m": "m" + strconv.Itoa(i%2)})) // two bindings, two chains
	}
	check("3 shared + 4 template", 3)
	private := register(missedRestartMiddle, cedr.WithoutSharing())
	register(missedRestartMiddle, cedr.WithoutSharing())
	check("3 shared + 4 template + 2 private", 5)
	private.Unregister()
	check("one private unregistered", 4)
	sys.Queries()[0].Unregister()
	check("one shared unregistered", 4)
}
