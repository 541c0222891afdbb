package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/event"
	"repro/internal/plan"
	"repro/internal/wal"
)

const stuckHot = `
EVENT StuckHot
WHEN UNLESS(HOT h, COOL c, 10 seconds)
WHERE {h.sensor = c.sensor}
CONSISTENCY middle`

// lateStream produces optimistic output AND a compensating retraction:
// HOT B's arrival advances the optimistic frontier past sensor A's
// UNLESS deadline (middle consistency emits the detection immediately),
// then A's COOL arrives out of order, inside the window, and the
// monitor repairs the output with a retraction.
func lateStream() []event.Event {
	sec := cedr.Time(1000)
	return []event.Event{
		cedr.NewEvent(1, "HOT", 1*sec, cedr.Forever, cedr.Payload{"sensor": "A"}),
		cedr.NewEvent(2, "HOT", 15*sec, cedr.Forever, cedr.Payload{"sensor": "B"}),
		cedr.NewEvent(3, "COOL", 4*sec, cedr.Forever, cedr.Payload{"sensor": "A"}), // late repair
		cedr.NewCTI(40 * sec),
	}
}

// tagged is one observed output item.
type tagged struct {
	tag uint64
	ev  event.Event
}

// referenceRun executes a query in-process over events and returns the
// exact tagged output sequence plus surviving alerts.
func referenceRun(t *testing.T, src string, events []event.Event, opts ...cedr.QueryOption) ([]tagged, []event.Event) {
	t.Helper()
	sys := cedr.New()
	q, err := sys.Register(src, opts...)
	if err != nil {
		t.Fatal(err)
	}
	var got []tagged
	q.SubscribeTagged(0, func(e cedr.Event, tag uint64) {
		got = append(got, tagged{tag, e})
	})
	for _, e := range events {
		sys.Push(e)
	}
	sys.Finish()
	return got, q.Alerts()
}

// startServer wires a Server over sys to a loopback listener.
func startServer(t *testing.T, sys *cedr.System, opts ...Option) (*Server, string) {
	t.Helper()
	srv := New(sys, opts...)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	return srv, ln.Addr().String()
}

// collect drains n outputs from the client, failing on timeout.
func collect(t *testing.T, c *Client, n int) []tagged {
	t.Helper()
	var got []tagged
	deadline := time.After(10 * time.Second)
	for len(got) < n {
		select {
		case out, ok := <-c.Outputs():
			if !ok {
				t.Fatalf("connection closed after %d/%d outputs: %v", len(got), n, c.Err())
			}
			got = append(got, tagged{out.Tag, out.Event})
		case <-deadline:
			t.Fatalf("timed out after %d/%d outputs", len(got), n)
		}
	}
	return got
}

// encode renders an event with the wire/WAL codec for byte comparison.
func encode(t *testing.T, e event.Event) []byte {
	t.Helper()
	b, err := wal.AppendEvent(nil, e)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// assertSameOutput requires the remote sequence to be byte-identical to
// the in-process one — same events, same order, same chain tags.
func assertSameOutput(t *testing.T, want, got []tagged) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("output length: in-process %d, remote %d", len(want), len(got))
	}
	for i := range want {
		if want[i].tag != got[i].tag {
			t.Fatalf("output %d: tag %d in-process, %d remote", i, want[i].tag, got[i].tag)
		}
		if !bytes.Equal(encode(t, want[i].ev), encode(t, got[i].ev)) {
			t.Fatalf("output %d: event differs\nin-process: %s\nremote:     %s",
				i, want[i].ev, got[i].ev)
		}
	}
}

// TestLoopbackDifferential is the tentpole proof: a remote session —
// register, subscribe, push, finish over TCP — observes byte-for-byte
// the output an in-process subscriber sees, chain tags included, with
// optimistic inserts AND the compensating retraction crossing the wire.
func TestLoopbackDifferential(t *testing.T) {
	events := lateStream()
	want, wantAlerts := referenceRun(t, stuckHot, events)
	if len(want) == 0 {
		t.Fatal("reference run produced no output; bad scenario")
	}
	retracts := 0
	for _, w := range want {
		if w.ev.Kind == event.Retract {
			retracts++
		}
	}
	if retracts == 0 {
		t.Fatal("reference run produced no retraction; the differential must cover compensation")
	}

	sys := cedr.New()
	srv, addr := startServer(t, sys)
	defer srv.Shutdown()

	c, err := Dial(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Open("test-source"); err != nil {
		t.Fatal(err)
	}
	rq, err := c.Register(stuckHot, RegOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rq.Name != "StuckHot" {
		t.Fatalf("registered name %q", rq.Name)
	}
	if err := c.Subscribe(rq.ID); err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if err := c.Push(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Finish(); err != nil {
		t.Fatal(err)
	}
	got := collect(t, c, len(want))
	assertSameOutput(t, want, got)

	st, err := c.Status(rq.ID)
	if err != nil {
		t.Fatal(err)
	}
	if int(st.Results) != len(want) || st.Err != "" {
		t.Fatalf("status = %+v, want %d results and no error", st, len(want))
	}
	_ = wantAlerts
}

// TestTwoConnections splits roles across sessions: one connection is
// the source, another the subscriber — the subscriber still observes
// the exact in-process sequence, and its late subscription replays the
// history already produced.
func TestTwoConnections(t *testing.T) {
	events := lateStream()
	want, _ := referenceRun(t, stuckHot, events)

	sys := cedr.New()
	srv, addr := startServer(t, sys)
	defer srv.Shutdown()

	src, err := Dial(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if err := src.Open("pusher"); err != nil {
		t.Fatal(err)
	}
	rq, err := src.Register(stuckHot, RegOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Push half, subscribe from a second connection (history replays),
	// push the rest.
	half := len(events) / 2
	for _, e := range events[:half] {
		if err := src.Push(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.Sync(); err != nil {
		t.Fatal(err)
	}

	sub, err := Dial(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if err := sub.Subscribe(rq.ID); err != nil {
		t.Fatal(err)
	}
	for _, e := range events[half:] {
		if err := src.Push(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.Finish(); err != nil {
		t.Fatal(err)
	}
	got := collect(t, sub, len(want))
	assertSameOutput(t, want, got)
}

// TestTemplateBindingBool proves the boolean value domain end-to-end
// over the wire: a template instance bound to the *boolean* true must
// match events whose payload carries boolean true — and not the string
// "true" — exactly as in-process registration would.
func TestTemplateBindingBool(t *testing.T) {
	const tmpl = `
EVENT Armed
WHEN HOT h
WHERE {h.armed = $armed}
CONSISTENCY middle`
	sec := cedr.Time(1000)
	events := []event.Event{
		cedr.NewEvent(1, "HOT", 1*sec, cedr.Forever, cedr.Payload{"armed": true}),
		cedr.NewEvent(2, "HOT", 2*sec, cedr.Forever, cedr.Payload{"armed": "true"}),
		cedr.NewEvent(3, "HOT", 3*sec, cedr.Forever, cedr.Payload{"armed": false}),
		cedr.NewCTI(10 * sec),
	}
	want, wantAlerts := referenceRun(t, tmpl, events, cedr.WithTemplate(cedr.Payload{"armed": true}))
	if len(wantAlerts) != 1 {
		t.Fatalf("reference detected %d events, want exactly the boolean-true one", len(wantAlerts))
	}

	sys := cedr.New()
	srv, addr := startServer(t, sys)
	defer srv.Shutdown()
	c, err := Dial(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Open(""); err != nil {
		t.Fatal(err)
	}
	rq, err := c.Register(tmpl, RegOptions{Bindings: cedr.Payload{"armed": true}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Subscribe(rq.ID); err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if err := c.Push(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Finish(); err != nil {
		t.Fatal(err)
	}
	assertSameOutput(t, want, collect(t, c, len(want)))
}

// TestRegisterOptionsOnWire checks the remaining Register surface:
// explicit consistency, sharing identity, and shard counts all travel.
func TestRegisterOptionsOnWire(t *testing.T) {
	sys := cedr.New()
	srv, addr := startServer(t, sys)
	defer srv.Shutdown()
	c, err := Dial(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	strong := cedr.Strong()
	a, err := c.Register(stuckHot, RegOptions{Spec: &strong})
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Register(stuckHot, RegOptions{Spec: &strong})
	if err != nil {
		t.Fatal(err)
	}
	if a.ID == b.ID {
		t.Fatal("two registrations share one wire id")
	}
	if !a.Shared || !b.Shared {
		t.Fatalf("identical registrations should share a chain: %+v %+v", a, b)
	}
	priv, err := c.Register(stuckHot, RegOptions{Spec: &strong, NoSharing: true})
	if err != nil {
		t.Fatal(err)
	}
	if priv.Shared {
		t.Fatalf("NoSharing registration reports shared: %+v", priv)
	}
	qs := sys.Queries()
	if len(qs) != 3 {
		t.Fatalf("server registered %d queries, want 3", len(qs))
	}
}

// TestRegisterRefusesShardsAboveCap: a register frame or HTTP body asking
// for more than plan.MaxShards shards of a partitionable query is refused,
// registers nothing and starts no goroutine — it once started one worker
// per requested shard — and the session stays usable.
func TestRegisterRefusesShardsAboveCap(t *testing.T) {
	const keyed = `EVENT Keyed WHEN UNLESS(HOT h, COOL c, 10 seconds) WHERE CorrelationKey(sensor, EQUAL)`
	sys := cedr.New()
	srv, addr := startServer(t, sys)
	defer srv.Shutdown()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c, err := Dial(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Register(keyed, RegOptions{Shards: 2}); err != nil {
		t.Fatal(err)
	}
	// Goroutines an earlier test left may still exit, never start: the
	// count can only fall unless the refused registration starts one.
	before := runtime.NumGoroutine()
	if _, err := c.Register(keyed, RegOptions{Shards: 1 << 20}); err == nil || !strings.Contains(err.Error(), "shards") {
		t.Fatalf("register frame for 1<<20 shards: %v, want a refusal", err)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("a refused register frame started goroutines: %d, %d before", n, before)
	}
	body := fmt.Sprintf(`{"src": %s, "shards": %d}`, jsonString(keyed), plan.MaxShards+1)
	if code := httpDo(t, ts, http.MethodPost, "/v1/queries", body, nil); code != http.StatusBadRequest {
		t.Fatalf("HTTP register for %d shards: status %d, want 400", plan.MaxShards+1, code)
	}
	if n := len(sys.Queries()); n != 1 {
		t.Fatalf("%d queries registered, want only the one within the cap", n)
	}
	if _, err := c.Register(keyed, RegOptions{}); err != nil {
		t.Fatalf("session unusable after a refused register: %v", err)
	}
}

// TestSessionErrors pins the error surface: a push before open is
// session-fatal; a bad query text is request-scoped and leaves the
// session usable; unknown query ids are request-scoped.
func TestSessionErrors(t *testing.T) {
	sys := cedr.New()
	srv, addr := startServer(t, sys)
	defer srv.Shutdown()

	t.Run("push-before-open", func(t *testing.T) {
		c, err := Dial(addr, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Push(cedr.NewEvent(1, "HOT", 0, cedr.Forever, nil)); err != nil {
			t.Fatal(err)
		}
		if err := c.Sync(); err == nil {
			t.Fatal("push before open did not fail the session")
		} else if !strings.Contains(err.Error(), "open") {
			t.Fatalf("unexpected error: %v", err)
		}
	})

	t.Run("bad-query-keeps-session", func(t *testing.T) {
		c, err := Dial(addr, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		// The second text ends where a duration must follow: the parser
		// once read past its last token and panicked the whole server.
		for _, broken := range []string{"EVENT Broken WHEN", "EVENT A WHEN UNLESS(0,"} {
			if _, err := c.Register(broken, RegOptions{}); err == nil {
				t.Fatalf("register of broken query %q succeeded", broken)
			}
		}
		// Session must still work.
		if _, err := c.Register(stuckHot, RegOptions{}); err != nil {
			t.Fatalf("session dead after request-scoped error: %v", err)
		}
	})

	t.Run("unknown-query-id", func(t *testing.T) {
		c, err := Dial(addr, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Subscribe(9999); err == nil {
			t.Fatal("subscribe to unknown id succeeded")
		}
		if _, err := c.Status(9999); err == nil {
			t.Fatal("status of unknown id succeeded")
		}
		if err := c.Unregister(9999); err == nil {
			t.Fatal("unregister of unknown id succeeded")
		}
		// Still alive.
		if err := c.Open("still-here"); err != nil {
			t.Fatalf("session dead after unknown-id errors: %v", err)
		}
	})

	t.Run("bad-handshake", func(t *testing.T) {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		if _, err := nc.Write([]byte("HTTP/1.1 GET /")); err != nil {
			t.Fatal(err)
		}
		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		// The server answers with an err frame and closes.
		buf, _ := io.ReadAll(nc)
		if !bytes.Contains(buf, []byte("bad handshake")) {
			t.Fatalf("no handshake rejection in %q", buf)
		}
	})
}

// TestBackpressureFailStop pins the bounded-queue contract: a
// subscriber that never drains is disconnected once its queue and the
// socket fill, while the engine — and other sessions — keep running.
func TestBackpressureFailStop(t *testing.T) {
	sys := cedr.New()
	srv, addr := startServer(t, sys, WithQueue(4))
	defer srv.Shutdown()

	src, err := Dial(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if err := src.Open("pusher"); err != nil {
		t.Fatal(err)
	}
	// A passthrough query with bulky payloads so output volume fills the
	// socket quickly.
	rq, err := src.Register(`EVENT Echo WHEN HOT h CONSISTENCY middle`, RegOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Raw subscriber that never reads after subscribing.
	stalled, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	if _, err := stalled.Write([]byte(Magic)); err != nil {
		t.Fatal(err)
	}
	if _, err := stalled.Write(frameOf(fSubscribe, wal.AppendU32(nil, uint32(rq.ID)))); err != nil {
		t.Fatal(err)
	}

	blob := strings.Repeat("x", 32*1024)
	sec := cedr.Time(1000)
	for i := 0; i < 512; i++ {
		e := cedr.NewEvent(cedr.ID(i+1), "HOT", cedr.Time(i)*sec, cedr.Forever,
			cedr.Payload{"blob": blob})
		if err := src.Push(e); err != nil {
			t.Fatal(err)
		}
		if i%32 == 31 {
			if err := src.Sync(); err != nil {
				t.Fatalf("healthy session failed at %d: %v", i, err)
			}
		}
	}
	if err := src.Sync(); err != nil {
		t.Fatalf("pusher session harmed by slow subscriber: %v", err)
	}

	// The stalled connection must be torn down by the server.
	stalled.SetReadDeadline(time.Now().Add(10 * time.Second))
	buf := make([]byte, 64*1024)
	for {
		if _, err := stalled.Read(buf); err != nil {
			break // EOF/reset: fail-stopped
		}
	}

	// Engine health: the query accumulated everything.
	qs := sys.Queries()
	if len(qs) != 1 {
		t.Fatalf("%d queries", len(qs))
	}
	if err := qs[0].Err(); err != nil {
		t.Fatalf("query quarantined by slow subscriber: %v", err)
	}
	if n := len(qs[0].Results()); n < 512 {
		t.Fatalf("engine lost input: %d results", n)
	}
}

// TestCrashRecoveryOverWire is the serve half of the durability story:
// a server whose process dies (Abort — no close, no final sync) and
// restarts over the same WAL serves the identical output history, and
// the session resumes with the query ids clients already hold.
func TestCrashRecoveryOverWire(t *testing.T) {
	events := lateStream()
	want, _ := referenceRun(t, stuckHot, events)
	walPath := filepath.Join(t.TempDir(), "serve.wal")

	// First incarnation: SyncEvery(1) so every applied record is durable
	// at the moment the crash hits.
	sys1, err := cedr.Open(walPath, cedr.WithSyncEvery(1))
	if err != nil {
		t.Fatal(err)
	}
	srv1, addr1 := startServer(t, sys1)
	c1, err := Dial(addr1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Open("src"); err != nil {
		t.Fatal(err)
	}
	rq, err := c1.Register(stuckHot, RegOptions{})
	if err != nil {
		t.Fatal(err)
	}
	half := 3 // HOT A, HOT B, CTI(20s): past the optimistic detections
	for _, e := range events[:half] {
		if err := c1.Push(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := c1.Sync(); err != nil {
		t.Fatal(err)
	}
	// Crash: connections drop, the system is abandoned un-closed.
	srv1.Abort()
	c1.Close()

	// Second incarnation over the same log.
	sys2, err := cedr.Open(walPath, cedr.WithSyncEvery(1))
	if err != nil {
		t.Fatal(err)
	}
	srv2, addr2 := startServer(t, sys2)
	defer srv2.Shutdown()
	c2, err := Dial(addr2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.Open("src"); err != nil {
		t.Fatal(err)
	}
	// The client's pre-crash query id must still resolve — registry
	// order is log order.
	if err := c2.Subscribe(rq.ID); err != nil {
		t.Fatalf("pre-crash query id did not survive restart: %v", err)
	}
	for _, e := range events[half:] {
		if err := c2.Push(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := c2.Finish(); err != nil {
		t.Fatal(err)
	}
	got := collect(t, c2, len(want))
	assertSameOutput(t, want, got)
}

// TestIDsSurviveRestartAfterUnregister: a query's id is its WAL query id,
// so unregistering one query renumbers no other, before a restart or after
// it. A, B and C register on a durable system, A unregisters, the stream is
// pushed, and the server crashes; after the restart B and C answer status
// (binary and HTTP) and a subscription by the ids they had, each
// subscription replaying byte for byte what it replayed before the crash,
// while A's id names no query and the listing holds B and C alone.
func TestIDsSurviveRestartAfterUnregister(t *testing.T) {
	srcs := []string{`EVENT Gone WHEN COOL c`, stuckHot, `EVENT Hot WHEN HOT h`}
	walPath := filepath.Join(t.TempDir(), "serve.wal")

	// replay subscribes c to each of ids in turn and reads its history.
	replay := func(c *Client, ids []int) map[int][]tagged {
		out := map[int][]tagged{}
		for _, id := range ids {
			st, err := c.Status(id)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Subscribe(id); err != nil {
				t.Fatal(err)
			}
			out[id] = collect(t, c, st.Results)
		}
		return out
	}
	noQuery := func(when string, c *Client, id int) {
		t.Helper()
		if _, err := c.Status(id); err == nil || !strings.Contains(err.Error(), "no query") {
			t.Fatalf("%s: status of unregistered id %d: %v, want no query", when, id, err)
		}
		if err := c.Subscribe(id); err == nil {
			t.Fatalf("%s: subscribed to unregistered id %d", when, id)
		}
	}

	sys1, err := cedr.Open(walPath, cedr.WithSyncEvery(1))
	if err != nil {
		t.Fatal(err)
	}
	srv1, addr1 := startServer(t, sys1)
	c1, err := Dial(addr1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Open("src"); err != nil {
		t.Fatal(err)
	}
	infos := make([]QueryInfo, len(srcs))
	for i, src := range srcs {
		if infos[i], err = c1.Register(src, RegOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	a, kept := infos[0].ID, []int{infos[1].ID, infos[2].ID}
	if err := c1.Unregister(a); err != nil {
		t.Fatal(err)
	}
	for _, e := range lateStream() {
		if err := c1.Push(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := c1.Sync(); err != nil {
		t.Fatal(err)
	}
	noQuery("before the restart", c1, a)
	before := replay(c1, kept)
	for _, id := range kept {
		if len(before[id]) == 0 {
			t.Fatalf("query %d produced no output; bad scenario", id)
		}
	}
	srv1.Abort()
	c1.Close()

	sys2, err := cedr.Open(walPath, cedr.WithSyncEvery(1))
	if err != nil {
		t.Fatal(err)
	}
	srv2, addr2 := startServer(t, sys2)
	defer srv2.Shutdown()
	ts := httptest.NewServer(srv2.Handler())
	defer ts.Close()
	c2, err := Dial(addr2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	noQuery("after the restart", c2, a)
	if code := httpDo(t, ts, http.MethodGet, fmt.Sprintf("/v1/queries/%d", a), "", nil); code != http.StatusNotFound {
		t.Fatalf("GET unregistered query %d: status %d, want 404", a, code)
	}
	var listed []QueryInfo
	if code := httpDo(t, ts, http.MethodGet, "/v1/queries", "", &listed); code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	var health struct{ Queries int }
	if code := httpDo(t, ts, http.MethodGet, "/healthz", "", &health); code != http.StatusOK || health.Queries != len(kept) {
		t.Fatalf("healthz: status %d, %d queries, want %d", code, health.Queries, len(kept))
	}
	if len(listed) != len(kept) {
		t.Fatalf("listed %+v, want ids %v", listed, kept)
	}
	for i, id := range kept {
		st, err := c2.Status(id)
		if err != nil {
			t.Fatalf("query %d after the restart: %v", id, err)
		}
		var h QueryInfo
		if code := httpDo(t, ts, http.MethodGet, fmt.Sprintf("/v1/queries/%d", id), "", &h); code != http.StatusOK {
			t.Fatalf("GET query %d after the restart: status %d", id, code)
		}
		if want := infos[i+1]; st.ID != id || st.Name != want.Name || h != st || listed[i] != st {
			t.Errorf("query %d after the restart: wire %+v, http %+v, listed %+v; registered as %+v", id, st, h, listed[i], want)
		}
	}
	after := replay(c2, kept)
	for _, id := range kept {
		assertSameOutput(t, before[id], after[id])
	}
}

// TestHTTPSurface drives the JSON convenience API end to end and checks
// its text rendering matches the in-process one line for line.
func TestHTTPSurface(t *testing.T) {
	events := lateStream()
	want, wantAlerts := referenceRun(t, stuckHot, events)

	sys := cedr.New()
	srv := New(sys)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown()

	// Health.
	res, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", res.StatusCode)
	}

	// Register.
	body := `{"src": ` + strings.TrimSpace(jsonString(stuckHot)) + `}`
	res, err = http.Post(ts.URL+"/v1/queries", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var info struct {
		ID   int    `json:"id"`
		Name string `json:"name"`
	}
	if err := json.NewDecoder(res.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusCreated || info.Name != "StuckHot" {
		t.Fatalf("register: %d %+v", res.StatusCode, info)
	}

	// Push as CSV, then as NDJSON, sync after the batch. The two
	// batches together are exactly lateStream.
	csv := `insert,1,HOT,1000,inf,sensor=A
insert,2,HOT,15000,inf,sensor=B
`
	res, err = http.Post(ts.URL+"/v1/events?sync=1", "text/csv", strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("csv push: %d", res.StatusCode)
	}
	ndjson := `{"kind":"insert","id":3,"type":"COOL","vs":4000,"payload":{"sensor":"A"}}
{"kind":"cti","vs":40000}
`
	res, err = http.Post(ts.URL+"/v1/events?sync=1", "application/x-ndjson", strings.NewReader(ndjson))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("ndjson push: %d", res.StatusCode)
	}

	// Finish, then compare the text rendering against in-process.
	res, err = http.Post(ts.URL+"/v1/finish", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()

	res, err = http.Get(fmt.Sprintf("%s/v1/queries/%d/results?format=text", ts.URL, info.ID))
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(res.Body)
	res.Body.Close()
	var wantText strings.Builder
	for _, w := range want {
		if w.ev.IsCTI() {
			continue // the text format elides punctuation
		}
		fmt.Fprintf(&wantText, "%s\n", w.ev)
	}
	if string(text) != wantText.String() {
		t.Fatalf("text results differ\nhttp:\n%s\nin-process:\n%s", text, wantText.String())
	}

	// Alerts rendering.
	res, err = http.Get(fmt.Sprintf("%s/v1/queries/%d/results?format=text&alerts=1", ts.URL, info.ID))
	if err != nil {
		t.Fatal(err)
	}
	text, _ = io.ReadAll(res.Body)
	res.Body.Close()
	if got := strings.Count(string(text), "\n"); got != len(wantAlerts) {
		t.Fatalf("%d alert lines, want %d:\n%s", got, len(wantAlerts), text)
	}

	// Listing and unregister.
	res, err = http.Get(ts.URL + "/v1/queries")
	if err != nil {
		t.Fatal(err)
	}
	var list []map[string]any
	json.NewDecoder(res.Body).Decode(&list)
	res.Body.Close()
	if len(list) != 1 {
		t.Fatalf("list: %+v", list)
	}
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/queries/%d", ts.URL, info.ID), nil)
	res, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("unregister: %d", res.StatusCode)
	}
}

// jsonString renders s as a JSON string literal.
func jsonString(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// commentedCSV streams head, then CSV comment lines of 64 bytes up to n
// bytes in all, without holding more than one read's worth.
type commentedCSV struct {
	head string
	off  int
	n    int
}

func (c *commentedCSV) Read(p []byte) (int, error) {
	if c.off == c.n {
		return 0, io.EOF
	}
	p = p[:min(len(p), c.n-c.off)]
	for i := range p {
		switch at := c.off + i; {
		case at < len(c.head):
			p[i] = c.head[at]
		case (at-len(c.head))%64 == 63:
			p[i] = '\n'
		default:
			p[i] = '#'
		}
	}
	c.off += len(p)
	return len(p), nil
}

// TestEventsBodyIsBounded: POST /v1/events decodes its whole batch before
// it pushes any of it, so a body over maxFrame — a wire frame's bound — is
// refused with a 413 and nothing pushed, an event at its head included,
// where the same head alone is accepted.
func TestEventsBodyIsBounded(t *testing.T) {
	sys := cedr.New()
	q, err := sys.Register(`EVENT AnyInstall WHEN ANY(INSTALL i)`)
	if err != nil {
		t.Fatal(err)
	}
	const head = "insert,1,INSTALL,1,inf,Machine_Id=m1\ncti,10\n"
	h := New(sys).Handler()
	post := func(body io.Reader) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/events", body)
		req.Header.Set("Content-Type", "text/csv")
		h.ServeHTTP(rec, req)
		return rec
	}
	if rec := post(&commentedCSV{head: head, n: maxFrame + 1}); rec.Code != http.StatusRequestEntityTooLarge || q.Len() != 0 {
		t.Fatalf("a %d-byte body: %d %s, query holds %d items; want 413 and none", maxFrame+1, rec.Code, rec.Body, q.Len())
	}
	if rec := post(strings.NewReader(head)); rec.Code != http.StatusOK || q.Len() == 0 {
		t.Fatalf("the body's head alone: %d %s, query holds %d items; want 200 and its output", rec.Code, rec.Body, q.Len())
	}
}

// TestGracefulShutdownFlushes ensures Shutdown lets queued output reach
// a live subscriber before the connection closes.
func TestGracefulShutdownFlushes(t *testing.T) {
	events := lateStream()
	want, _ := referenceRun(t, stuckHot, events)

	sys := cedr.New()
	srv, addr := startServer(t, sys)
	c, err := Dial(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Open("src"); err != nil {
		t.Fatal(err)
	}
	rq, err := c.Register(stuckHot, RegOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Subscribe(rq.ID); err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if err := c.Push(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Finish(); err != nil {
		t.Fatal(err)
	}
	// Shut down the server before draining the client: everything
	// already produced must still arrive.
	done := make(chan error, 1)
	go func() { done <- srv.Shutdown() }()
	got := collect(t, c, len(want))
	assertSameOutput(t, want, got)
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}
