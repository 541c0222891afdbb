package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/eventio"
)

// The two surfaces are two encodings of one verb layer: what a request
// reads over HTTP it reads over the binary protocol, and a subscription on
// either ends with its consumer.

// httpDo performs one request against ts and decodes a JSON reply into out
// (if non-nil), returning the status code.
func httpDo(t *testing.T, ts *httptest.Server, method, path, body string, out any) int {
	t.Helper()
	req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	res, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if out != nil && res.StatusCode < 300 {
		if err := json.NewDecoder(res.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
	}
	io.Copy(io.Discard, res.Body)
	return res.StatusCode
}

// streamLines reads n NDJSON lines of query id's /stream as tagged items,
// each event kept in its JSON encoding.
func streamLines(t *testing.T, ctx context.Context, ts *httptest.Server, id, n int) []streamLine {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s/v1/queries/%d/stream", ts.URL, id), nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("stream: status %d", res.StatusCode)
	}
	var lines []streamLine
	sc := bufio.NewScanner(res.Body)
	for len(lines) < n && sc.Scan() {
		var l streamLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("stream line %q: %v", sc.Text(), err)
		}
		lines = append(lines, l)
	}
	if len(lines) < n {
		t.Fatalf("stream ended after %d of %d lines: %v", len(lines), n, sc.Err())
	}
	return lines
}

type streamLine struct {
	Tag   uint64          `json:"tag"`
	Event json.RawMessage `json:"event"`
}

// TestHTTPMatchesWire is the differential between the surfaces over every
// route: registrations with every register field, status, sync, finish and
// a /stream subscription read the same over HTTP as over the wire and as
// in-process, and every error maps to its status.
func TestHTTPMatchesWire(t *testing.T) {
	const (
		armed = `EVENT Armed WHEN HOT h WHERE {h.armed = $armed} CONSISTENCY middle`
		keyed = `EVENT Keyed WHEN UNLESS(HOT h, COOL c, 10 seconds) WHERE CorrelationKey(sensor, EQUAL)`
	)
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
	if err := c.Open("wire"); err != nil {
		t.Fatal(err)
	}

	// Each register body over HTTP, then the same options over the wire.
	strong := cedr.Strong()
	src := jsonString(stuckHot)
	for _, tc := range []struct {
		body, src string
		ro        RegOptions
	}{
		{`{"src": ` + src + `}`, stuckHot, RegOptions{}},
		{`{"src": ` + src + `, "consistency": {"b": -1, "m": -1}}`, stuckHot, RegOptions{Spec: &strong}},
		{`{"src": ` + jsonString(keyed) + `, "shards": 4}`, keyed, RegOptions{Shards: 4}},
		{`{"src": ` + src + `, "no_sharing": true}`, stuckHot, RegOptions{NoSharing: true}},
		{`{"src": ` + jsonString(armed) + `, "bindings": {"armed": true}}`, armed,
			RegOptions{Bindings: cedr.Payload{"armed": true}}},
	} {
		var h queryInfo
		if code := httpDo(t, ts, http.MethodPost, "/v1/queries", tc.body, &h); code != http.StatusCreated {
			t.Fatalf("register %s: status %d", tc.body, code)
		}
		w, err := c.Register(tc.src, tc.ro)
		if err != nil {
			t.Fatal(err)
		}
		if h.Name != w.Name || h.Shards != w.Shards || h.Shared != w.Shared || w.ID != h.ID+1 {
			t.Errorf("register %s: http %+v, wire %+v", tc.body, h, w)
		}
		qs := sys.Queries()
		if a, b := qs[h.ID], qs[w.ID]; a.Explain() != b.Explain() || a.Shared() != b.Shared() {
			t.Errorf("register %s: plans differ\nhttp:\n%s\nwire:\n%s", tc.body, a.Explain(), b.Explain())
		}
	}
	if qs := sys.Queries(); qs[4].Shards() != 4 || qs[6].Shared() || !qs[0].Shared() {
		t.Fatalf("register fields did not take effect: shards %d, no_sharing shared %v, default shared %v",
			qs[4].Shards(), qs[6].Shared(), qs[0].Shared())
	}

	// One query, three subscribers: the wire, /stream, and in-process.
	const id = 0
	events := lateStream()
	want, _ := referenceRun(t, stuckHot, events)
	if err := c.Subscribe(id); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	streamed := make(chan []streamLine, 1)
	go func() { streamed <- streamLines(t, ctx, ts, id, len(want)) }()
	for _, e := range events {
		if err := c.Push(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Sync(); err != nil { // the pushes are applied before the HTTP requests
		t.Fatal(err)
	}
	var synced map[string]bool
	if code := httpDo(t, ts, http.MethodPost, "/v1/sync", "", &synced); code != http.StatusOK || !synced["synced"] {
		t.Fatalf("sync: %d %v", code, synced)
	}
	if code := httpDo(t, ts, http.MethodPost, "/v1/finish", "", nil); code != http.StatusOK {
		t.Fatalf("finish: %d", code)
	}
	wire := collect(t, c, len(want))
	assertSameOutput(t, want, wire)
	var local []tagged
	cancelLocal := sys.Queries()[id].SubscribeTagged(true, func(e cedr.Event, tag uint64) { local = append(local, tagged{tag, e}) })
	cancelLocal()
	assertSameOutput(t, want, local)
	lines := <-streamed
	for i, l := range lines {
		ev, err := eventio.MarshalJSON(want[i].ev)
		if err != nil {
			t.Fatal(err)
		}
		if l.Tag != want[i].tag || string(l.Event) != string(ev) {
			t.Fatalf("stream line %d: tag %d %s, want tag %d %s", i, l.Tag, l.Event, want[i].tag, ev)
		}
	}

	// Status.
	for _, id := range []int{0, 5} {
		var h queryInfo
		if code := httpDo(t, ts, http.MethodGet, fmt.Sprintf("/v1/queries/%d", id), "", &h); code != http.StatusOK {
			t.Fatalf("status %d: %d", id, code)
		}
		w, err := c.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if h.ID != w.Query || h.Shards != w.Shards || uint64(h.Results) != w.Results || h.Err != w.Err {
			t.Errorf("status %d: http %+v, wire %+v", id, h, w)
		}
	}

	// Errors.
	for _, tc := range []struct {
		method, path, body string
		code               int
	}{
		{http.MethodGet, "/v1/queries/x", "", http.StatusBadRequest},
		{http.MethodGet, "/v1/queries/99", "", http.StatusNotFound},
		{http.MethodDelete, "/v1/queries/99", "", http.StatusNotFound},
		{http.MethodGet, "/v1/queries/99/results", "", http.StatusNotFound},
		{http.MethodGet, "/v1/queries/99/stream", "", http.StatusNotFound},
		{http.MethodGet, "/v1/queries/x/stream", "", http.StatusBadRequest},
		{http.MethodPost, "/v1/queries", `{"src": ` + src + `, "colour": "red"}`, http.StatusBadRequest},
		{http.MethodPost, "/v1/queries", `{"src": "EVENT Broken WHEN"}`, http.StatusBadRequest},
	} {
		if code := httpDo(t, ts, tc.method, tc.path, tc.body, nil); code != tc.code {
			t.Errorf("%s %s %s: status %d, want %d", tc.method, tc.path, tc.body, code, tc.code)
		}
	}
}

// subscriptions is the length of the subscription list of q's chain. No
// API reports it, so it is read through reflection; callers establish
// happens-before with every subscribe and cancel first.
func subscriptions(q *cedr.Query) int {
	return reflect.ValueOf(q).Elem().FieldByName("ch").Elem().FieldByName("subs").Len()
}

// liveHeap is the heap in use after a full collection.
func liveHeap() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestSubscriptionsEndWithConsumer: a subscription ends with its consumer.
// 200 binary subscribe-then-disconnect cycles and 50 cancelled /stream
// requests leave the chain's subscription count where it started and the
// heap within 1 MiB of where it was.
func TestSubscriptionsEndWithConsumer(t *testing.T) {
	sys := cedr.New()
	q, err := sys.Register(stuckHot)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range lateStream() {
		sys.Push(e)
	}
	sys.Finish()
	srv, addr := startServer(t, sys)
	defer srv.Shutdown()

	subscribeOnce := func() {
		c, err := Dial(addr, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Subscribe(0); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	// settled waits until the server has dropped every connection: each
	// connection's subscriptions end before it leaves srv.conns.
	settled := func() {
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			srv.mu.Lock()
			n := len(srv.conns)
			srv.mu.Unlock()
			if n == 0 {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%d connections still open", n)
			}
		}
	}
	for range 5 {
		subscribeOnce()
	}
	settled()
	base, subs := liveHeap(), subscriptions(q)

	for range 200 {
		subscribeOnce()
	}
	settled()
	ts := httptest.NewServer(srv.Handler())
	for range 50 {
		ctx, cancel := context.WithCancel(context.Background())
		streamLines(t, ctx, ts, 0, 1)
		cancel()
	}
	ts.Close() // returns once every handler has

	grown := int64(liveHeap()) - int64(base)
	t.Logf("heap growth over 250 ended subscriptions: %d KiB (bound 1024)", grown>>10)
	if grown > 1<<20 {
		t.Errorf("heap grew %d KiB over 250 ended subscriptions", grown>>10)
	}
	if n := subscriptions(q); n != subs {
		t.Errorf("chain holds %d subscriptions after its consumers left, %d before", n, subs)
	}
}

// TestJSONValueRule: a query binding and a payload value read JSON by one
// rule, eventio.JSONValue: the same dynamic type and value, or both
// refused.
func TestJSONValueRule(t *testing.T) {
	for _, tc := range []struct {
		text string
		want any // nil: refused
	}{
		{`3`, int64(3)}, {`-0`, int64(0)}, {`3.0`, 3.0}, {`1e2`, 100.0},
		{`9223372036854775808`, 9223372036854775808.0}, {`"x"`, "x"}, {`true`, true},
		{`null`, nil}, {`[1]`, nil},
	} {
		_, o, bindErr := readRegisterBody(strings.NewReader(`{"src": "EVENT E WHEN ANY(A a)", "bindings": {"v": ` + tc.text + `}}`))
		e, payErr := eventio.UnmarshalJSON([]byte(`{"kind": "insert", "id": 1, "type": "A", "vs": 0, "payload": {"v": ` + tc.text + `}}`))
		if tc.want == nil {
			if bindErr == nil || payErr == nil {
				t.Errorf("%s: binding (%v) and payload value (%v) must both be refused", tc.text, bindErr, payErr)
			}
			continue
		}
		if bindErr != nil || payErr != nil {
			t.Errorf("%s: binding (%v) and payload value (%v) must both be accepted", tc.text, bindErr, payErr)
			continue
		}
		if b, p := o.Bindings["v"], e.Payload["v"]; b != tc.want || p != tc.want {
			t.Errorf("%s: binding %#v (%T), payload value %#v (%T), want %#v (%T)", tc.text, b, b, p, p, tc.want, tc.want)
		}
	}
}
