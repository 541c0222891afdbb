package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	cedr "repro"
	"repro/internal/eventio"
	"repro/internal/server"
)

// serveOpts selects a rung of the serve ladder; the workload itself is
// all of them.
type serveOpts struct {
	passOpts
	wal       bool // cedr.Open on a real file in place of cedr.New
	subscribe bool
	rtts      int  // closed-loop round trips after the ingest
	restart   bool // shut down, reopen the log, time until the history is back
}

// outputWait bounds every wait for a subscribed output item.
const outputWait = 30 * time.Second

// host is one served system: engine, server, listener, and one client.
type host struct {
	srv  *server.Server
	done chan error // Serve's return
	c    *server.Client
}

// startHost serves sys on a loopback port and connects the one client. The
// outbound queue and the client's output buffer hold the query's whole
// history: the server replays it in one burst on a late subscribe, and
// fails a subscriber whose queue overflows.
func startHost(sys *cedr.System, queue int) (*host, error) {
	h := &host{srv: server.New(sys, server.WithQueue(queue)), done: make(chan error, 1)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sys.Close()
		return nil, err
	}
	go func() { h.done <- h.srv.Serve(ln) }()
	if h.c, err = server.Dial(ln.Addr().String(), queue); err == nil {
		err = h.c.Open("bench")
	}
	if err != nil {
		h.stop()
		return nil, err
	}
	return h, nil
}

// stop closes the client, shuts the server down (which closes the system
// and its log) and waits for the accept loop to return.
func (h *host) stop() error {
	if h.c != nil {
		h.c.Close()
	}
	err := h.srv.Shutdown()
	if serr := <-h.done; err == nil {
		err = serr
	}
	return err
}

// receive takes n subscribed output items off the client.
func (h *host) receive(n int) (cedr.Stream, error) {
	out := make(cedr.Stream, 0, n)
	timeout := time.NewTimer(outputWait)
	defer timeout.Stop()
	for len(out) < n {
		select {
		case o, ok := <-h.c.Outputs():
			if !ok {
				return out, fmt.Errorf("connection closed after %d of %d outputs: %v", len(out), n, h.c.Err())
			}
			out = append(out, o.Event)
		case <-timeout.C:
			return out, fmt.Errorf("%d of %d outputs after %v", len(out), n, outputWait)
		}
	}
	return out, nil
}

// served is one pass of the serve path: pipelined pushes over TCP into a
// (durable) system, a Sync, then optionally the closed-loop phase and the
// restart.
func (b *bench) served(in *input, o serveOpts) (passResult, error) {
	var res passResult
	var base int64
	if o.heap {
		base = liveHeap()
	}
	sp := b.tr.begin("setup", o.parent, o.pass)
	items, err := eventio.ReadCSV(bytes.NewReader(in.CSV), "input")
	if err != nil {
		return res, err
	}
	queue := len(items) + o.rtts + 64
	var sys *cedr.System
	var log string
	if o.wal {
		log = filepath.Join(b.tmp, fmt.Sprintf("serve-%d.wal", o.pass))
		os.Remove(log)
		defer os.Remove(log)
		if sys, err = cedr.Open(log, cedr.WithSyncEvery(-1)); err != nil {
			return res, err
		}
	} else {
		sys = cedr.New()
	}
	h, err := startHost(sys, queue)
	if err != nil {
		return res, err
	}
	stopped := false
	defer func() {
		if !stopped {
			h.stop()
		}
	}()
	spec := cedr.Middle()
	q, err := h.c.Register(echoQuery, server.RegOptions{Spec: &spec})
	if err != nil {
		return res, err
	}
	if o.subscribe {
		if err := h.c.Subscribe(q.ID); err != nil {
			return res, err
		}
	}
	b.tr.end(sp)

	sp = b.tr.begin("ingest", o.parent, o.pass)
	o.calls.under(sp)
	res.Sec.start()
	for _, e := range items {
		t0 := time.Now()
		err := h.c.Push(e)
		if o.calls != nil {
			o.calls.add(callName(e), t0)
		}
		if err != nil {
			return res, fmt.Errorf("push: %w", err)
		}
	}
	fin := b.tr.begin("sync", sp, o.pass)
	err = h.c.Sync()
	b.tr.end(fin)
	res.Sec.stop()
	b.tr.end(sp)
	if err != nil {
		return res, fmt.Errorf("sync: %w", err)
	}
	res.Items = len(items)

	st, err := h.c.Status(q.ID)
	if err != nil {
		return res, err
	}
	if st.Err != "" {
		b.failf("serve: query quarantined: %s", st.Err)
	}
	var got cedr.Stream
	if o.subscribe {
		if got, err = h.receive(int(st.Results)); err != nil {
			return res, err
		}
	}

	// Closed loop, one client: push one fresh INSTALL, flush, wait for its
	// output item.
	items = nil
	for i := 0; i < o.rtts; i++ {
		e := in.loopEvent(i)
		t0 := time.Now()
		if err := h.c.Push(e); err != nil {
			return res, fmt.Errorf("closed-loop push: %w", err)
		}
		if err := h.c.Flush(); err != nil {
			return res, fmt.Errorf("closed-loop flush: %w", err)
		}
		out, err := h.receive(1)
		if err != nil {
			return res, err
		}
		if o.detect != nil {
			*o.detect = append(*o.detect, ms(time.Since(t0)))
		}
		got = append(got, out...)
	}
	if o.heap {
		res.LiveHeap = liveHeap() - base
	}
	res.Outputs = int(st.Results) // of the ingest; the closed loop's are not counted
	if qs := sys.Queries(); len(qs) > 0 {
		res.StateMax = qs[0].Metrics()[0].MaxState
	}
	res.Checked = len(got)
	res.Hash = hashStream(got)

	if !o.restart {
		return res, nil
	}
	stopped = true
	if err := h.stop(); err != nil {
		return res, fmt.Errorf("shutdown: %w", err)
	}
	sp = b.tr.begin("restart", o.parent, o.pass)
	t0 := time.Now()
	sys, err = cedr.Open(log, cedr.WithSyncEvery(-1))
	if err != nil {
		return res, fmt.Errorf("reopen: %w", err)
	}
	h2, err := startHost(sys, queue)
	if err != nil {
		return res, err
	}
	defer h2.stop()
	if err := h2.c.Subscribe(q.ID); err != nil {
		return res, err
	}
	st2, err := h2.c.Status(q.ID)
	if err != nil {
		return res, err
	}
	back, err := h2.receive(int(st2.Results))
	if err != nil {
		return res, err
	}
	res.SetupS = time.Since(t0).Seconds()
	b.tr.end(sp)
	res.Checked += len(back)
	if len(back) != len(got) {
		b.failf("serve: %d items recovered after restart, %d received before it", len(back), len(got))
	} else if hashStream(back) != res.Hash {
		b.failf("serve: history recovered after restart differs from the one received before it")
	}
	return res, nil
}

// loopEvent is the i-th event of the closed-loop phase: a fresh INSTALL that
// follows the stream's last sync point in application time, so it violates
// none.
func (in *input) loopEvent(i int) cedr.Event {
	after := in.Items[len(in.Items)-1].Sync()
	return cedr.NewEvent(cedr.ID(in.Events+i+1), "INSTALL", after.Add(cedr.Duration(i)), cedr.Forever,
		cedr.Payload{"Machine_Id": machineID(0)})
}

// echoReference is what an in-process system emits for the same stream
// and the same closed-loop events: the serve path must deliver exactly it.
func (b *bench) echoReference(in *input, rtts int) (string, int, error) {
	res, l, err := b.inproc(echoSystem(""), in, passOpts{})
	if err != nil {
		return "", 0, err
	}
	defer l.sys.Close()
	for i := 0; i < rtts; i++ {
		l.sys.Push(in.loopEvent(i))
	}
	if res.Items != len(in.Items) {
		return "", 0, errors.New("reference decoded a different stream")
	}
	out := l.qs[0].Results()
	return hashStream(out), len(out), nil
}
