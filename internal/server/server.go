// Package server hosts a CEDR system behind a network listener: the
// long-running form of the engine, where sources push events over TCP
// (or HTTP) and remote subscribers receive query output — inserts,
// compensating retractions, and punctuation, each with its chain order
// tag — exactly as an in-process subscriber would.
//
// One Server wraps one cedr.System. Connections are independent source
// sessions pushing into the same engine (the first deployment shape
// where real concurrency flows through Push), and queries live in a
// server-wide registry in registration order, so a query registered on
// one connection can be subscribed from another — and, on a durable
// system, re-subscribed by id after a crash and restart, because WAL
// replay reconstructs the registry in the same order.
//
// Flow control is fail-stop in both directions. Inbound: input that
// cannot be made durable is not processed — after a WAL failure the
// session is told and closed. Outbound: each connection has one bounded
// output queue; a subscriber that stops draining it is disconnected
// (the engine's synchronous delivery path never blocks on a slow
// network reader). The queue bound is the only backpressure mechanism —
// a deliberate choice, matching the paper's view that consistency
// repair, not transport pushback, absorbs disorder.
package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/consistency"
	"repro/internal/event"
	"repro/internal/temporal"
	"repro/internal/wal"
)

// DefaultQueue is the per-connection outbound frame queue bound.
const DefaultQueue = 4096

// errSlowSubscriber fails a connection whose outbound queue overflowed.
var errSlowSubscriber = errors.New("server: subscriber queue overflow (client not draining); failing stop")

// Server hosts one cedr.System behind any number of listeners.
type Server struct {
	sys      *cedr.System
	queueCap int

	mu        sync.Mutex
	entries   []*entry
	conns     map[*conn]struct{}
	listeners map[net.Listener]struct{}
	closed    bool

	wg sync.WaitGroup
}

// entry is one registry slot: a standing query plus the identity the
// wire protocol addresses it by. Ids are dense registration indices —
// stable across restarts of a durable system, because recovery replays
// registrations in log order.
type entry struct {
	id  int
	src string
	q   *cedr.Query
}

// Option configures a Server.
type Option func(*Server)

// WithQueue sets the per-connection outbound frame queue bound (default
// DefaultQueue). When a subscriber lets the queue fill, the connection
// is failed rather than letting delivery block the engine.
func WithQueue(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.queueCap = n
		}
	}
}

// New wraps an existing system. Queries already standing — typically
// recovered by WAL replay in cedr.Open — are adopted into the registry
// in registration order, so clients can re-subscribe by the ids they
// held before the restart.
func New(sys *cedr.System, opts ...Option) *Server {
	s := &Server{
		sys:       sys,
		queueCap:  DefaultQueue,
		conns:     map[*conn]struct{}{},
		listeners: map[net.Listener]struct{}{},
	}
	for _, o := range opts {
		o(s)
	}
	for _, q := range sys.Queries() {
		s.entries = append(s.entries, &entry{id: len(s.entries), q: q})
	}
	return s
}

// Serve accepts connections on ln until the listener fails or the
// server shuts down; it owns ln from here on. Run it in a goroutine per
// listener. Returns nil after Shutdown/Abort, the accept error
// otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("server: closed")
	}
	s.listeners[ln] = struct{}{}
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		c := s.newConn(nc)
		if c == nil {
			nc.Close()
			continue
		}
		s.wg.Add(2)
		go c.readLoop()
		go c.writeLoop()
	}
}

// newConn registers a connection, or returns nil if the server is
// closed.
func (s *Server) newConn(nc net.Conn) *conn {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	c := &conn{
		s:       s,
		nc:      nc,
		out:     make(chan []byte, s.queueCap),
		drainCh: make(chan struct{}),
	}
	s.conns[c] = struct{}{}
	return c
}

// Shutdown is the graceful stop: listeners close, the engine drains so
// every accepted push has been delivered, connection queues flush to
// the network, and finally the system itself closes (syncing and
// releasing the WAL). The SIGTERM path of `cedr serve`.
func (s *Server) Shutdown() error {
	conns := s.stop()
	s.sys.Drain()
	for _, c := range conns {
		c.shutdown()
	}
	s.wg.Wait()
	return s.sys.Close()
}

// Abort is the kill-like stop: connections drop mid-frame and the
// system is left untouched — not closed, not synced. The fault-
// injection harness uses it to model a crash whose recovery the WAL
// must carry; production exits use Shutdown.
func (s *Server) Abort() {
	for _, c := range s.stop() {
		c.fail(errors.New("server: aborted"))
	}
	s.wg.Wait()
}

// stop closes listeners and freezes the connection set.
func (s *Server) stop() []*conn {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	for ln := range s.listeners {
		ln.Close()
	}
	var conns []*conn
	for c := range s.conns {
		conns = append(conns, c)
	}
	return conns
}

// register compiles and installs a query, assigning its wire id.
func (s *Server) register(src string, ro regOpts) (*entry, error) {
	var opts []cedr.QueryOption
	if ro.hasSpec {
		opts = append(opts, cedr.WithSpec(ro.spec))
	}
	if ro.shards != 0 {
		opts = append(opts, cedr.WithShards(ro.shards))
	}
	if len(ro.bindings) > 0 {
		opts = append(opts, cedr.WithTemplate(ro.bindings))
	}
	if ro.noShare {
		opts = append(opts, cedr.WithoutSharing())
	}
	q, err := s.sys.Register(src, opts...)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	e := &entry{id: len(s.entries), src: src, q: q}
	s.entries = append(s.entries, e)
	s.mu.Unlock()
	return e, nil
}

// lookup resolves a wire query id.
func (s *Server) lookup(id int) (*entry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id < 0 || id >= len(s.entries) {
		return nil, fmt.Errorf("server: no query %d", id)
	}
	return s.entries[id], nil
}

// regOpts is the decoded register frame.
type regOpts struct {
	hasSpec  bool
	spec     cedr.Spec
	shards   int
	noShare  bool
	bindings event.Payload
}

// ---------------------------------------------------------------------------
// Connections

// conn is one client connection: a reader goroutine decoding and
// executing frames in arrival order, and a writer goroutine flushing
// the bounded outbound queue. Engine subscription callbacks enqueue
// into the same queue — non-blocking, so a slow client fails this
// connection and nothing else.
type conn struct {
	s  *Server
	nc net.Conn

	out     chan []byte
	dead    atomic.Bool
	drainCh chan struct{}

	failOnce  sync.Once
	drainOnce sync.Once

	// Reader-goroutine state (no locking needed).
	source string
	subs   map[int]bool
}

// send enqueues one outbound frame; overflow fails the connection
// (fail-stop for slow subscribers). Safe from any goroutine.
func (c *conn) send(frame []byte) bool {
	if c.dead.Load() {
		return false
	}
	select {
	case c.out <- frame:
		return true
	default:
		c.fail(errSlowSubscriber)
		return false
	}
}

// fail hard-stops the connection: no more enqueues, the socket closes,
// and the writer is released (its final flush fails against the closed
// socket and any queued frames are dropped).
func (c *conn) fail(err error) {
	c.failOnce.Do(func() {
		c.dead.Store(true)
		c.nc.Close()
		_ = err
	})
	c.drainOnce.Do(func() { close(c.drainCh) })
}

// shutdown is the graceful half-close used by Server.Shutdown: stop
// accepting new output, flush what is queued, then close.
func (c *conn) shutdown() {
	c.dead.Store(true)
	c.drainOnce.Do(func() { close(c.drainCh) })
}

// writeLoop flushes the outbound queue to the socket, batching bursts
// through one buffered writer so a saturated subscriber costs one
// syscall per burst, not per frame.
func (c *conn) writeLoop() {
	defer c.s.wg.Done()
	defer c.nc.Close()
	bw := bufio.NewWriterSize(c.nc, 64*1024)
	flushQueued := func() bool {
		for {
			select {
			case b := <-c.out:
				if _, err := bw.Write(b); err != nil {
					c.fail(err)
					return false
				}
			default:
				if err := bw.Flush(); err != nil {
					c.fail(err)
					return false
				}
				return true
			}
		}
	}
	for {
		select {
		case b := <-c.out:
			if _, err := bw.Write(b); err != nil {
				c.fail(err)
				return
			}
			if !flushQueued() {
				return
			}
		case <-c.drainCh:
			// Final flush with a bound: a peer that has stopped reading
			// must not pin shutdown.
			c.nc.SetWriteDeadline(time.Now().Add(5 * time.Second))
			flushQueued()
			return
		}
	}
}

// readLoop validates the handshake, then decodes and executes frames in
// arrival order until the connection dies.
func (c *conn) readLoop() {
	defer c.s.wg.Done()
	defer func() {
		// Graceful exit, not fail: the writer still flushes anything
		// queued (a farewell err frame, tail output) before the socket
		// closes — bounded by the drain deadline.
		c.shutdown()
		c.s.mu.Lock()
		delete(c.s.conns, c)
		c.s.mu.Unlock()
	}()
	br := bufio.NewReaderSize(c.nc, 64*1024)
	var magic [len(Magic)]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil || string(magic[:]) != Magic {
		c.send(appendFrame(nil, fErr, appendStr(nil, "server: bad handshake (expected "+Magic+")")))
		c.shutdown()
		return
	}
	for {
		t, body, err := readFrame(br)
		if err != nil {
			return
		}
		if err := c.handle(t, body); err != nil {
			c.send(appendFrame(nil, fErr, appendStr(nil, err.Error())))
			c.shutdown()
			return
		}
	}
}

// handle executes one frame. A returned error is session-fatal (the
// client receives it as an err frame and the connection closes);
// request-scoped errors are replied inline and keep the session alive.
func (c *conn) handle(t frameType, body []byte) error {
	switch t {
	case fOpen:
		r := &reader{b: body}
		src := r.str()
		if err := r.done(); err != nil {
			return err
		}
		c.source = src
		if c.source == "" {
			c.source = c.nc.RemoteAddr().String()
		}
		c.send(appendFrame(nil, fOK, appendStr(nil, "source "+c.source+" open")))
		return nil

	case fPush:
		if c.source == "" {
			return errors.New("server: push before open — open a source session first")
		}
		r := &reader{b: body}
		ev := r.event()
		if err := r.done(); err != nil {
			return err
		}
		c.s.sys.Push(ev)
		if err := c.s.sys.Err(); err != nil {
			// Fail-stop: the push was not made durable and was dropped.
			return err
		}
		return nil

	case fRegister:
		src, ro, derr := decodeRegister(body)
		if derr != nil {
			return derr
		}
		ent, err := c.s.register(src, ro)
		if err != nil {
			// Compile errors are request-scoped: report and keep the session.
			c.send(appendFrame(nil, fErr, appendStr(nil, err.Error())))
			return nil
		}
		b := appendU32(nil, uint32(ent.id))
		b = appendU32(b, uint32(ent.q.Shards()))
		shared := byte(0)
		if ent.q.Shared() {
			shared = 1
		}
		b = append(b, shared)
		b = appendStr(b, ent.q.Name())
		c.send(appendFrame(nil, fRegistered, b))
		return nil

	case fSubscribe:
		r := &reader{b: body}
		id := int(r.u32())
		if err := r.done(); err != nil {
			return err
		}
		ent, err := c.s.lookup(id)
		if err != nil {
			c.send(appendFrame(nil, fErr, appendStr(nil, err.Error())))
			return nil
		}
		if c.subs == nil {
			c.subs = map[int]bool{}
		}
		if c.subs[id] {
			c.send(appendFrame(nil, fOK, appendStr(nil, fmt.Sprintf("already subscribed to query %d", id))))
			return nil
		}
		c.subs[id] = true
		// The callback outlives an unsubscribe-less protocol; the dead
		// flag makes it a cheap no-op once the connection is gone.
		qid := uint32(id)
		ent.q.SubscribeTagged(true, func(ev event.Event, tag uint64) {
			if c.dead.Load() {
				return
			}
			b := appendU32(make([]byte, 0, 64), qid)
			b = appendU64(b, tag)
			b, err := wal.AppendEvent(b, ev)
			if err != nil {
				c.fail(err)
				return
			}
			c.send(appendFrame(nil, fOutput, b))
		})
		c.send(appendFrame(nil, fOK, appendStr(nil, fmt.Sprintf("subscribed to query %d", id))))
		return nil

	case fUnregister:
		r := &reader{b: body}
		id := int(r.u32())
		if err := r.done(); err != nil {
			return err
		}
		ent, err := c.s.lookup(id)
		if err != nil {
			c.send(appendFrame(nil, fErr, appendStr(nil, err.Error())))
			return nil
		}
		ent.q.Unregister()
		c.send(appendFrame(nil, fOK, appendStr(nil, fmt.Sprintf("query %d unregistered", id))))
		return nil

	case fSync:
		r := &reader{b: body}
		token := r.u64()
		if err := r.done(); err != nil {
			return err
		}
		c.s.sys.Drain()
		msg := ""
		if err := c.s.sys.Sync(); err != nil {
			msg = err.Error()
		} else if err := c.s.sys.Err(); err != nil {
			msg = err.Error()
		}
		b := appendU64(nil, token)
		b = appendStr(b, msg)
		c.send(appendFrame(nil, fSynced, b))
		return nil

	case fFinish:
		if len(body) != 0 {
			return errors.New("server: finish frame carries a body")
		}
		c.s.sys.Finish()
		msg := ""
		if err := c.s.sys.Err(); err != nil {
			msg = "finish applied; system error: " + err.Error()
		} else {
			msg = "finished"
		}
		c.send(appendFrame(nil, fOK, appendStr(nil, msg)))
		return nil

	case fStatus:
		r := &reader{b: body}
		id := int(r.u32())
		if err := r.done(); err != nil {
			return err
		}
		ent, err := c.s.lookup(id)
		if err != nil {
			c.send(appendFrame(nil, fErr, appendStr(nil, err.Error())))
			return nil
		}
		b := appendU32(nil, uint32(ent.id))
		b = appendU32(b, uint32(ent.q.Shards()))
		b = appendU64(b, uint64(ent.q.Len()))
		msg := ""
		if qerr := ent.q.Err(); qerr != nil {
			msg = qerr.Error()
		}
		b = appendStr(b, msg)
		c.send(appendFrame(nil, fStatusR, b))
		return nil

	default:
		return fmt.Errorf("server: unexpected frame %v from client", t)
	}
}

// decodeRegister unpacks a register frame body. A malformed body is a
// session-fatal error (the framing, not the query, is broken).
func decodeRegister(body []byte) (string, regOpts, error) {
	r := &reader{b: body}
	src := r.str()
	flags := r.u8()
	b := r.i64()
	m := r.i64()
	shards := int(int32(r.u32()))
	var ro regOpts
	if flags&1 != 0 {
		ro.hasSpec = true
		ro.spec = consistency.Spec{B: temporal.Duration(b), M: temporal.Duration(m)}
	}
	ro.noShare = flags&2 != 0
	ro.shards = shards
	if flags&4 != 0 {
		n := int(r.u32())
		ro.bindings = event.Payload{}
		for i := 0; i < n && r.err == nil; i++ {
			name := r.str()
			ro.bindings[name] = r.value()
		}
	}
	if err := r.done(); err != nil {
		return "", regOpts{}, err
	}
	return src, ro, nil
}
