// Package server hosts a CEDR system behind a network listener: the
// long-running form of the engine, where sources push events over TCP
// (or HTTP) and remote subscribers receive query output — inserts,
// compensating retractions, and punctuation, each with its chain order
// tag — exactly as an in-process subscriber would.
//
// One Server wraps one cedr.System. Connections are independent source
// sessions pushing into the same engine (the first deployment shape
// where real concurrency flows through Push). The server keeps no list of
// queries: a query's id is its WAL query id (cedr.Query.ID), resolved by
// the system, so a query registered on one connection can be subscribed
// from another — and, on a durable system, re-subscribed by id after a
// crash and restart, because WAL replay numbers the registrations, the
// unregistered ones included, as the first run did.
//
// Flow control is fail-stop in both directions. Inbound: input that
// cannot be made durable is not processed — after a WAL failure the
// session is told and closed. Outbound: each connection, and each HTTP
// /stream, has one output queue (outbox) bounded in frames, whose memory
// follows the bytes it holds, in fixed-size blocks; a subscriber that lets
// it reach its bound is disconnected (the engine's synchronous delivery
// path never blocks on a slow network reader), and its subscriptions end
// with it. The queue bound is the only backpressure mechanism — a
// deliberate choice, matching the paper's view that consistency repair,
// not transport pushback, absorbs disorder.
//
// Both network surfaces are encodings of one verb layer (the Server
// methods under "Verbs"): the binary protocol (proto.go) and HTTP/JSON
// (http.go) only decode, call a verb, and encode.
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
	"repro/internal/event"
	"repro/internal/telemetry"
	"repro/internal/wal"
)

// DefaultQueue is the per-connection outbound queue bound, in frames. It
// limits how many frames may wait; it allocates nothing up front.
const DefaultQueue = 4096

// errNoQuery is the error of every verb addressing an id that names no
// registered query (HTTP 404).
var errNoQuery = errors.New("server: no query")

// Server hosts one cedr.System behind any number of listeners.
type Server struct {
	sys      *cedr.System
	queueCap int

	mu        sync.Mutex
	conns     map[*conn]struct{}
	listeners map[net.Listener]struct{}
	closed    bool

	egress egressStats // every outbox's counters, read by /metrics

	wg sync.WaitGroup
}

// Option configures a Server.
type Option func(*Server)

// WithQueue sets the per-connection outbound queue bound, in frames
// waiting to be written (default DefaultQueue); the queue's memory follows
// the bytes those frames hold. When a subscriber lets the queue fill, the
// connection is failed rather than letting delivery block the engine.
func WithQueue(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.queueCap = n
		}
	}
}

// New wraps an existing system. Queries already standing — typically
// recovered by WAL replay in cedr.Open — answer to the ids they had before
// the restart, their WAL query ids; an id that was unregistered answers "no
// query", before a restart and after one.
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
	c := &conn{s: s, nc: nc}
	c.out = newOutbox(s.queueCap, &s.egress, func() { nc.Close() })
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
		c.out.stop()
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
		c.out.fail()
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

// ---------------------------------------------------------------------------
// Verbs: every request of both surfaces, Go values in and out. A binary
// connection (conn.handle) and an HTTP handler each only decode a request,
// call one of these, and encode the result.

// register compiles and installs a query; its wire id is its WAL query id.
// The record arrives as the log will store it; the system's options rebuild
// it.
func (s *Server) register(src string, o wal.RegOpts) (QueryInfo, error) {
	opts := []cedr.QueryOption{cedr.WithShards(o.Shards), cedr.WithTemplate(o.Bindings)}
	if o.HasSpec {
		opts = append(opts, cedr.WithSpec(o.Spec))
	}
	if !o.Share {
		opts = append(opts, cedr.WithoutSharing())
	}
	q, err := s.sys.Register(src, opts...)
	if err != nil {
		return QueryInfo{}, err
	}
	return infoOf(q), nil
}

// lookup resolves a wire query id through the system.
func (s *Server) lookup(id int) (*cedr.Query, error) {
	if q := s.sys.Query(id); q != nil {
		return q, nil
	}
	return nil, fmt.Errorf("%w %d", errNoQuery, id)
}

// info reports one query.
func (s *Server) info(id int) (QueryInfo, error) {
	q, err := s.lookup(id)
	if err != nil {
		return QueryInfo{}, err
	}
	return infoOf(q), nil
}

// push applies one event. An error is the system's durability failure: the
// event was dropped (fail-stop), and the caller ends its batch or session.
func (s *Server) push(ev event.Event) error {
	s.sys.Push(ev)
	return s.sys.Err()
}

// sync drains the engine and fsyncs the log: nil means everything pushed so
// far is processed and durable.
func (s *Server) sync() error {
	s.sys.Drain()
	if err := s.sys.Sync(); err != nil {
		return err
	}
	return s.sys.Err()
}

// finish flushes every query, reporting the system error after it.
func (s *Server) finish() error {
	s.sys.Finish()
	return s.sys.Err()
}

// unregister removes one query.
func (s *Server) unregister(id int) error {
	q, err := s.lookup(id)
	if err != nil {
		return err
	}
	q.Unregister()
	return nil
}

// subscribe streams query id's output into out — history first, then live —
// each item encoded by enc, until cancel. Call cancel from the consumer's own
// goroutine, never from a delivery: those run under the chain's lock.
func (s *Server) subscribe(id int, out *outbox, enc encoder) (cancel func(), err error) {
	q, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	return q.SubscribeTagged(0, out.egress(enc)), nil
}

// QueryInfo is what register and status report about one query: one info
// frame on the wire (infoFrame), one JSON object over HTTP. ID is the
// query's WAL query id; Err is its quarantine error, "" while healthy.
type QueryInfo struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Shards  int    `json:"shards"`
	Shared  bool   `json:"shared"`
	Results int    `json:"results"`
	Err     string `json:"err,omitempty"`
}

func infoOf(q *cedr.Query) QueryInfo {
	info := QueryInfo{ID: q.ID(), Name: q.Name(), Shards: q.Shards(), Shared: q.Shared(), Results: q.Len()}
	if err := q.Err(); err != nil {
		info.Err = err.Error()
	}
	return info
}

// ---------------------------------------------------------------------------
// Egress

// blockSize is the size of the byte blocks an outbox queues frames in.
const blockSize = 16 << 10

// outbox is the one egress of both surfaces: a queue of encoded frames — a
// connection's replies and subscribed output, or one /stream's NDJSON lines
// — drained by one writer. The bound limits the frames queued; memory
// follows the bytes queued, in fixed-size blocks that frames may span, and
// a drained outbox keeps one block. Producers never block, since the engine
// delivers under its chain's lock: a consumer that lets the queue fill
// fails the outbox (fail-stop) instead of slowing the engine.
type outbox struct {
	mu     sync.Mutex
	blocks [][]byte // the queued bytes
	free   [][]byte // the last written list, emptied: the next list's array
	spare  []byte   // one written block, kept for reuse
	n, max int      // frames queued, and the bound
	dead   atomic.Bool

	vec    net.Buffers   // the writer's: WriteTo consumes it
	wake   chan struct{} // something was queued since the writer last took
	done   chan struct{} // closed by stop: the writer finishes and exits
	once   sync.Once
	onFail func()       // a connection closes its socket, dropping what is queued
	stats  *egressStats // shared by every outbox of a server
}

func newOutbox(n int, stats *egressStats, onFail func()) *outbox {
	return &outbox{max: n, wake: make(chan struct{}, 1), done: make(chan struct{}), onFail: onFail, stats: stats}
}

// send queues a copy of one encoded frame, failing the outbox if the queue
// is full. A no-op once o is dead; safe from any goroutine.
func (o *outbox) send(frame []byte) {
	o.mu.Lock()
	if o.dead.Load() {
		o.mu.Unlock()
		return
	}
	if o.n == o.max {
		o.dead.Store(true) // under mu: no later frame queues or counts
		o.stats.overflows.Add(1)
		o.mu.Unlock()
		o.fail()
		return
	}
	for b := frame; len(b) > 0; {
		if len(o.blocks) == 0 || len(o.blocks[len(o.blocks)-1]) == blockSize {
			if o.spare == nil {
				o.spare = make([]byte, 0, blockSize)
			}
			o.blocks, o.spare = append(o.blocks, o.spare), nil
		}
		tail := &o.blocks[len(o.blocks)-1]
		k := min(len(b), blockSize-len(*tail))
		*tail, b = append(*tail, b[:k]...), b[k:]
	}
	o.n++
	o.stats.frames.Add(1)
	o.stats.bytes.Add(uint64(len(frame)))
	o.stats.peak.Observe(uint64(o.n))
	o.mu.Unlock()
	select {
	case o.wake <- struct{}{}:
	default:
	}
}

// flush writes everything queued to w as one batch — one vectored write on
// a socket — and keeps one written block for reuse. Only the writer calls
// it.
func (o *outbox) flush(w io.Writer) error {
	o.mu.Lock()
	blocks := o.blocks
	if len(blocks) == 0 {
		o.mu.Unlock()
		return nil
	}
	o.blocks, o.free, o.n = o.free, nil, 0
	o.mu.Unlock()
	first := blocks[0][:0]
	o.vec = blocks
	_, err := o.vec.WriteTo(w)
	o.stats.writes.Add(1)
	clear(blocks)
	o.mu.Lock()
	if o.spare == nil {
		o.spare = first
	}
	o.free = blocks[:0]
	o.mu.Unlock()
	return err
}

// stop takes no further frames and wakes the writer. Idempotent.
func (o *outbox) stop() {
	o.dead.Store(true)
	o.once.Do(func() { close(o.done) })
}

// fail is stop after the consumer went or stopped draining.
func (o *outbox) fail() {
	if o.onFail != nil {
		o.onFail()
	}
	o.stop()
}

// encoder appends one output item — an event and its chain order tag — to
// dst in a surface's encoding.
type encoder func(dst []byte, ev event.Event, tag uint64) ([]byte, error)

// egress is a subscription callback feeding o (a no-op once o is dead). It
// encodes into its own scratch buffer — a query's deliveries are serialized
// — and queues a copy.
func (o *outbox) egress(enc encoder) func(event.Event, uint64) {
	var scratch []byte
	return func(ev event.Event, tag uint64) {
		if o.dead.Load() {
			return
		}
		b, err := enc(reuse(scratch), ev, tag)
		if err != nil {
			o.fail()
			return
		}
		scratch = b
		o.send(b)
	}
}

// egressStats are the outboxes' counters, which /metrics reads without any
// outbox's lock.
type egressStats struct {
	frames, bytes, writes, overflows atomic.Uint64
	peak                             telemetry.Max // frames one queue held at once
}

// wireOutput encodes query qid's output items as output frames.
func wireOutput(qid uint32) encoder {
	return func(dst []byte, ev event.Event, tag uint64) ([]byte, error) {
		b, err := wal.AppendEvent(wal.AppendU64(wal.AppendU32(beginFrame(dst, fOutput), qid), tag), ev)
		return endFrame(b), err
	}
}

// ---------------------------------------------------------------------------
// Connections

// conn is one client connection: a reader goroutine decoding and executing
// frames in arrival order, and a writer goroutine flushing the outbox that
// replies and subscribed output share — a slow client fails this connection
// and nothing else.
type conn struct {
	s   *Server
	nc  net.Conn
	out *outbox

	// Reader-goroutine state (no locking needed).
	source string
	subs   map[int]func() // subscribed query id → cancel
	dec    *wal.Decoder
}

// writeLoop writes the outbox to the socket, everything queued when it
// wakes in one vectored write, so a saturated subscriber costs one syscall
// per burst, not per frame.
func (c *conn) writeLoop() {
	defer c.s.wg.Done()
	defer c.nc.Close()
	for {
		select {
		case <-c.out.wake:
			if err := c.out.flush(c.nc); err != nil {
				c.out.fail()
				return
			}
		case <-c.out.done:
			// Final flush with a bound: a peer that has stopped reading
			// must not pin shutdown.
			c.nc.SetWriteDeadline(time.Now().Add(5 * time.Second))
			c.out.flush(c.nc)
			return
		}
	}
}

// readLoop validates the handshake, then decodes and executes frames in
// arrival order until the connection dies; its subscriptions end with it.
func (c *conn) readLoop() {
	defer c.s.wg.Done()
	defer func() {
		// Graceful exit, not fail: the writer still flushes anything
		// queued (a farewell err frame, tail output) before the socket
		// closes — bounded by the drain deadline.
		c.out.stop()
		for _, cancel := range c.subs {
			cancel()
		}
		c.s.mu.Lock()
		delete(c.s.conns, c)
		c.s.mu.Unlock()
	}()
	fr := frameReader{br: bufio.NewReaderSize(c.nc, 64*1024)}
	var magic [len(Magic)]byte
	if _, err := io.ReadFull(fr.br, magic[:]); err != nil || string(magic[:]) != Magic {
		c.out.send(msgFrame(fErr, "server: bad handshake (expected "+Magic+")"))
		return
	}
	c.dec = wal.NewDecoder()
	for {
		t, body, err := fr.next()
		if err != nil {
			return
		}
		if err := c.handle(t, body); err != nil {
			c.out.send(msgFrame(fErr, err.Error()))
			return
		}
	}
}

// handle executes one frame. A returned error is session-fatal (the client
// receives it as an err frame and the connection closes); request-scoped
// errors are replied inline and keep the session alive.
func (c *conn) handle(t frameType, body []byte) error {
	r := wal.NewReader(body, c.dec)
	var reply []byte
	switch t {
	case fOpen:
		src := r.Str()
		if err := r.Done(); err != nil {
			return err
		}
		if c.source = src; src == "" {
			c.source = c.nc.RemoteAddr().String()
		}
		reply = msgFrame(fOK, "source "+c.source+" open")

	case fPush:
		if c.source == "" {
			return errors.New("server: push before open — open a source session first")
		}
		ev := r.Event()
		if err := r.Done(); err != nil {
			return err
		}
		// Fail-stop: an event the log could not make durable was dropped.
		return c.s.push(ev)

	case fRegister:
		src, o := r.Register()
		if err := r.Done(); err != nil {
			return err
		}
		// Compile errors are request-scoped: report and keep the session.
		reply = infoFrame(c.s.register(src, o))

	case fSubscribe, fUnregister, fStatus:
		id := int(r.U32())
		if err := r.Done(); err != nil {
			return err
		}
		switch t {
		case fSubscribe:
			reply = c.subscribe(id)
		case fUnregister:
			reply = msgFrame(fOK, fmt.Sprintf("query %d unregistered", id))
			if err := c.s.unregister(id); err != nil {
				reply = msgFrame(fErr, err.Error())
			}
		default:
			reply = infoFrame(c.s.info(id))
		}

	case fSync:
		token := r.U64()
		if err := r.Done(); err != nil {
			return err
		}
		msg := ""
		if err := c.s.sync(); err != nil {
			msg = err.Error()
		}
		reply = endFrame(wal.AppendStr(wal.AppendU64(beginFrame(nil, fSynced), token), msg))

	case fFinish:
		if err := r.Done(); err != nil {
			return err
		}
		msg := "finished"
		if err := c.s.finish(); err != nil {
			msg = "finish applied; system error: " + err.Error()
		}
		reply = msgFrame(fOK, msg)

	default:
		return fmt.Errorf("server: unexpected frame %v from client", t)
	}
	c.out.send(reply)
	return nil
}

// subscribe streams query id's output onto this connection, once per id.
func (c *conn) subscribe(id int) []byte {
	if c.subs[id] != nil {
		return msgFrame(fOK, fmt.Sprintf("already subscribed to query %d", id))
	}
	cancel, err := c.s.subscribe(id, c.out, wireOutput(uint32(id)))
	if err != nil {
		return msgFrame(fErr, err.Error())
	}
	if c.subs == nil {
		c.subs = map[int]func(){}
	}
	c.subs[id] = cancel
	return msgFrame(fOK, fmt.Sprintf("subscribed to query %d", id))
}
