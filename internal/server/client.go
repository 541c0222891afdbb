package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"

	"repro"
	"repro/internal/event"
	"repro/internal/wal"
)

// Client speaks the binary protocol. It is safe for one goroutine to
// issue requests while another drains Outputs; requests themselves are
// serialized (the protocol replies in order).
//
// Pushes are pipelined: Push buffers frames and sends no reply, so a
// source saturates the link without a round trip per event. Any request
// with a reply (Sync, Register, ...) flushes the pipeline first.
type Client struct {
	nc net.Conn
	bw *bufio.Writer

	wmu   sync.Mutex // guards bw and nc writes
	reqMu sync.Mutex // serializes request/reply exchanges

	replies chan cframe
	outputs chan Output

	err  atomic.Value // error; sticky, first connection-fatal failure
	done chan struct{}
	once sync.Once
}

// cframe is one server frame as received.
type cframe struct {
	t    frameType
	body []byte
}

// Output is one subscribed output item: which query, its chain order
// tag, and the event (insert, retraction, or CTI punctuation).
type Output struct {
	Query int
	Tag   uint64
	Event event.Event
}

// RemoteQuery identifies a query registered through (or discovered via)
// the wire protocol.
type RemoteQuery struct {
	ID     int
	Name   string
	Shards int
	Shared bool
}

// Status is a status reply.
type Status struct {
	Query   int
	Shards  int
	Results uint64
	Err     string // the quarantine error, "" while healthy
}

// RegOptions mirrors the Register(src, ...QueryOption) surface on the
// wire. Zero value = defaults (query-text consistency, auto sharing,
// no template bindings, system-default shards).
type RegOptions struct {
	Spec      *cedr.Spec    // explicit consistency level
	Shards    int           // 0 = system default; cedr.AutoShards works too
	NoSharing bool          // private execution chain
	Bindings  event.Payload // template parameter bindings ($name)
}

// Dial connects, performs the handshake, and starts the reader. The
// outputs buffer holds outBuf frames (<=0 = DefaultQueue); if the
// consumer stops draining Outputs the reader blocks, TCP backpressure
// reaches the server, and the server fail-stops the connection.
func Dial(addr string, outBuf int) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if outBuf <= 0 {
		outBuf = DefaultQueue
	}
	c := &Client{
		nc:      nc,
		bw:      bufio.NewWriterSize(nc, 64*1024),
		replies: make(chan cframe, 1),
		outputs: make(chan Output, outBuf),
		done:    make(chan struct{}),
	}
	if _, err := nc.Write([]byte(Magic)); err != nil {
		nc.Close()
		return nil, err
	}
	go c.readLoop()
	return c, nil
}

// fail records the first connection-fatal error and closes the socket.
func (c *Client) fail(err error) {
	c.once.Do(func() {
		if err != nil {
			c.err.Store(err)
		}
		c.nc.Close()
		close(c.done)
	})
}

// Err returns the sticky connection error: the server's fatal err frame,
// a decode failure, or the transport error that ended the session.
func (c *Client) Err() error {
	if v := c.err.Load(); v != nil {
		return v.(error)
	}
	return nil
}

// Close tears the connection down. Outputs is closed once the reader
// exits.
func (c *Client) Close() error {
	c.fail(nil)
	return nil
}

// Outputs streams subscribed output frames in arrival order — for each
// query, exactly the in-process delivery order, verifiable by tag. The
// channel closes when the connection ends; check Err then.
func (c *Client) Outputs() <-chan Output { return c.outputs }

// readLoop decodes server frames, routing outputs to the output channel
// and everything else to the pending request.
func (c *Client) readLoop() {
	defer close(c.outputs)
	br := bufio.NewReaderSize(c.nc, 64*1024)
	for {
		t, body, err := readFrame(br)
		if err != nil {
			c.fail(err)
			return
		}
		if t == fOutput {
			r := &reader{b: body}
			qid := int(r.u32())
			tag := r.u64()
			ev := r.event()
			if err := r.done(); err != nil {
				c.fail(err)
				return
			}
			select {
			case c.outputs <- Output{Query: qid, Tag: tag, Event: ev}:
			case <-c.done:
				return
			}
			continue
		}
		select {
		case c.replies <- cframe{t, body}:
		default:
			// A reply nobody asked for: the server's parting fatal error.
			if t == fErr {
				r := &reader{b: body}
				c.fail(errors.New(r.str()))
			} else {
				c.fail(fmt.Errorf("server: unsolicited %v frame", t))
			}
			return
		}
	}
}

// write sends raw bytes through the buffered writer.
func (c *Client) write(frame []byte, flush bool) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if _, err := c.bw.Write(frame); err != nil {
		c.fail(err)
		return err
	}
	if flush {
		if err := c.bw.Flush(); err != nil {
			c.fail(err)
			return err
		}
	}
	return nil
}

// request performs one flushed request/reply exchange.
func (c *Client) request(t frameType, body []byte) (cframe, error) {
	c.reqMu.Lock()
	defer c.reqMu.Unlock()
	if err := c.Err(); err != nil {
		return cframe{}, err
	}
	if err := c.write(appendFrame(nil, t, body), true); err != nil {
		return cframe{}, err
	}
	fail := func(f cframe) (cframe, error) {
		if f.t == fErr {
			r := &reader{b: f.body}
			return cframe{}, errors.New(r.str())
		}
		return f, nil
	}
	select {
	case f := <-c.replies:
		return fail(f)
	case <-c.done:
		// The server may have answered (typically its fatal err frame)
		// right before closing; prefer that over a bare EOF.
		select {
		case f := <-c.replies:
			return fail(f)
		default:
		}
		err := c.Err()
		if err == nil {
			err = errors.New("server: connection closed")
		}
		return cframe{}, err
	}
}

// Open starts a source session named source (required before Push; an
// empty name lets the server use the remote address).
func (c *Client) Open(source string) error {
	f, err := c.request(fOpen, appendStr(nil, source))
	if err != nil {
		return err
	}
	if f.t != fOK {
		return fmt.Errorf("server: open answered %v", f.t)
	}
	return nil
}

// Push sends one event — insert, retraction, or CTI — without waiting
// for the server. Errors surface on the next Sync (or as the sticky
// Err). The event's tritemporal header travels whole: V, O, C intervals,
// RT, and CBT references.
func (c *Client) Push(e event.Event) error {
	body, err := wal.AppendEvent(nil, e)
	if err != nil {
		return err
	}
	return c.write(appendFrame(nil, fPush, body), false)
}

// Flush pushes buffered frames to the wire without a round trip.
func (c *Client) Flush() error { return c.write(nil, true) }

// Register compiles and installs src on the server with the full option
// surface, returning the query's wire identity.
func (c *Client) Register(src string, ro RegOptions) (RemoteQuery, error) {
	body, err := appendRegister(nil, src, ro)
	if err != nil {
		return RemoteQuery{}, err
	}
	f, err := c.request(fRegister, body)
	if err != nil {
		return RemoteQuery{}, err
	}
	if f.t != fRegistered {
		return RemoteQuery{}, fmt.Errorf("server: register answered %v", f.t)
	}
	r := &reader{b: f.body}
	q := RemoteQuery{ID: int(r.u32()), Shards: int(r.u32()), Shared: r.u8() == 1, Name: r.str()}
	if err := r.done(); err != nil {
		return RemoteQuery{}, err
	}
	return q, nil
}

// appendRegister encodes a register frame body (decodeRegister's inverse).
func appendRegister(body []byte, src string, ro RegOptions) ([]byte, error) {
	body = appendStr(body, src)
	var flags byte
	var b, m int64
	if ro.Spec != nil {
		flags |= 1
		b, m = int64(ro.Spec.B), int64(ro.Spec.M)
	}
	if ro.NoSharing {
		flags |= 2
	}
	if len(ro.Bindings) > 0 {
		flags |= 4
	}
	body = append(body, flags)
	body = appendI64(body, b)
	body = appendI64(body, m)
	body = appendU32(body, uint32(int32(ro.Shards)))
	if len(ro.Bindings) > 0 {
		body = appendU32(body, uint32(len(ro.Bindings)))
		for _, name := range sortedKeys(ro.Bindings) {
			body = appendStr(body, name)
			var err error
			if body, err = wal.AppendValue(body, ro.Bindings[name]); err != nil {
				return nil, err
			}
		}
	}
	return body, nil
}

// Subscribe starts streaming query id's output — accumulated history
// first (replayed atomically server-side), then live — onto Outputs.
func (c *Client) Subscribe(id int) error {
	f, err := c.request(fSubscribe, appendU32(nil, uint32(id)))
	if err != nil {
		return err
	}
	if f.t != fOK {
		return fmt.Errorf("server: subscribe answered %v", f.t)
	}
	return nil
}

// Unregister removes query id from the server.
func (c *Client) Unregister(id int) error {
	f, err := c.request(fUnregister, appendU32(nil, uint32(id)))
	if err != nil {
		return err
	}
	if f.t != fOK {
		return fmt.Errorf("server: unregister answered %v", f.t)
	}
	return nil
}

// Sync drains the engine and fsyncs the write-ahead log, returning the
// system's error state: nil means everything pushed so far is processed
// and durable.
func (c *Client) Sync() error {
	token := c.nextToken()
	f, err := c.request(fSync, appendU64(nil, token))
	if err != nil {
		return err
	}
	if f.t != fSynced {
		return fmt.Errorf("server: sync answered %v", f.t)
	}
	r := &reader{b: f.body}
	got, msg := r.u64(), r.str()
	if err := r.done(); err != nil {
		return err
	}
	if got != token {
		return fmt.Errorf("server: sync token mismatch: sent %d, got %d", token, got)
	}
	if msg != "" {
		return errors.New(msg)
	}
	return nil
}

// Finish flushes every query on the server, completing output
// histories (blocked strong-consistency output releases, UNLESS
// negations resolve).
func (c *Client) Finish() error {
	f, err := c.request(fFinish, nil)
	if err != nil {
		return err
	}
	if f.t != fOK {
		return fmt.Errorf("server: finish answered %v", f.t)
	}
	return nil
}

// Status reports query id's shard count, result count, and quarantine
// error.
func (c *Client) Status(id int) (Status, error) {
	f, err := c.request(fStatus, appendU32(nil, uint32(id)))
	if err != nil {
		return Status{}, err
	}
	if f.t != fStatusR {
		return Status{}, fmt.Errorf("server: status answered %v", f.t)
	}
	r := &reader{b: f.body}
	st := Status{Query: int(r.u32()), Shards: int(r.u32()), Results: r.u64(), Err: r.str()}
	if err := r.done(); err != nil {
		return Status{}, err
	}
	return st, nil
}

// tokens distinguishes concurrent-session sync replies in logs; the
// client serializes requests so a plain counter suffices.
var tokens atomic.Uint64

func (c *Client) nextToken() uint64 { return tokens.Add(1) }

// sortedKeys returns payload keys in deterministic order, so a binding
// set encodes identically across runs (sharing identity on the server
// compares binding maps, not wire order — this is for reproducibility
// of traffic, not correctness).
func sortedKeys(p event.Payload) []string {
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
