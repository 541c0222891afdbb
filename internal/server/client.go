package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
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
	nc   net.Conn
	bw   *bufio.Writer
	wbuf []byte // the push being encoded

	wmu   sync.Mutex // guards bw, wbuf and nc writes
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
// query, exactly the in-process delivery order, verifiable by tag. Outputs
// of equal payload content share one payload map (the connection decodes
// through a wal.Decoder), so payloads are read-only, as
// event.Payload.Equal's contract already states. The channel closes when
// the connection ends; check Err then.
func (c *Client) Outputs() <-chan Output { return c.outputs }

// readLoop decodes server frames, routing outputs to the output channel
// and everything else to the pending request.
func (c *Client) readLoop() {
	defer close(c.outputs)
	fr := frameReader{br: bufio.NewReaderSize(c.nc, 64*1024)}
	dec := wal.NewDecoder()
	for {
		t, body, err := fr.next()
		if err != nil {
			c.fail(err)
			return
		}
		if t == fOutput {
			r := wal.NewReader(body, dec)
			qid := int(r.U32())
			tag := r.U64()
			ev := r.Event()
			if err := r.Done(); err != nil {
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
		case c.replies <- cframe{t, bytes.Clone(body)}:
		default:
			// A reply nobody asked for: the server's parting fatal error.
			if t == fErr {
				r := wal.NewReader(body, nil)
				c.fail(errors.New(r.Str()))
			} else {
				c.fail(fmt.Errorf("server: unsolicited %v frame", t))
			}
			return
		}
	}
}

// write hands frame to the buffered writer, flushing it if asked.
func (c *Client) write(frame []byte, flush bool) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.writeLocked(frame, flush)
}

func (c *Client) writeLocked(frame []byte, flush bool) error {
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

// request performs one flushed request/reply exchange, returning the body
// of a reply of type want.
func (c *Client) request(t frameType, body []byte, want frameType) ([]byte, error) {
	c.reqMu.Lock()
	defer c.reqMu.Unlock()
	if err := c.Err(); err != nil {
		return nil, err
	}
	if err := c.write(endFrame(append(beginFrame(nil, t), body...)), true); err != nil {
		return nil, err
	}
	var f cframe
	select {
	case f = <-c.replies:
	case <-c.done:
		// The server may have answered (typically its fatal err frame)
		// right before closing; prefer that over a bare EOF.
		select {
		case f = <-c.replies:
		default:
			err := c.Err()
			if err == nil {
				err = errors.New("server: connection closed")
			}
			return nil, err
		}
	}
	switch f.t {
	case want:
		return f.body, nil
	case fErr:
		r := wal.NewReader(f.body, nil)
		return nil, errors.New(r.Str())
	}
	return nil, fmt.Errorf("server: %v answered %v", t, f.t)
}

// Open starts a source session named source (required before Push; an
// empty name lets the server use the remote address).
func (c *Client) Open(source string) error {
	_, err := c.request(fOpen, wal.AppendStr(nil, source), fOK)
	return err
}

// Push sends one event — insert, retraction, or CTI — without waiting
// for the server. Errors surface on the next Sync (or as the sticky
// Err). The event's tritemporal header travels whole: V, O, C intervals,
// RT, and CBT references.
func (c *Client) Push(e event.Event) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	frame, err := wal.AppendEvent(beginFrame(reuse(c.wbuf), fPush), e)
	if err != nil {
		return err
	}
	c.wbuf = endFrame(frame)
	return c.writeLocked(c.wbuf, false)
}

// Flush pushes buffered frames to the wire without a round trip.
func (c *Client) Flush() error { return c.write(nil, true) }

// Register compiles and installs src on the server with the full option
// surface, returning the query's wire identity.
func (c *Client) Register(src string, ro RegOptions) (RemoteQuery, error) {
	o := wal.RegOpts{Shards: ro.Shards, Share: !ro.NoSharing, Bindings: ro.Bindings}
	if ro.Spec != nil {
		o.HasSpec, o.Spec = true, *ro.Spec
	}
	body, err := wal.AppendRegister(nil, src, o)
	if err != nil {
		return RemoteQuery{}, err
	}
	qi, err := c.info(fRegister, body)
	return RemoteQuery{ID: qi.ID, Name: qi.Name, Shards: qi.Shards, Shared: qi.Shared}, err
}

// info performs a request answered by an info frame.
func (c *Client) info(t frameType, body []byte) (queryInfo, error) {
	reply, err := c.request(t, body, fInfo)
	if err != nil {
		return queryInfo{}, err
	}
	return readInfo(reply)
}

// Subscribe starts streaming query id's output — accumulated history
// first (replayed atomically server-side), then live — onto Outputs. The
// subscription ends with the connection.
func (c *Client) Subscribe(id int) error {
	_, err := c.request(fSubscribe, wal.AppendU32(nil, uint32(id)), fOK)
	return err
}

// Unregister removes query id from the server.
func (c *Client) Unregister(id int) error {
	_, err := c.request(fUnregister, wal.AppendU32(nil, uint32(id)), fOK)
	return err
}

// Sync drains the engine and fsyncs the write-ahead log, returning the
// system's error state: nil means everything pushed so far is processed
// and durable.
func (c *Client) Sync() error {
	token := c.nextToken()
	reply, err := c.request(fSync, wal.AppendU64(nil, token), fSynced)
	if err != nil {
		return err
	}
	r := wal.NewReader(reply, nil)
	got, msg := r.U64(), r.Str()
	if err := r.Done(); err != nil {
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
	_, err := c.request(fFinish, nil, fOK)
	return err
}

// Status reports query id's shard count, result count, and quarantine
// error.
func (c *Client) Status(id int) (Status, error) {
	qi, err := c.info(fStatus, wal.AppendU32(nil, uint32(id)))
	return Status{Query: qi.ID, Shards: qi.Shards, Results: uint64(qi.Results), Err: qi.Err}, err
}

// tokens distinguishes concurrent-session sync replies in logs; the
// client serializes requests so a plain counter suffices.
var tokens atomic.Uint64

func (c *Client) nextToken() uint64 { return tokens.Add(1) }
