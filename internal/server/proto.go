// The wire protocol: a length-prefixed binary framing over one duplex
// byte stream (TCP), carrying the full CEDR surface — source sessions,
// event pushes with complete tritemporal headers and CTI punctuation,
// query registration with the whole Register(src, ...QueryOption) option
// set, and subscriptions whose output frames carry the per-chain order
// tags, so a remote subscriber observes exactly the sequence an
// in-process subscriber would (retractions and punctuation included).
//
// Connection layout:
//
//	conn  := magic frame*                 magic := "CEDRTCP1" (client sends)
//	frame := len(u32 LE) type(u8) body    len = 1 + len(body)
//
// Events and payload values use the write-ahead log's body encodings
// (wal.AppendEvent / wal.AppendValue): one codec for the wire and the
// log, covered by one set of round-trip proofs. Strings are u32-length-
// prefixed; integers little-endian.
//
// Client → server frames:
//
//	open        str source                 open a source session (required before push)
//	push        event                      insert / retraction / CTI; no per-frame reply
//	register    str src, u8 flags, i64 B, i64 M, i32 shards
//	            [u32 n, (str name, value)*n]      flags: 1 spec, 2 no-sharing, 4 bindings
//	subscribe   u32 query                  start streaming output frames
//	unregister  u32 query
//	sync        u64 token                  drain + WAL fsync + surface the system error
//	finish      —                          flush every query (completes output histories)
//	status      u32 query
//
// Server → client frames:
//
//	ok          str msg
//	err         str msg                    request error, or fatal session error pre-close
//	registered  u32 query, u32 shards, u8 shared, str name
//	output      u32 query, u64 tag, event  one subscribed output item
//	synced      u64 token, str err         "" = durable and healthy
//	statusr     u32 query, u32 shards, u64 results, str err
//
// Requests are processed in arrival order and replied to in order; output
// frames from subscriptions interleave arbitrarily with replies (clients
// dispatch on the frame type). Push frames have no reply — errors surface
// on the next sync, or as an err frame followed by connection close
// (fail-stop: input that cannot be made durable is not processed, and a
// subscriber that cannot keep up is disconnected rather than slowing the
// engine).
package server

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/event"
	"repro/internal/wal"
)

// Magic is the 8-byte handshake a client sends after connecting; the
// version byte changes with the frame encoding.
const Magic = "CEDRTCP1"

// maxFrame bounds one frame body, mirroring the WAL's record bound, so a
// corrupt or hostile length prefix cannot force a giant allocation.
const maxFrame = 1 << 26

type frameType byte

const (
	fOpen       frameType = 0x01
	fPush       frameType = 0x02
	fRegister   frameType = 0x03
	fSubscribe  frameType = 0x04
	fUnregister frameType = 0x05
	fSync       frameType = 0x06
	fFinish     frameType = 0x07
	fStatus     frameType = 0x08

	fOK         frameType = 0x81
	fErr        frameType = 0x82
	fRegistered frameType = 0x83
	fOutput     frameType = 0x84
	fSynced     frameType = 0x85
	fStatusR    frameType = 0x86
)

// String implements fmt.Stringer for protocol errors.
func (t frameType) String() string {
	switch t {
	case fOpen:
		return "open"
	case fPush:
		return "push"
	case fRegister:
		return "register"
	case fSubscribe:
		return "subscribe"
	case fUnregister:
		return "unregister"
	case fSync:
		return "sync"
	case fFinish:
		return "finish"
	case fStatus:
		return "status"
	case fOK:
		return "ok"
	case fErr:
		return "err"
	case fRegistered:
		return "registered"
	case fOutput:
		return "output"
	case fSynced:
		return "synced"
	case fStatusR:
		return "statusr"
	default:
		return fmt.Sprintf("frame(0x%02x)", byte(t))
	}
}

// appendFrame wraps an encoded body in the frame header.
func appendFrame(dst []byte, t frameType, body []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(1+len(body)))
	dst = append(dst, byte(t))
	return append(dst, body...)
}

// readFrame reads one frame. A torn read or an over-long frame is a
// connection-fatal error. The body grows as its bytes arrive (from what is
// buffered, or 1 KiB): a length prefix alone buys no maxFrame-sized buffer.
func readFrame(br *bufio.Reader) (frameType, []byte, error) {
	var head [4]byte
	if _, err := io.ReadFull(br, head[:]); err != nil {
		return 0, nil, err
	}
	n := int(binary.LittleEndian.Uint32(head[:]))
	if n == 0 || n > maxFrame {
		return 0, nil, fmt.Errorf("server: bad frame length %d", n)
	}
	buf := make([]byte, min(n, max(br.Buffered(), 1<<10)))
	for got := 0; ; {
		if _, err := io.ReadFull(br, buf[got:]); err != nil {
			return 0, nil, err
		}
		if got = len(buf); got == n {
			return frameType(buf[0]), buf[1:], nil
		}
		buf = append(buf, make([]byte, min(n-got, got))...)
	}
}

// ---------------------------------------------------------------------------
// Body encoding

func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
func appendI64(b []byte, v int64) []byte  { return appendU64(b, uint64(v)) }
func appendStr(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

// reader decodes frame bodies with sticky errors, delegating event and
// value bodies to the WAL codec.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.b) {
		r.fail(io.ErrUnexpectedEOF)
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

func (r *reader) u8() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *reader) u32() uint32 {
	if b := r.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *reader) u64() uint64 {
	if b := r.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (r *reader) i64() int64 { return int64(r.u64()) }

func (r *reader) str() string {
	n := int(r.u32())
	if r.err == nil && n > len(r.b)-r.off {
		r.fail(fmt.Errorf("server: string length %d exceeds frame", n))
		return ""
	}
	return string(r.take(n))
}

func (r *reader) event() event.Event {
	if r.err != nil {
		return event.Event{}
	}
	e, n, err := wal.DecodeEvent(r.b[r.off:])
	if err != nil {
		r.fail(err)
		return event.Event{}
	}
	r.off += n
	return e
}

func (r *reader) value() event.Value {
	if r.err != nil {
		return nil
	}
	v, n, err := wal.DecodeValue(r.b[r.off:])
	if err != nil {
		r.fail(err)
		return nil
	}
	r.off += n
	return v
}

// done reports decoding success and that the body was fully consumed.
func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("server: %d trailing bytes in frame body", len(r.b)-r.off)
	}
	return nil
}
