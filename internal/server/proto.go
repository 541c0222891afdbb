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
//	conn  := magic frame*                 magic := "CEDRTCP2" (client sends)
//	frame := len(u32 LE) type(u8) body    len = 1 + len(body)
//
// Bodies use the write-ahead log's encodings (wal.AppendEvent,
// wal.AppendRegister, and its strings and integers): a register frame's
// body is the body of the KindRegister record the server logs for it, so
// the wire and the log share one codec, covered by one set of round-trip
// proofs. Strings are u32-length-prefixed; integers little-endian.
//
// Frames are encoded in place, read into one reused buffer per connection
// (a body is valid until the next frame) and decoded by wal.Reader, the
// one reader for both surfaces, the wire and the log: through one
// wal.Decoder per connection, server and client alike, which shares
// repeated types, names and string values, and one read-only map per
// repeated payload.
//
// Client → server frames:
//
//	open        str source                 open a source session (required before push)
//	push        event                      insert / retraction / CTI; no per-frame reply
//	register    registration               the WAL's register body (wal.AppendRegister)
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
//	info        u32 query, str name, u32 shards, u8 shared, u64 results, str err
//	                                       the reply to register and status
//	output      u32 query, u64 tag, event  one subscribed output item
//	synced      u64 token, str err         "" = durable and healthy
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
	"slices"

	"repro/internal/wal"
)

// Magic is the 8-byte handshake a client sends after connecting; the
// version byte changes with the frame encoding.
const Magic = "CEDRTCP2"

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

	fOK     frameType = 0x81
	fErr    frameType = 0x82
	fInfo   frameType = 0x83
	fOutput frameType = 0x84
	fSynced frameType = 0x85
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
	case fInfo:
		return "info"
	case fOutput:
		return "output"
	case fSynced:
		return "synced"
	default:
		return fmt.Sprintf("frame(0x%02x)", byte(t))
	}
}

const maxRetained = 64 << 10 // the most a frame buffer keeps between frames

// reuse empties a frame buffer for the next frame, or drops it, so one large
// frame does not pin its size for the life of the connection.
func reuse(b []byte) []byte {
	if cap(b) > maxRetained {
		return nil
	}
	return b[:0]
}

// beginFrame appends a frame header to an empty dst; endFrame fills in its
// length once the body has been appended after it.
func beginFrame(dst []byte, t frameType) []byte { return append(dst, 0, 0, 0, 0, byte(t)) }

func endFrame(frame []byte) []byte {
	binary.LittleEndian.PutUint32(frame, uint32(len(frame)-4))
	return frame
}

// msgFrame is a frame whose body is one string (ok and err replies).
func msgFrame(t frameType, msg string) []byte {
	return endFrame(wal.AppendStr(beginFrame(nil, t), msg))
}

// infoFrame is the reply to register and status: an info frame, or the
// request's error.
func infoFrame(qi queryInfo, err error) []byte {
	if err != nil {
		return msgFrame(fErr, err.Error())
	}
	b := wal.AppendStr(wal.AppendU32(beginFrame(nil, fInfo), uint32(qi.ID)), qi.Name)
	b = wal.AppendU32(b, uint32(qi.Shards))
	if qi.Shared {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	return endFrame(wal.AppendStr(wal.AppendU64(b, uint64(qi.Results)), qi.Err))
}

// readInfo decodes an info frame's body (infoFrame's inverse).
func readInfo(body []byte) (queryInfo, error) {
	r := wal.NewReader(body, nil)
	qi := queryInfo{ID: int(r.U32()), Name: r.Str(), Shards: int(r.U32()), Shared: r.U8() == 1,
		Results: int(r.U64()), Err: r.Str()}
	if err := r.Done(); err != nil {
		return queryInfo{}, err
	}
	return qi, nil
}

// frameReader reads one connection's frames into one reused buffer: a body
// is valid until the next call. A torn read or an over-long frame is fatal.
type frameReader struct {
	br   *bufio.Reader
	head [4]byte
	buf  []byte
}

// next reads one frame. The body grows as its bytes arrive (from what is
// buffered, or 1 KiB, then doubling): a length prefix alone buys no
// maxFrame-sized buffer.
func (fr *frameReader) next() (frameType, []byte, error) {
	if _, err := io.ReadFull(fr.br, fr.head[:]); err != nil {
		return 0, nil, err
	}
	n := int(binary.LittleEndian.Uint32(fr.head[:]))
	if n == 0 || n > maxFrame {
		return 0, nil, fmt.Errorf("server: bad frame length %d", n)
	}
	buf := reuse(fr.buf)
	for got := 0; got < n; got = len(buf) {
		step := min(n-got, max(fr.br.Buffered(), got, 1<<10))
		buf = slices.Grow(buf, step)[:got+step]
		if _, err := io.ReadFull(fr.br, buf[got:]); err != nil {
			return 0, nil, err
		}
	}
	fr.buf = buf
	return frameType(buf[0]), buf[1:], nil
}
