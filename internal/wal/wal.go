// Package wal implements the crash-safe durability substrate: an
// append-only, length-prefixed, CRC32C-checksummed record log of everything
// the engine consumes — ingested events, punctuation, query registrations,
// and consistency-spec changes. CEDR's runtime state is a deterministic
// function of that input sequence (the consistency monitor and matcher tree
// are pinned byte-exact by the differential suites), so the log is also the
// engine's recovery story: replaying a recovered log through a fresh engine
// reproduces the original output stream — inserts, retractions, punctuation
// and order tags — byte for byte.
//
// On-disk layout:
//
//	file   := magic record*
//	magic  := "CEDRWAL\x01"                      (8 bytes)
//	record := len(u32 LE) crc(u32 LE) payload    (len = len(payload))
//	payload:= seq(u64 LE) kind(u8) body
//
// crc is CRC-32C (Castagnoli) over the payload. Sequence numbers are
// strictly increasing. Recovery (Open / New) scans forward and truncates
// the file at the first record that is torn (short length prefix or short
// body at EOF), checksum-corrupt, or out of sequence — everything before
// that point is intact by checksum, everything after it is unrecoverable
// because records are not self-synchronizing.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"

	"repro/internal/consistency"
	"repro/internal/event"
	"repro/internal/temporal"
)

// Kind classifies log records.
type Kind uint8

const (
	// KindEvent is an ingested data event (insert or retraction).
	KindEvent Kind = iota + 1
	// KindCTI is ingested punctuation (a provider sync/guarantee point).
	KindCTI
	// KindRegister is a standing-query registration: source text plus the
	// serializable plan options.
	KindRegister
	// KindSpec is a runtime consistency-level switch on one query.
	KindSpec
	// KindFinish is the engine-level flush that completes every query's
	// output history.
	KindFinish
	// KindUnregister removes one standing query (by its registration index);
	// the last reference on a shared chain tears the chain down.
	KindUnregister
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindEvent:
		return "event"
	case KindCTI:
		return "cti"
	case KindRegister:
		return "register"
	case KindSpec:
		return "spec"
	case KindFinish:
		return "finish"
	case KindUnregister:
		return "unregister"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// RegOpts are the serializable plan options of a durable registration —
// exactly the knobs plan.Compile accepts (see plan.Durable). Share and
// Bindings are encoded behind flag bits a pre-fabric decoder never set, so
// old-format registration records decode unchanged (Share false, Bindings
// nil). Flag bits 0x2 and 0x4 selected the oracle evaluator and the flat
// matcher in older binaries: the encoder never sets them and the decoder
// ignores them, so such a log replays on the default plan, whose output is
// byte-identical.
type RegOpts struct {
	HasSpec  bool
	Spec     consistency.Spec
	Shards   int
	Share    bool
	Bindings map[string]event.Value
}

// Record is one log entry. Which fields are meaningful depends on Kind:
// Ev for KindEvent/KindCTI; Src and Opts for KindRegister; Query and Spec
// for KindSpec; Query for KindUnregister; none for KindFinish.
type Record struct {
	Seq  uint64
	Kind Kind

	Ev    event.Event
	Src   string
	Opts  RegOpts
	Query int
	Spec  consistency.Spec
}

// Magic is the 8-byte file header.
const Magic = "CEDRWAL\x01"

// maxBody caps a record payload during recovery, so a corrupt length
// prefix cannot force a giant allocation.
const maxBody = 1 << 26

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ---------------------------------------------------------------------------
// Encoding

func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
func appendI64(b []byte, v int64) []byte  { return appendU64(b, uint64(v)) }
func appendStr(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}
func appendTime(b []byte, t temporal.Time) []byte { return appendI64(b, int64(t)) }

// Payload value type tags. The dynamic type is preserved exactly (int vs
// int64 matters for byte-identical replay of anything that switches on it).
const (
	tagInt64 byte = iota + 1
	tagInt
	tagFloat64
	tagString
	tagBool
)

func appendValue(b []byte, v event.Value) ([]byte, error) {
	switch x := v.(type) {
	case int64:
		return appendI64(append(b, tagInt64), x), nil
	case int:
		return appendI64(append(b, tagInt), int64(x)), nil
	case float64:
		return appendU64(append(b, tagFloat64), math.Float64bits(x)), nil
	case string:
		return appendStr(append(b, tagString), x), nil
	case bool:
		b = append(b, tagBool)
		if x {
			return append(b, 1), nil
		}
		return append(b, 0), nil
	default:
		return b, fmt.Errorf("wal: unsupported payload value type %T", v)
	}
}

func appendEvent(b []byte, e event.Event) ([]byte, error) {
	b = appendU64(b, uint64(e.ID))
	b = append(b, byte(e.Kind))
	b = appendStr(b, e.Type)
	b = appendTime(b, e.V.Start)
	b = appendTime(b, e.V.End)
	b = appendTime(b, e.O.Start)
	b = appendTime(b, e.O.End)
	b = appendTime(b, e.C.Start)
	b = appendTime(b, e.C.End)
	b = appendTime(b, e.RT)
	b = appendU32(b, uint32(len(e.CBT)))
	for _, id := range e.CBT {
		b = appendU64(b, uint64(id))
	}
	b = appendU32(b, uint32(len(e.Payload)))
	if len(e.Payload) > 0 {
		// Sorted keys: deterministic bytes for a given event, so identical
		// runs produce identical log files.
		keys := make([]string, 0, len(e.Payload))
		for k := range e.Payload {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var err error
		for _, k := range keys {
			b = appendStr(b, k)
			if b, err = appendValue(b, e.Payload[k]); err != nil {
				return b, err
			}
		}
	}
	return b, nil
}

func appendSpec(b []byte, s consistency.Spec) []byte {
	b = appendI64(b, int64(s.B))
	return appendI64(b, int64(s.M))
}

// AppendRecord encodes one framed record (length prefix, checksum, payload)
// onto dst. The record's Seq must already be assigned.
func AppendRecord(dst []byte, r Record) ([]byte, error) {
	// Payload first, frame after.
	head := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // len + crc placeholder
	body := len(dst)
	dst = appendU64(dst, r.Seq)
	dst = append(dst, byte(r.Kind))
	var err error
	switch r.Kind {
	case KindEvent, KindCTI:
		if dst, err = appendEvent(dst, r.Ev); err != nil {
			return dst[:head], err
		}
	case KindRegister:
		dst = appendStr(dst, r.Src)
		var flags byte
		if r.Opts.HasSpec {
			flags |= 1
		}
		if r.Opts.Share {
			flags |= 8
		}
		if len(r.Opts.Bindings) > 0 {
			flags |= 16
		}
		dst = append(dst, flags)
		dst = appendSpec(dst, r.Opts.Spec)
		dst = appendU32(dst, uint32(r.Opts.Shards))
		if len(r.Opts.Bindings) > 0 {
			// Sorted names: deterministic bytes for a given registration.
			names := make([]string, 0, len(r.Opts.Bindings))
			for name := range r.Opts.Bindings {
				names = append(names, name)
			}
			sort.Strings(names)
			dst = appendU32(dst, uint32(len(names)))
			for _, name := range names {
				dst = appendStr(dst, name)
				if dst, err = appendValue(dst, r.Opts.Bindings[name]); err != nil {
					return dst[:head], err
				}
			}
		}
	case KindSpec:
		dst = appendU32(dst, uint32(r.Query))
		dst = appendSpec(dst, r.Spec)
	case KindUnregister:
		dst = appendU32(dst, uint32(r.Query))
	case KindFinish:
	default:
		return dst[:head], fmt.Errorf("wal: cannot encode record kind %d", r.Kind)
	}
	payload := dst[body:]
	binary.LittleEndian.PutUint32(dst[head:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[head+4:], crc32.Checksum(payload, castagnoli))
	return dst, nil
}

// ---------------------------------------------------------------------------
// Decoding

type byteReader struct {
	b   []byte
	off int
	err error
}

func (r *byteReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.b) {
		r.err = io.ErrUnexpectedEOF
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

func (r *byteReader) u32() uint32 {
	if b := r.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *byteReader) u64() uint64 {
	if b := r.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (r *byteReader) i64() int64 { return int64(r.u64()) }

func (r *byteReader) u8() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *byteReader) str() string {
	n := int(r.u32())
	if r.err == nil && n > maxBody {
		r.err = fmt.Errorf("wal: string length %d exceeds record bounds", n)
		return ""
	}
	return string(r.take(n))
}

func (r *byteReader) time() temporal.Time { return temporal.Time(r.i64()) }

// minEntry is the least a payload or binding entry encodes in (a name's
// length and a bool): no count may claim more entries than the bytes left
// can hold, so a forged count cannot size an allocation.
const minEntry = 4 + 2

func (r *byteReader) value() event.Value {
	switch tag := r.u8(); tag {
	case tagInt64:
		return r.i64()
	case tagInt:
		return int(r.i64())
	case tagFloat64:
		return math.Float64frombits(r.u64())
	case tagString:
		return r.str()
	case tagBool:
		return r.u8() != 0
	default:
		if r.err == nil {
			r.err = fmt.Errorf("wal: unknown payload value tag %d", tag)
		}
		return nil
	}
}

func (r *byteReader) spec() consistency.Spec {
	return consistency.Spec{B: temporal.Duration(r.i64()), M: temporal.Duration(r.i64())}
}

func (r *byteReader) event() event.Event {
	var e event.Event
	e.ID = event.ID(r.u64())
	e.Kind = event.Kind(r.u8())
	e.Type = r.str()
	e.V.Start, e.V.End = r.time(), r.time()
	e.O.Start, e.O.End = r.time(), r.time()
	e.C.Start, e.C.End = r.time(), r.time()
	e.RT = r.time()
	nCBT := int(r.u32())
	if r.err == nil && nCBT > (len(r.b)-r.off)/8 {
		r.err = fmt.Errorf("wal: lineage count %d exceeds record bounds", nCBT)
		return e
	}
	if nCBT > 0 {
		e.CBT = make([]event.ID, nCBT)
		for i := range e.CBT {
			e.CBT[i] = event.ID(r.u64())
		}
	}
	nPay := int(r.u32())
	if r.err == nil && nPay > (len(r.b)-r.off)/minEntry {
		r.err = fmt.Errorf("wal: payload count %d exceeds record bounds", nPay)
		return e
	}
	if nPay > 0 {
		e.Payload = make(event.Payload, nPay)
		for i := 0; i < nPay; i++ {
			k := r.str()
			e.Payload[k] = r.value()
		}
	}
	return e
}

// AppendEvent encodes one event in the WAL's event body encoding onto
// dst. The network protocol frames events with exactly this encoding, so
// a served event and its logged record share one codec (and one set of
// round-trip proofs).
func AppendEvent(dst []byte, e event.Event) ([]byte, error) {
	return appendEvent(dst, e)
}

// DecodeEvent decodes an event produced by AppendEvent from the front of
// b, returning the number of bytes consumed.
func DecodeEvent(b []byte) (event.Event, int, error) {
	r := byteReader{b: b}
	e := r.event()
	return e, r.off, r.err
}

// AppendValue encodes one payload value in the WAL's tagged value
// encoding (exported for the network protocol's template bindings).
func AppendValue(dst []byte, v event.Value) ([]byte, error) {
	return appendValue(dst, v)
}

// DecodeValue decodes a value produced by AppendValue from the front of
// b, returning the number of bytes consumed.
func DecodeValue(b []byte) (event.Value, int, error) {
	r := byteReader{b: b}
	v := r.value()
	return v, r.off, r.err
}

// DecodePayload decodes one record payload (seq + kind + body, the
// checksummed region of a frame).
func DecodePayload(payload []byte) (Record, error) {
	r := byteReader{b: payload}
	var rec Record
	rec.Seq = r.u64()
	rec.Kind = Kind(r.u8())
	switch rec.Kind {
	case KindEvent, KindCTI:
		rec.Ev = r.event()
	case KindRegister:
		rec.Src = r.str()
		flags := r.u8()
		rec.Opts.HasSpec = flags&1 != 0
		rec.Opts.Share = flags&8 != 0
		rec.Opts.Spec = r.spec()
		// Signed round-trip: plan.AutoShards is a negative sentinel and
		// must survive the u32 framing.
		rec.Opts.Shards = int(int32(r.u32()))
		if flags&16 != 0 {
			// Template bindings trail the fixed fields; records written
			// before the fabric end at Shards and never set the flag, so
			// they decode through the branch above unchanged.
			n := int(r.u32())
			if r.err == nil && n > (len(r.b)-r.off)/minEntry {
				r.err = fmt.Errorf("wal: binding count %d exceeds record bounds", n)
				break
			}
			if n > 0 {
				rec.Opts.Bindings = make(map[string]event.Value, n)
				for i := 0; i < n; i++ {
					name := r.str()
					rec.Opts.Bindings[name] = r.value()
				}
			}
		}
	case KindSpec:
		rec.Query = int(r.u32())
		rec.Spec = r.spec()
	case KindUnregister:
		rec.Query = int(r.u32())
	case KindFinish:
	default:
		return rec, fmt.Errorf("wal: unknown record kind %d", rec.Kind)
	}
	if r.err != nil {
		return rec, r.err
	}
	if r.off != len(payload) {
		return rec, fmt.Errorf("wal: %d trailing bytes after %s record", len(payload)-r.off, rec.Kind)
	}
	return rec, nil
}

// Scan reads framed records from r, calling fn with each record and its
// [start, end) byte range (magic header included in offsets). Scanning
// stops silently at the first torn, checksum-corrupt, or out-of-sequence
// record — recovery-time truncation treats everything from there as a lost
// tail — and the returned offset is the end of the last good record. A
// missing or wrong magic header is a hard error (the file is not a WAL),
// as is an I/O failure other than EOF.
func Scan(r io.Reader, fn func(rec Record, start, end int64) error) (int64, error) {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		if err == io.EOF {
			return 0, nil // empty file: a fresh log
		}
		if err == io.ErrUnexpectedEOF {
			return 0, nil // torn magic write: treat as empty
		}
		return 0, err
	}
	if string(magic[:]) != Magic {
		return 0, fmt.Errorf("wal: bad magic %q (not a CEDR WAL)", magic[:])
	}
	good := int64(len(Magic))
	var head [8]byte
	var lastSeq uint64
	for {
		if _, err := io.ReadFull(r, head[:]); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return good, nil // clean end, or torn length prefix
			}
			return good, err
		}
		n := binary.LittleEndian.Uint32(head[:4])
		crc := binary.LittleEndian.Uint32(head[4:])
		if n == 0 || n > maxBody {
			return good, nil // corrupt length prefix
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return good, nil // torn body
			}
			return good, err
		}
		if crc32.Checksum(payload, castagnoli) != crc {
			return good, nil // checksum mismatch
		}
		rec, err := DecodePayload(payload)
		if err != nil {
			return good, nil // structurally corrupt despite checksum length
		}
		if rec.Seq <= lastSeq {
			return good, nil // out of sequence: a stale or spliced tail
		}
		lastSeq = rec.Seq
		end := good + 8 + int64(n)
		if fn != nil {
			if err := fn(rec, good, end); err != nil {
				return good, err
			}
		}
		good = end
	}
}

// ReadAll scans every recoverable record from r. It returns the records,
// the byte offset of the end of the last good record (where a recovering
// writer truncates), and any hard error from Scan.
func ReadAll(r io.Reader) ([]Record, int64, error) {
	var recs []Record
	good, err := Scan(r, func(rec Record, _, _ int64) error {
		recs = append(recs, rec)
		return nil
	})
	return recs, good, err
}
