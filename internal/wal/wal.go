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
//
// Memory stays bounded: a Log buffers at most 64 KiB of records before
// writing them out (fsync follows SyncEvery alone), opening one keeps its
// intact prefix undecoded (Log.TakeRecovered), and Scan decodes through
// one payload buffer and one Decoder, which shares repeated strings.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

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

// RegOpts are a registration's options — exactly the knobs plan.Prepare
// accepts (plan.WithRegOpts) — and the one record that carries them from a
// network request to the log and back through replay. Share and Bindings
// are encoded behind flag bits a pre-fabric decoder never set, so
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
	// Sorted names: deterministic bytes for a given event, so identical runs
	// produce identical log files.
	var names [8]string
	var err error
	for _, k := range event.SortedNames(names[:0], e.Payload) {
		b = appendStr(b, k)
		if b, err = appendValue(b, e.Payload[k]); err != nil {
			return b, err
		}
	}
	return b, nil
}

func appendSpec(b []byte, s consistency.Spec) []byte {
	b = appendI64(b, int64(s.B))
	return appendI64(b, int64(s.M))
}

// AppendRegister encodes a registration — source text and options — in the
// body encoding of a KindRegister record onto dst:
//
//	str src, u8 flags, i64 B, i64 M, i32 shards, [u32 n, (str name, value)*n]
//
// with flags 1 spec, 8 share, 16 bindings (names sorted, so a registration
// encodes to deterministic bytes). The network protocol's register frame
// carries exactly this body.
func AppendRegister(dst []byte, src string, o RegOpts) ([]byte, error) {
	dst = appendStr(dst, src)
	var flags byte
	if o.HasSpec {
		flags |= 1
	}
	if o.Share {
		flags |= 8
	}
	if len(o.Bindings) > 0 {
		flags |= 16
	}
	dst = append(dst, flags)
	dst = appendSpec(dst, o.Spec)
	dst = appendU32(dst, uint32(o.Shards))
	if len(o.Bindings) > 0 {
		var names [8]string
		dst = appendU32(dst, uint32(len(o.Bindings)))
		for _, name := range event.SortedNames(names[:0], o.Bindings) {
			var err error
			if dst, err = appendValue(appendStr(dst, name), o.Bindings[name]); err != nil {
				return dst, err
			}
		}
	}
	return dst, nil
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
		if dst, err = AppendRegister(dst, r.Src, r.Opts); err != nil {
			return dst[:head], err
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

// A Decoder's table: 1 << sharedBits direct-mapped slots that never grow —
// a miss overwrites its slot — holding strings of at most sharedMax bytes.
const sharedBits, sharedMax = 10, 64

// shared is one slot: a string, boxed once it is decoded as a value.
type shared struct {
	s string
	v event.Value
}

// Decoder decodes the log's encodings, handing out one copy of each short
// event type, payload name and string value it decodes again and again. A
// stream that repeats them (a fleet repeats a few hundred) saves a copy per
// occurrence; one that does not pays a hash and a compare per string. Hold
// one per connection or scan: it is not safe for concurrent use. A nil
// *Decoder shares nothing; the zero Decoder has one slot (tests use it).
type Decoder struct {
	mask  uint64
	slots [1 << sharedBits]shared
}

// NewDecoder returns a Decoder with an empty table.
func NewDecoder() *Decoder { return &Decoder{mask: 1<<sharedBits - 1} }

// share returns the slot holding b, storing b there on a miss; nil without
// a table or for a long string.
func (d *Decoder) share(b []byte) *shared {
	if d == nil || len(b) > sharedMax {
		return nil
	}
	// Multiplicative hashing a word at a time, deterministic so misses repeat
	// run to run; a crafted collision costs what no table would anyway.
	h, w := uint64(len(b)), b
	for ; len(w) > 8; w = w[8:] {
		h = (h ^ binary.LittleEndian.Uint64(w)) * 0x9E3779B97F4A7C15
	}
	if n := len(w); n >= 4 { // the last 4–8 bytes as two overlapping reads
		h ^= uint64(binary.LittleEndian.Uint32(w)) | uint64(binary.LittleEndian.Uint32(w[n-4:]))<<32
	} else if n > 0 {
		h ^= uint64(w[0]) | uint64(w[n/2])<<8 | uint64(w[n-1])<<16
	}
	sl := &d.slots[(h*0x9E3779B97F4A7C15)>>(64-sharedBits)&d.mask]
	if sl.s != string(b) {
		*sl = shared{s: string(b)}
	}
	return sl
}

type byteReader struct {
	b   []byte
	off int
	err error
	dec *Decoder // shares short strings (nil: none)
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

// strBytes reads a length-prefixed string in place.
func (r *byteReader) strBytes() []byte {
	n := int(r.u32())
	if r.err == nil && n > maxBody {
		r.err = fmt.Errorf("wal: string length %d exceeds record bounds", n)
		return nil
	}
	return r.take(n)
}

// str reads a string through the decoder's table.
func (r *byteReader) str() string {
	b := r.strBytes()
	if sl := r.dec.share(b); sl != nil {
		return sl.s
	}
	return string(b)
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
		b := r.strBytes()
		sl := r.dec.share(b)
		if sl == nil {
			return string(b)
		}
		if sl.v == nil {
			sl.v = sl.s
		}
		return sl.v
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

func (r *byteReader) register() (src string, o RegOpts) {
	src = r.str()
	flags := r.u8()
	o.HasSpec = flags&1 != 0
	o.Share = flags&8 != 0
	o.Spec = r.spec()
	// Signed round-trip: plan.AutoShards is a negative sentinel and must
	// survive the u32 framing.
	o.Shards = int(int32(r.u32()))
	if flags&16 == 0 {
		// Records written before the fabric end at Shards and never set
		// the flag, so they decode here unchanged.
		return src, o
	}
	n := int(r.u32())
	if r.err == nil && n > (len(r.b)-r.off)/minEntry {
		r.err = fmt.Errorf("wal: binding count %d exceeds record bounds", n)
		return src, o
	}
	if n > 0 {
		o.Bindings = make(map[string]event.Value, n)
		for i := 0; i < n; i++ {
			name := r.str()
			o.Bindings[name] = r.value()
		}
	}
	return src, o
}

// Register decodes a registration produced by AppendRegister from the front
// of b, returning the number of bytes consumed.
func (d *Decoder) Register(b []byte) (string, RegOpts, int, error) {
	r := byteReader{b: b, dec: d}
	src, o := r.register()
	return src, o, r.off, r.err
}

// AppendEvent encodes one event in the WAL's event body encoding onto
// dst. The network protocol frames events (and registrations, through
// AppendRegister) with exactly the log's encodings, so a served request and
// its logged record share one codec and one set of round-trip proofs.
func AppendEvent(dst []byte, e event.Event) ([]byte, error) {
	return appendEvent(dst, e)
}

// Event decodes an event produced by AppendEvent from the front of b,
// returning the number of bytes consumed.
func (d *Decoder) Event(b []byte) (event.Event, int, error) {
	r := byteReader{b: b, dec: d}
	e := r.event()
	return e, r.off, r.err
}

// DecodePayload decodes one record payload (seq + kind + body, the
// checksummed region of a frame) without sharing strings.
func DecodePayload(payload []byte) (Record, error) {
	return (*Decoder)(nil).Payload(payload)
}

// Payload decodes one record payload like DecodePayload, through d's table.
func (d *Decoder) Payload(payload []byte) (Record, error) {
	r := byteReader{b: payload, dec: d}
	var rec Record
	rec.Seq = r.u64()
	rec.Kind = Kind(r.u8())
	switch rec.Kind {
	case KindEvent, KindCTI:
		rec.Ev = r.event()
	case KindRegister:
		rec.Src, rec.Opts = r.register()
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
// stops silently at the first torn, checksum-corrupt, out-of-sequence or
// undecodable record — recovery-time truncation treats everything from
// there as a lost tail — and the returned offset is the end of the last
// good record. A missing or wrong magic header is a hard error (the file is
// not a WAL), as is an I/O failure other than EOF.
func Scan(r io.Reader, fn func(rec Record, start, end int64) error) (int64, error) {
	return scan(r, NewDecoder(), fn)
}

// scan is Scan through dec; a nil dec decodes nothing (fn sees Seq alone).
func scan(r io.Reader, dec *Decoder, fn func(rec Record, start, end int64) error) (int64, error) {
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
	// One payload buffer for the whole scan: decoding copies out of it.
	var payload []byte
	for {
		if _, err := io.ReadFull(r, head[:]); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return good, nil // clean end, or torn length prefix
			}
			return good, err
		}
		n := binary.LittleEndian.Uint32(head[:4])
		crc := binary.LittleEndian.Uint32(head[4:])
		if n < 8+1 || n > maxBody {
			return good, nil // corrupt length prefix (no room for seq and kind, or too long)
		}
		payload = slices.Grow(payload[:0], int(n))[:n]
		if _, err := io.ReadFull(r, payload); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return good, nil // torn body
			}
			return good, err
		}
		if crc32.Checksum(payload, castagnoli) != crc {
			return good, nil // checksum mismatch
		}
		rec := Record{Seq: binary.LittleEndian.Uint64(payload)}
		if dec != nil {
			var err error
			if rec, err = dec.Payload(payload); err != nil {
				return good, nil // structurally corrupt despite checksum length
			}
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
