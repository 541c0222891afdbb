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
// intact prefix undecoded (Log.TakeRecovered), and Scan decodes each record
// of that image in place, through one Decoder, which shares repeated
// strings and payloads.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

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

// maxBody caps a record payload during recovery: a longer length prefix is
// corrupt.
const maxBody = 1 << 26

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ---------------------------------------------------------------------------
// Encoding

// AppendU32, AppendU64 and AppendStr append the integers and strings of the
// log's encodings, which the network protocol's frames share; Reader reads
// them back.
func AppendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func AppendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
func appendI64(b []byte, v int64) []byte  { return AppendU64(b, uint64(v)) }
func AppendStr(b []byte, s string) []byte {
	b = AppendU32(b, uint32(len(s)))
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
		return AppendU64(append(b, tagFloat64), math.Float64bits(x)), nil
	case string:
		return AppendStr(append(b, tagString), x), nil
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

// AppendEvent encodes one event in the WAL's event body encoding onto
// b. The network protocol frames events (and registrations, through
// AppendRegister) with exactly the log's encodings, so a served request and
// its logged record share one codec and one set of round-trip proofs.
func AppendEvent(b []byte, e event.Event) ([]byte, error) {
	b = AppendU64(b, uint64(e.ID))
	b = append(b, byte(e.Kind))
	b = AppendStr(b, e.Type)
	b = appendTime(b, e.V.Start)
	b = appendTime(b, e.V.End)
	b = appendTime(b, e.O.Start)
	b = appendTime(b, e.O.End)
	b = appendTime(b, e.C.Start)
	b = appendTime(b, e.C.End)
	b = appendTime(b, e.RT)
	b = AppendU32(b, uint32(len(e.CBT)))
	for _, id := range e.CBT {
		b = AppendU64(b, uint64(id))
	}
	return appendPayload(b, e.Payload)
}

// appendPayload appends p's count and entries, names sorted: deterministic
// bytes for a given event, so identical runs produce identical log files.
func appendPayload(b []byte, p event.Payload) ([]byte, error) {
	b = AppendU32(b, uint32(len(p)))
	var names [8]string
	var err error
	for _, k := range event.SortedNames(names[:0], p) {
		if b, err = appendValue(AppendStr(b, k), p[k]); err != nil {
			break
		}
	}
	return b, err
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
	dst = AppendStr(dst, src)
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
	dst = AppendU32(dst, uint32(o.Shards))
	if len(o.Bindings) > 0 {
		return appendPayload(dst, o.Bindings)
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
	dst = AppendU64(dst, r.Seq)
	dst = append(dst, byte(r.Kind))
	var err error
	switch r.Kind {
	case KindEvent, KindCTI:
		if dst, err = AppendEvent(dst, r.Ev); err != nil {
			return dst[:head], err
		}
	case KindRegister:
		if dst, err = AppendRegister(dst, r.Src, r.Opts); err != nil {
			return dst[:head], err
		}
	case KindSpec:
		dst = AppendU32(dst, uint32(r.Query))
		dst = appendSpec(dst, r.Spec)
	case KindUnregister:
		dst = AppendU32(dst, uint32(r.Query))
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

// Decoder decodes the log's encodings through an event.Table, whose shared
// payloads are read-only. Hold one per connection or scan. A nil *Decoder
// shares nothing; the zero Decoder has one slot per table (tests use it).
type Decoder event.Table

// NewDecoder returns a Decoder with empty tables.
func NewDecoder() *Decoder { return (*Decoder)(event.NewTable()) }

// Reader decodes the log's encodings — which the network protocol's frame
// bodies share — from one buffer in place, with a sticky error: after the
// first failure every read returns a zero value, and Done reports it. It
// shares strings and payloads through a Decoder's table.
type Reader struct {
	b   []byte
	off int
	err error
	tab *event.Table // shares short strings and payloads (nil: none)
}

// NewReader returns a Reader over b decoding through d; a nil d shares
// nothing.
func NewReader(b []byte, d *Decoder) Reader { return Reader{b: b, tab: (*event.Table)(d)} }

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b)-r.off { // n < 0: a u32 length past int on 32-bit
		r.err = io.ErrUnexpectedEOF
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if b := r.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if b := r.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (r *Reader) i64() int64 { return int64(r.U64()) }

// U8 reads one byte.
func (r *Reader) U8() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

// strBytes reads a length-prefixed string in place.
func (r *Reader) strBytes() []byte { return r.take(int(r.U32())) }

// Str reads a length-prefixed string through the table.
func (r *Reader) Str() string { return r.tab.String(r.strBytes()) }

func (r *Reader) time() temporal.Time { return temporal.Time(r.i64()) }

// minEntry is the least a payload or binding entry encodes in (a name's
// length and a bool): no count may claim more entries than the bytes left
// can hold, so a forged count cannot size an allocation.
const minEntry = 4 + 2

func (r *Reader) value() event.Value {
	switch tag := r.U8(); tag {
	case tagInt64:
		return r.i64()
	case tagInt:
		return int(r.i64())
	case tagFloat64:
		return math.Float64frombits(r.U64())
	case tagString:
		return r.tab.Value(r.strBytes())
	case tagBool:
		return r.U8() != 0
	default:
		if r.err == nil {
			r.err = fmt.Errorf("wal: unknown payload value tag %d", tag)
		}
		return nil
	}
}

func (r *Reader) spec() consistency.Spec {
	return consistency.Spec{B: temporal.Duration(r.i64()), M: temporal.Duration(r.i64())}
}

// Event reads an event in AppendEvent's encoding. Its payload is shared
// only if it ends the buffer, as an event ends every log record and push
// or output frame.
func (r *Reader) Event() event.Event {
	var e event.Event
	e.ID = event.ID(r.U64())
	e.Kind = event.Kind(r.U8())
	e.Type = r.Str()
	e.V.Start, e.V.End = r.time(), r.time()
	e.O.Start, e.O.End = r.time(), r.time()
	e.C.Start, e.C.End = r.time(), r.time()
	e.RT = r.time()
	nCBT := int(r.U32())
	if r.err == nil && nCBT > (len(r.b)-r.off)/8 {
		r.err = fmt.Errorf("wal: lineage count %d exceeds record bounds", nCBT)
		return e
	}
	if nCBT > 0 {
		e.CBT = make([]event.ID, nCBT)
		for i := range e.CBT {
			e.CBT[i] = event.ID(r.U64())
		}
	}
	nPay := int(r.U32())
	if r.err == nil && nPay > (len(r.b)-r.off)/minEntry {
		r.err = fmt.Errorf("wal: payload count %d exceeds record bounds", nPay)
		return e
	}
	if nPay > 0 {
		e.Payload = r.payload(nPay)
	}
	return e
}

// payload reads n > 0 entries, their count just read, from the buffer's
// tail: the table's text. It keeps only entries that are the whole tail
// and name n distinct names, so a kept map of n entries is what its text
// decodes to under this count (n entries end a tail for one n alone).
func (r *Reader) payload(n int) event.Payload {
	p, slot := r.tab.Payload(r.b[r.off:])
	if len(p) == n {
		r.off = len(r.b)
		return p
	}
	p = make(event.Payload, n)
	for range n {
		k := r.Str()
		p[k] = r.value()
	}
	if r.err == nil && r.off == len(r.b) && len(p) == n {
		slot.Keep(p)
	}
	return p
}

// Register reads a registration in AppendRegister's encoding.
func (r *Reader) Register() (src string, o RegOpts) {
	src = r.Str()
	flags := r.U8()
	o.HasSpec = flags&1 != 0
	o.Share = flags&8 != 0
	o.Spec = r.spec()
	// Signed round-trip: plan.AutoShards is a negative sentinel and must
	// survive the u32 framing.
	o.Shards = int(int32(r.U32()))
	if flags&16 == 0 {
		// Records written before the fabric end at Shards and never set
		// the flag, so they decode here unchanged.
		return src, o
	}
	n := int(r.U32())
	if r.err == nil && n > (len(r.b)-r.off)/minEntry {
		r.err = fmt.Errorf("wal: binding count %d exceeds record bounds", n)
		return src, o
	}
	if n > 0 {
		o.Bindings = make(map[string]event.Value, n)
		for i := 0; i < n; i++ {
			name := r.Str()
			o.Bindings[name] = r.value()
		}
	}
	return src, o
}

// Done reports the first decoding failure, or that bytes were left unread.
func (r *Reader) Done() error {
	if r.err == nil && r.off != len(r.b) {
		return fmt.Errorf("wal: %d trailing bytes", len(r.b)-r.off)
	}
	return r.err
}

// Payload decodes one record payload (seq + kind + body, the checksummed
// region of a frame) through d's table; a nil d shares nothing.
func (d *Decoder) Payload(payload []byte) (Record, error) {
	r := NewReader(payload, d)
	rec := Record{Seq: r.U64(), Kind: Kind(r.U8())}
	switch rec.Kind {
	case KindEvent, KindCTI:
		rec.Ev = r.Event()
	case KindRegister:
		rec.Src, rec.Opts = r.Register()
	case KindSpec:
		rec.Query = int(r.U32())
		rec.Spec = r.spec()
	case KindUnregister:
		rec.Query = int(r.U32())
	case KindFinish:
	default:
		return rec, fmt.Errorf("wal: unknown record kind %d", rec.Kind)
	}
	return rec, r.Done()
}

// Scan decodes the framed records of a log image in place, calling fn with
// each record and its [start, end) byte range (magic header included in
// offsets). Scanning stops silently at the first torn, checksum-corrupt,
// out-of-sequence or undecodable record — recovery-time truncation treats
// everything from there as a lost tail — and the returned offset is the
// end of the last good record. A wrong magic header is a hard error (the
// image is not a WAL); an image shorter than one is a fresh log.
func Scan(img []byte, fn func(rec Record, start, end int64) error) (int64, error) {
	return scan(img, NewDecoder(), fn)
}

// scan is Scan through dec; a nil dec decodes nothing (fn sees Seq alone).
func scan(img []byte, dec *Decoder, fn func(rec Record, start, end int64) error) (int64, error) {
	if len(img) < len(Magic) {
		return 0, nil // empty file, or a torn magic write: a fresh log
	}
	if string(img[:len(Magic)]) != Magic {
		return 0, fmt.Errorf("wal: bad magic %q (not a CEDR WAL)", img[:len(Magic)])
	}
	good := len(Magic)
	var lastSeq uint64
	for len(img)-good >= 8 { // else the end, or a torn length prefix
		n := int(binary.LittleEndian.Uint32(img[good:]))
		if n < 8+1 || n > maxBody || n > len(img)-good-8 {
			// No room for seq and kind, longer than any record, or a
			// torn body.
			return int64(good), nil
		}
		end := good + 8 + n
		payload := img[good+8 : end]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(img[good+4:]) {
			return int64(good), nil // checksum mismatch
		}
		rec := Record{Seq: binary.LittleEndian.Uint64(payload)}
		if dec != nil {
			var err error
			if rec, err = dec.Payload(payload); err != nil {
				return int64(good), nil // structurally corrupt despite checksum length
			}
		}
		if rec.Seq <= lastSeq {
			return int64(good), nil // out of sequence: a stale or spliced tail
		}
		lastSeq = rec.Seq
		if fn != nil {
			if err := fn(rec, int64(good), int64(end)); err != nil {
				return int64(good), err
			}
		}
		good = end
	}
	return int64(good), nil
}

// ReadAll reads r to its end and scans every recoverable record of it. It
// returns the records, the byte offset of the end of the last good record
// (where a recovering writer truncates), and any read or Scan error.
func ReadAll(r io.Reader) ([]Record, int64, error) {
	img, err := io.ReadAll(r)
	if err != nil {
		return nil, 0, err
	}
	var recs []Record
	good, err := Scan(img, func(rec Record, _, _ int64) error {
		recs = append(recs, rec)
		return nil
	})
	return recs, good, err
}
