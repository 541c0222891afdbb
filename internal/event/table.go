package event

import "encoding/binary"

// A Table holds TableSlots strings and TableSlots payloads of at most
// SharedMax bytes (a payload's key) in direct-mapped slots that never grow.
const (
	tableBits  = 10
	TableSlots = 1 << tableBits
	SharedMax  = 64
)

// Table is what an edge decoder shares between the events it decodes: one
// copy of each short type, name and string value it reads again and again,
// and one map per short payload, so events of equal payload content share
// a read-only map (the contract Payload.Equal states). A stream of
// distinct ones pays a hash and a compare each. A Table is not safe for
// concurrent use. A nil *Table shares nothing; the zero Table has one slot
// of each kind, so every lookup collides (tests use it).
type Table struct {
	mask     uint64
	strings  [TableSlots]sharedString
	payloads [TableSlots]sharedPayload
	buf      [4 * SharedMax]byte // re-encodings, for the hit rule
}

type sharedString struct {
	s string
	v Value // s, boxed once it is handed out as a Value
}

type sharedPayload struct {
	tag, seen uint64 // seen: the hash of the last payload that missed here
	p         Payload
}

// NewTable returns a Table with empty slots.
func NewTable() *Table { return &Table{mask: TableSlots - 1} }

// hash is multiplicative hashing a word at a time, deterministic so misses
// repeat run to run; a crafted collision costs what no table would anyway.
// Its top bits pick a slot, its low bits are a payload's tag.
func hash(b []byte) uint64 {
	h, w := uint64(len(b)), b
	for ; len(w) > 8; w = w[8:] {
		h = (h ^ binary.LittleEndian.Uint64(w)) * 0x9E3779B97F4A7C15
	}
	if n := len(w); n >= 4 { // the last 4–8 bytes as two overlapping reads
		h ^= uint64(binary.LittleEndian.Uint32(w)) | uint64(binary.LittleEndian.Uint32(w[n-4:]))<<32
	} else if n > 0 {
		h ^= uint64(w[0]) | uint64(w[n/2])<<8 | uint64(w[n-1])<<16
	}
	return h * 0x9E3779B97F4A7C15
}

func (t *Table) index(h uint64) uint64 { return h >> (64 - tableBits) & t.mask }

// str returns the slot holding b, storing b there on a miss; nil without a
// table or for a long string.
func (t *Table) str(b []byte) *sharedString {
	if t == nil || len(b) > SharedMax {
		return nil
	}
	sl := &t.strings[t.index(hash(b))]
	if sl.s != string(b) {
		*sl = sharedString{s: string(b)}
	}
	return sl
}

// String returns a copy of b, shared if it is short.
func (t *Table) String(b []byte) string {
	if sl := t.str(b); sl != nil {
		return sl.s
	}
	return string(b)
}

// Value returns String(b) as a Value, boxed once if it is short.
func (t *Table) Value(b []byte) Value {
	sl := t.str(b)
	if sl == nil {
		return string(b)
	}
	if sl.v == nil {
		sl.v = sl.s
	}
	return sl.v
}

// An Encoder appends a codec's encoding of p to dst, allocating nothing
// while dst has room, or fails if p has none.
type Encoder func(dst []byte, p Payload) ([]byte, error)

// A PayloadSlot is where a payload's key hashes to.
type PayloadSlot struct {
	sl     *sharedPayload
	h, tag uint64
}

// Payload looks up the payload a decoder is about to decode from text by
// key (text, or the part of it that tells payloads apart). The slot's map
// is handed out only if its tag agrees and enc re-encodes it to exactly
// text: a codec that round-trips decodes text to that very map, and text
// not in canonical form always misses. A miss returns nil and the slot to
// Keep the decoded map in (one that keeps nothing past SharedMax bytes).
func (t *Table) Payload(key, text []byte, enc Encoder) (Payload, PayloadSlot) {
	if t == nil || len(key) > SharedMax {
		return nil, PayloadSlot{}
	}
	h := hash(key)
	s := PayloadSlot{&t.payloads[t.index(h)], h, h & t.mask}
	if p := s.sl.p; p != nil && s.sl.tag == s.tag {
		if b, err := enc(t.buf[:0], p); err == nil && string(b) == string(text) {
			return p, s
		}
	}
	return nil, s
}

// Keep offers the slot p, decoded on a miss. The slot keeps it only at the
// payload's second miss in a row there: a payload seen once evicts none
// that repeats, and a stream of distinct payloads keeps none.
func (s PayloadSlot) Keep(p Payload) {
	if s.sl != nil {
		if s.sl.seen == s.h {
			s.sl.tag, s.sl.p = s.tag, p
		}
		s.sl.seen = s.h
	}
}
