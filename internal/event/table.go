package event

import "encoding/binary"

// A Table holds TableSlots strings and TableSlots payloads of at most
// SharedMax bytes of text in direct-mapped slots that never grow.
const (
	tableBits  = 10
	TableSlots = 1 << tableBits
	SharedMax  = 64
)

// Table is what an edge decoder shares between the events it decodes: one
// copy of each short type, name and string value it reads again and again,
// and one map per short payload, handed out again only for byte-for-byte
// the text it was decoded from, so events of equal payload text share a
// read-only map (the contract Payload.Equal states) and a Table serves one
// codec. A stream of distinct ones pays a hash and a compare each. A Table
// is not safe for concurrent use. A nil *Table shares nothing; the zero
// Table has one slot of each kind, so every lookup collides (tests use it).
type Table struct {
	mask     uint64
	strings  [TableSlots]sharedString
	payloads [TableSlots]sharedPayload
	inline   [8 << 10]byte                 // the kept texts, until they outgrow it
	spill    *[TableSlots * SharedMax]byte // then these: SharedMax bytes a slot
	used     int                           // bytes of arena() taken
}

func (t *Table) arena() []byte {
	if t.spill != nil {
		return t.spill[:]
	}
	return t.inline[:]
}

type sharedString struct {
	s string
	v Value // s, boxed once it is handed out as a Value
}

type sharedPayload struct {
	p       Payload
	seen    uint32 // the hash of the last payload that missed here, its top half
	at      uint16 // p's text is arena()[at:at+n], in a region of room bytes
	n, room uint8
}

// NewTable returns a Table with empty slots.
func NewTable() *Table { return &Table{mask: TableSlots - 1} }

// hash is multiplicative hashing a word at a time, deterministic so misses
// repeat run to run; a crafted collision costs what no table would anyway.
// Its top bits pick a slot; its top half is what a payload slot saw (low
// bits see only the low half of each word).
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

// A PayloadSlot is where a payload's text hashes to.
type PayloadSlot struct {
	t    *Table
	sl   *sharedPayload
	text []byte
	h    uint32
}

// Payload looks up the payload a decoder is about to decode from text. The
// slot's map is handed out only if it was decoded from exactly text. A miss
// returns nil and the slot to Keep the decoded map in (one that keeps
// nothing past SharedMax bytes).
func (t *Table) Payload(text []byte) (Payload, PayloadSlot) {
	if t == nil || len(text) > SharedMax {
		return nil, PayloadSlot{}
	}
	h := hash(text)
	s := PayloadSlot{t, &t.payloads[t.index(h)], text, uint32(h >> 32)}
	if sl := s.sl; sl.p != nil && string(t.arena()[sl.at:int(sl.at)+int(sl.n)]) == string(text) {
		return sl.p, s
	}
	return nil, s
}

// Keep offers the slot p, decoded on a miss from exactly the text looked
// up, without error: a map decoded from a part of it, or refused, would be
// handed out for the whole. A non-nil p is kept at its second miss in a
// row in the slot: a payload seen once evicts none that repeats. Its text
// takes the slot's region or the arena's next bytes, at least its share a
// slot; when the inline one runs out, the slots clear and move, once, to
// the spill, where that share is SharedMax bytes, so it never fills.
func (s PayloadSlot) Keep(p Payload) {
	sl, t, n := s.sl, s.t, len(s.text)
	if sl == nil || p == nil {
		return
	}
	if sl.seen != s.h {
		sl.seen = s.h
		return
	}
	if int(sl.room) < n {
		if t.spill == nil && len(t.inline)-t.used < max(n, len(t.inline)/TableSlots) {
			t.spill, t.used = new([TableSlots * SharedMax]byte), 0
			clear(t.payloads[:]) // their texts stay inline
		}
		sl.at, sl.room = uint16(t.used), uint8(max(n, len(t.arena())/TableSlots))
		t.used += int(sl.room)
	}
	sl.p, sl.seen, sl.n = p, s.h, uint8(copy(t.arena()[sl.at:], s.text))
}
