package inc

import (
	"hash/maphash"
	"math"
	"math/bits"

	"repro/internal/algebra"
	"repro/internal/event"
)

// payloadTable hash-conses the tree's payload maps: every match with one
// content points at one entry, which holds the immutable map, its resolved
// key and its id. Leaf entries are keyed by (leaf, raw payload) — only
// string, int, int64, non-NaN float64 and bool values intern, verified
// type-exactly (floats by bits) — and composites of ≤ maxParts interned parts
// by the parts' ids, in order. A payload that cannot intern takes an
// unindexed slot (id 0) in the same chunks. Matches point into the chunks,
// so an entry never moves and is never rewritten: a table whose internCap
// slots are taken starts a new chunk list, and the old chunks live as long
// as a match points into them. Like the other caches the table is shared
// with clones and rebuilt at Advance(∞) (a Rollback restores the old tree's
// table). Ids come from one counter per operator lineage.
type payloadTable struct {
	idx    map[uint64]int32 // hash → its newest entry's slot; older ones chain through next
	chunks [][]payloadEntry // the slots, by at
	n      int32            // slots taken
	last   *uint64          // the lineage's last issued id
}

type payloadEntry struct {
	id    uint64           // 0: not interned
	next  int32            // the slot of the next older entry with this hash, or 0
	kind  *leafKind        // leaf entry's leaf; nil for a composite
	parts [maxParts]uint64 // composite entry's part ids, zero-padded
	p     event.Payload
	key   event.Key
}

const maxParts = 4

var hashSeed = maphash.MakeSeed()

// finish is every table hash's last step; a test swaps it to force collisions.
var finish = func(h uint64) uint64 { return h }

// contentHash hashes a raw payload order-independently and type-exactly (the
// interface hash covers the dynamic type); ok is false if it cannot intern.
func contentHash(p event.Payload) (h uint64, ok bool) {
	for name, v := range p {
		switch x := v.(type) {
		case float64:
			if x != x {
				return 0, false
			}
		case string, int, int64, bool:
		default:
			return 0, false
		}
		h += maphash.String(hashSeed, name) ^ maphash.Comparable(hashSeed, v)
	}
	return h, true
}

// identical reports whether a, an internable value, is b: same type, same bits.
func identical(a, b event.Value) bool {
	if f, ok := a.(float64); ok {
		g, ok := b.(float64)
		return ok && math.Float64bits(f) == math.Float64bits(g)
	}
	return a == b
}

// at is the entry in slot i (from 1: chunk c holds slots [8<<c - 7, 16<<c - 7)).
func (t *payloadTable) at(i int32) *payloadEntry {
	q := uint32(i) + 7
	c := bits.Len32(q) - 4
	return &t.chunks[c][q-8<<c]
}

// add stores e in the next slot, interned under hash h if index. A full
// table starts a new chunk list first: a template chain interns a handful of
// payloads, so the first chunk is small, and each next one twice as large.
func (t *payloadTable) add(h uint64, index bool, e payloadEntry) *payloadEntry {
	if t.n == internCap {
		clear(t.idx)
		t.chunks, t.n = nil, 0
	}
	t.n++
	if c := bits.Len32(uint32(t.n)+7) - 4; c == len(t.chunks) {
		t.chunks = append(t.chunks, make([]payloadEntry, min(8<<c, internCap+8-8<<c)))
	}
	if index {
		if t.idx == nil {
			t.idx = map[uint64]int32{}
		}
		*t.last++
		e.id, e.next, t.idx[h] = *t.last, t.idx[h], t.n
	}
	s := t.at(t.n)
	*s = e
	return s
}

// leaf returns the entry of leaf k's payload for raw.
func (t *payloadTable) leaf(k *leafKind, raw event.Payload) *payloadEntry {
	h, ok := contentHash(raw)
	h = finish(h ^ k.salt)
	for i := t.idx[h]; ok && i > 0; i = t.at(i).next {
		if e := t.at(i); e.kind == k && k.holds(e.p, raw) {
			return e
		}
	}
	p := k.namespace(raw)
	return t.add(h, ok, payloadEntry{kind: k, p: p, key: k.cfg.of(p)})
}

// composite returns the entry of the composite of parts, whose matches
// are ms.
func (t *payloadTable) composite(parts []*keyedMatch, ms []*algebra.Match, cfg *keyCfg) *payloadEntry {
	var ids [maxParts]uint64
	ok := len(parts) <= maxParts
	for i := 0; ok && i < len(parts); i++ {
		ids[i], ok = parts[i].pe.id, parts[i].pe.id != 0
	}
	h := finish(maphash.Comparable(hashSeed, ids))
	for i := t.idx[h]; ok && i > 0; i = t.at(i).next {
		if e := t.at(i); e.kind == nil && e.parts == ids {
			return e
		}
	}
	p := algebra.CombinePayload(ms)
	return t.add(h, ok, payloadEntry{parts: ids, p: p, key: cfg.of(p)})
}
