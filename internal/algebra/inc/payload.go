package inc

import (
	"hash/maphash"
	"math"

	"repro/internal/algebra"
	"repro/internal/event"
)

// payloadTable hash-conses the tree's payload maps: every match with one
// content shares one immutable map and its resolved key. Leaf entries are
// keyed by (leaf, raw payload) — only string, int, int64, non-NaN float64
// and bool values intern, verified type-exactly (floats by bits) — and
// composites of ≤ maxParts interned parts by the parts' ids, in order. Like
// the other caches it is shared with clones, cleared at internCap and
// rebuilt at Advance(∞) (a Rollback restores the old tree's table). Ids come
// from one counter per operator lineage: a live match outlives its entry.
type payloadTable struct {
	idx  map[uint64]int32 // hash → its newest entry; older ones chain through next
	ents []payloadEntry
	last *uint64 // the lineage's last issued id
}

type payloadEntry struct {
	id    uint64
	next  int32            // the next older entry with this hash, or -1
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

// head is the newest entry with hash h, or -1.
func (t *payloadTable) head(h uint64) int32 {
	if i, ok := t.idx[h]; ok {
		return i
	}
	return -1
}

// add interns e under hash h, clearing a full table first (its storage
// stays grown).
func (t *payloadTable) add(h uint64, e payloadEntry) *payloadEntry {
	if t.idx == nil {
		t.idx = map[uint64]int32{}
	} else if len(t.ents) >= internCap {
		clear(t.idx)
		clear(t.ents)
		t.ents = t.ents[:0]
	}
	*t.last++
	e.id, e.next = *t.last, t.head(h)
	t.idx[h] = int32(len(t.ents))
	t.ents = append(t.ents, e)
	return &t.ents[len(t.ents)-1]
}

// leaf returns leaf k's payload, key and payload id for raw.
func (t *payloadTable) leaf(k *leafKind, raw event.Payload) (event.Payload, event.Key, uint64) {
	h, ok := contentHash(raw)
	if !ok {
		p := k.namespace(raw)
		return p, k.cfg.of(p), 0
	}
	h = finish(h ^ k.salt)
	for i := t.head(h); i >= 0; i = t.ents[i].next {
		if e := &t.ents[i]; e.kind == k && k.holds(e.p, raw) {
			return e.p, e.key, e.id
		}
	}
	p := k.namespace(raw)
	e := t.add(h, payloadEntry{kind: k, p: p, key: k.cfg.of(p)})
	return e.p, e.key, e.id
}

// composite returns the payload, key and payload id of the composite of
// parts, whose matches are ms.
func (t *payloadTable) composite(parts []*keyedMatch, ms []*algebra.Match, cfg *keyCfg) (event.Payload, event.Key, uint64) {
	var ids [maxParts]uint64
	ok := len(parts) <= maxParts
	for i := 0; ok && i < len(parts); i++ {
		ids[i], ok = parts[i].pid, parts[i].pid != 0
	}
	if !ok {
		p := algebra.CombinePayload(ms)
		return p, cfg.of(p), 0
	}
	h := finish(maphash.Comparable(hashSeed, ids))
	for i := t.head(h); i >= 0; i = t.ents[i].next {
		if e := &t.ents[i]; e.kind == nil && e.parts == ids {
			return e.p, e.key, e.id
		}
	}
	p := algebra.CombinePayload(ms)
	e := t.add(h, payloadEntry{parts: ids, p: p, key: cfg.of(p)})
	return e.p, e.key, e.id
}
