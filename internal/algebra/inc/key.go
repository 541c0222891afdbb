package inc

import (
	"strings"

	"repro/internal/event"
)

// Correlation-key pushdown: when the query's WHERE clause proves that every
// detection combines only events agreeing on one payload attribute (a
// CorrelationKey(attr, EQUAL) clause, or a spanning conjunction of pairwise
// {a.attr = b.attr} predicates — internal/lang computes the proof, the plan
// passes the attribute via WithJoinKey), the join and negation stores of the
// matcher tree index their state by that attribute's value. A new child
// match then combines only with picks sharing its key, and a negative-side
// match only visits candidates sharing its key, shrinking the enumeration
// from the cross product of all live matches to the matching key's bucket.
//
// The pushdown is a pure index: every predicate the planner compiled —
// filterNode's residual WHERE conjunction and the negation operators' Corr
// — still runs. Correctness therefore only requires that the index never
// *hides* a combination the predicates would accept:
//
//   - A match's key is *definite* only when every payload value under the
//     attribute (the same suffix rule the language's CorrelationKey
//     expansion uses) exists, is canonically comparable, and is one common
//     value. Anything else — no value, mixed values, an exotic type — is
//     *wild* and keeps combining with every bucket, exactly as unkeyed.
//   - Join nodes skip only combinations holding two unequal definite keys
//     (narrow); the top-level EQUAL filter rejects those composites
//     regardless, so the root's post-filter output set is unchanged, and
//     enumerating from any one part finds a composite again. Join keying
//     is further restricted to the pattern's positive scope outside any
//     ATMOST (see buildCtx): negative sides and window counts are not
//     monotone in their input set, so pruning there could add output, not
//     just work.
//   - Negation nodes skip only definite×definite visits with unequal keys,
//     which the planner only enables (the expression's CorrKey annotation)
//     when the site's Corr is provably false on such pairs — so blocker
//     counts, and therefore the node's output set, are unchanged exactly.
//
// Who computes a match's key, and when. A key is resolved *once per distinct
// payload*, by the payload table (payload.go) when it builds a leaf's or a
// composite's map (one of() scan over the payload Combine just built — exact
// for its prime-renamed duplicate names by construction); later matches with
// that content point at the entry too. The key stays in the entry, which the
// one interned keyedMatch every store, delta item, journal record and
// negation candidate refers to points at, so nothing re-scans a payload —
// on adds, retractions, prunes or replayed items. Nodes that only re-head a
// match (negation, ATMOST) copy their input's entry pointer — the payload is
// the same map — and FILTER passes the reference through.
//
// Keys are event.Key values: numbers collapse to one float64 (so the buckets
// equate int64(3) with float64(3) the way event.ValueEqual does) without
// boxing, and a string key shares the payload's string data. Resolving a key
// allocates nothing. The fabric's routing index and the shard router use the
// same key, so matching, routing and sharding agree on what one key is.

// narrow is the key a join enumeration drawing by k draws by once it picked km.
func narrow(k event.Key, km *keyedMatch) event.Key {
	if k.Def() {
		return k
	}
	return km.pe.key
}

// keyCfg is the pushdown configuration shared by the tree: the correlation
// attribute and its precomputed namespace suffix.
type keyCfg struct {
	attr   string
	suffix string
}

func newKeyCfg(attr string) *keyCfg {
	if attr == "" {
		return nil
	}
	return &keyCfg{attr: attr, suffix: "." + attr}
}

// of resolves a match's correlation key from its (namespaced) payload; a
// nil configuration (unkeyed tree) resolves everything wild.
//
// Only names of the exact `<alias>.<attr>` form (dot-free prefix) may make
// a key definite, and all of them must agree. A dotted payload attribute
// (e.g. "a.sub.k", which the CorrelationKey suffix filter *does* inspect
// but a pairwise {a.k = b.k} predicate does not) forces the match wild:
// keying on a value some pushed predicate never compares could hide
// combinations that predicate accepts — in particular, pairwise exact
// lookups treat two *absent* values as equal, so a match must never be
// definite unless its exact lookup really carries the key value. Wild is
// always the safe direction; definite is reserved for matches where every
// pushable predicate family provably sees exactly this one value.
func (c *keyCfg) of(p event.Payload) event.Key {
	var key event.Key
	if c == nil {
		return key
	}
	for name, v := range p {
		if !strings.HasSuffix(name, c.suffix) {
			continue
		}
		if strings.Contains(name[:len(name)-len(c.suffix)], ".") {
			return event.Key{} // dotted payload attribute, not an alias.attr lookup
		}
		cv := event.KeyOf(v)
		if !cv.Def() || (key.Def() && cv != key) {
			return event.Key{}
		}
		key = cv
	}
	return key
}

// keyedList is the join and negation nodes' match store: one (V.Start, ID)-
// sorted bucket per definite key plus one list for wild matches — which, in
// an unkeyed list (keyed false: the node may not index by key, see buildCtx
// and negNode), is every match. A bucket that empties leaves the map at
// once — a source cycling through many distinct keys must not leave a map
// of dead keys behind once scope pruning (or a removal storm) drains their
// matches — and goes to spare, whose buckets the next new keys take: spare
// never holds more than the most buckets live at once.
type keyedList struct {
	keyed   bool
	buckets map[event.Key]*matchList
	wild    matchList
	spare   []*matchList // emptied buckets, storage kept
}

func (l *keyedList) insert(km *keyedMatch) {
	k := route(l.keyed, km.pe.key)
	if !k.Def() {
		l.wild.insert(km)
		return
	}
	b := l.buckets[k]
	if b == nil {
		if l.buckets == nil {
			l.buckets = make(map[event.Key]*matchList, 8)
		}
		if n := len(l.spare); n > 0 {
			b, l.spare = l.spare[n-1], l.spare[:n-1]
		} else {
			b = &matchList{}
		}
		l.buckets[k] = b
	}
	b.insert(km)
}

// remove deletes the entry equal to km (by ID at its occurrence time).
func (l *keyedList) remove(km *keyedMatch) bool {
	k := route(l.keyed, km.pe.key)
	if !k.Def() {
		return l.wild.removeMatch(&km.m)
	}
	b := l.buckets[k]
	if b == nil {
		return false
	}
	ok := b.removeMatch(&km.m)
	if ok && len(b.ms) == 0 {
		delete(l.buckets, k)
		l.spare = append(l.spare, b)
	}
	return ok
}

// scan visits every sorted list a probe with key k may combine with — the
// single source of the pushdown's routing rule: a definite probe sees its
// own key's bucket plus the wild list; a wild probe sees everything.
func (l *keyedList) scan(k event.Key, fn func(*matchList)) {
	if k = route(l.keyed, k); k.Def() {
		if b := l.buckets[k]; b != nil {
			fn(b)
		}
	} else {
		for _, b := range l.buckets {
			fn(b)
		}
	}
	fn(&l.wild)
}

func (l *keyedList) clone() keyedList {
	c := keyedList{keyed: l.keyed, wild: l.wild.clone()}
	if len(l.buckets) > 0 {
		c.buckets = make(map[event.Key]*matchList, len(l.buckets))
		for k, b := range l.buckets {
			cb := b.clone()
			c.buckets[k] = &cb
		}
	}
	return c
}
