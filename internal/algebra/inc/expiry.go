package inc

import (
	"slices"
	"sort"

	"repro/internal/event"
	"repro/internal/temporal"
)

// evRec is what the operator holds of one primitive event: its identity and
// occurrence time — all the Op's stores (available and consumed) and their
// expiry queue need — and the matches the tree's leaves derive from it,
// built with the record and in its allocation, so an event costs one
// allocation plus its namespaced payload and a revival re-push derives
// nothing. Immutable; shared with clones through the record cache.
type evRec struct {
	// ids is the event's ID and, sliced, its leaf matches' one-element
	// lineage.
	ids  [1]event.ID
	vs   temporal.Time
	leaf *leafMatch // nil: no leaf of the tree matches the event
}

// leafMatch is one leaf's match of an event, chained where several leaves
// share the event's type (SEQUENCE(A a, A a2)).
type leafMatch struct {
	keyedMatch
	by   *leafKind
	next *leafMatch
}

func (r *evRec) id() event.ID          { return r.ids[0] }
func (r *evRec) expiry() temporal.Time { return r.vs }

// matchBy is the match leaf kind k derives from r's event, if any.
func (r *evRec) matchBy(k *leafKind) *keyedMatch {
	for lm := r.leaf; lm != nil; lm = lm.next {
		if lm.by == k {
			return &lm.keyedMatch
		}
	}
	return nil
}

// recCache builds and interns event records, shared between an operator and
// its clones: the monitor's replay re-drives exactly the events the
// operator already saw, so a replayed Process reuses the first one's record
// — leaf matches, namespaced payloads and resolved keys included. Like
// every interning cache of the tree it is bounded by internCap and holds
// entries keyed by globally unique IDs: one ID, one event (a caller that
// reissues an ID gets the first event's record). A replay never reaches
// below the last checkpoint, so Op.Compact empties m, and with it the
// composite caches in combs; kinds lists the tree's leaves (build registers
// both; a tree has a handful).
type recCache struct {
	m     map[event.ID]*evRec
	kinds []*leafKind
	combs []*combCache
}

// newRecCache sizes kinds for a typical tree in one allocation: queries are
// registered by the thousand, and a cache is built with each.
func newRecCache() *recCache { return &recCache{kinds: make([]*leafKind, 0, 4)} }

func (c *recCache) of(e *event.Event) *evRec {
	if r := c.m[e.ID]; r != nil {
		return r
	}
	var r *evRec
	var lm *leafMatch
	kinds := c.kinds
	if e.Kind != event.Insert {
		kinds = nil // the only kind a leaf matches
	}
	for _, k := range kinds {
		if k.typ != e.Type {
			continue
		}
		if r == nil {
			first := &struct {
				evRec
				lm leafMatch
			}{evRec: evRec{ids: [1]event.ID{e.ID}, vs: e.V.Start}}
			r, lm = &first.evRec, &first.lm
			r.leaf = lm
		} else {
			lm.next = &leafMatch{}
			lm = lm.next
		}
		lm.by = k
		k.derive(&lm.keyedMatch, e, r.ids[:])
	}
	if r == nil {
		// Nothing derived, nothing a replay could reuse: not interned.
		return &evRec{ids: [1]event.ID{e.ID}, vs: e.V.Start}
	}
	if c.m == nil {
		c.m = map[event.ID]*evRec{}
	} else if len(c.m) >= internCap {
		clear(c.m)
	}
	c.m[e.ID] = r
	return r
}

// expiring is what an expiry queue orders its entries by.
type expiring interface {
	expiry() temporal.Time
}

// expiryQueue is how a store forgets in O(expired): its entries in expiry
// order (ties in insertion order), appended at the tail on the aligned
// common path — input reaches the operator mostly sorted — with a binary
// insert for a misaligned straggler, and popped from the head while the head
// lies below the horizon. The queue never learns that its store dropped or
// replaced an entry: such entries go stale in place and the store's owner
// skips them when they pop (it re-checks every popped entry against the
// store, by ID and occurrence time — never by pointer).
//
// Rollback: a pop only advances head, so un-popping is restoring head, and
// under the journal's strict LIFO an insert is undone by its index. Indexes
// are absolute (off counts the slots reclaimed so far), so records stay
// valid when Compact reclaims the popped prefix that no retained version can
// reach any more. With the journal off nothing can un-pop, and expire
// reclaims on its own.
type expiryQueue[T expiring] struct {
	es   []T
	head int // es[:head] are popped
	off  int // slots reclaimed so far: absolute index = off + slice index

	// visited counts the entries the expiry loop has examined, for the
	// operation-count test that pins expiry at O(expired).
	visited int
}

func (q *expiryQueue[T]) push(e T, u *undoLog) {
	i := len(q.es)
	if t := e.expiry(); i > q.head && q.es[i-1].expiry() > t {
		live := q.es[q.head:]
		i = q.head + sort.Search(len(live), func(j int) bool { return live[j].expiry() > t })
	}
	q.es = slices.Insert(q.es, i, e)
	u.queuePush(q, q.off+i)
}

// expire pops every entry below horizon, oldest first, and returns the
// popped run — a view into the queue, valid until its next call.
func (q *expiryQueue[T]) expire(horizon temporal.Time, u *undoLog) []T {
	if !u.On() {
		q.reclaim(q.off + q.head)
	}
	h := q.head
	for q.head < len(q.es) && q.es[q.head].expiry() < horizon {
		q.head++
	}
	q.visited += q.head - h
	if q.head > h {
		u.queuePop(q, q.off+h, q.off+q.head)
	}
	return q.es[h:q.head]
}

// reclaim drops the popped slots below absolute index to, once they are at
// least half the queue (so the copy amortizes over the pops that made them).
func (q *expiryQueue[T]) reclaim(to int) {
	n := min(to-q.off, q.head)
	if n < 32 || 2*n < len(q.es) {
		return
	}
	kept := copy(q.es, q.es[n:])
	clear(q.es[kept:])
	q.es = q.es[:kept]
	q.head -= n
	q.off += n
}

// unpush and unpop are the journal's inverses of push and expire.
func (q *expiryQueue[T]) unpush(i int) { q.es = slices.Delete(q.es, i-q.off, i-q.off+1) }

func (q *expiryQueue[T]) unpop(head int) { q.head = head - q.off }

// clone copies the unpopped entries.
func (q *expiryQueue[T]) clone() expiryQueue[T] {
	return expiryQueue[T]{es: slices.Clone(q.es[q.head:]), visited: q.visited}
}
