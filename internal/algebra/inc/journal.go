package inc

import (
	"slices"

	"repro/internal/event"
	"repro/internal/temporal"
)

// The undo journal: the mechanism behind Op's operators.Versioned
// implementation. While journaling is on, every mutation of the operator's
// durable state — the stores and pending list on the Op itself and the
// join/candidate/blocker state inside the matcher tree — first appends an
// exact inverse record. Mark() is then an O(1) barrier append, Rollback(v)
// pops and undoes records LIFO back to the barrier, and Compact(v) drops
// the history below it. This is what turns the consistency monitor's
// snapshots into near-free version handles and its repair into an
// O(mutations since) rewind instead of clone-and-replay.
//
// What is journaled and what is provably safe to skip:
//
//   - Every map/store/list mutation is journaled with an exact inverse
//     (the prior reference + existence for map keys, the removed/inserted
//     reference for sorted lists, index-based records — sound under strict
//     LIFO — for the pending list, the ATMOST entry array and the expiry
//     queues, whose pops are one record per run: the head they started at).
//   - Op scalars (frontier, mature fast-path state) are NOT journaled per
//     mutation: a barrier snapshots all of them, and Rollback restores the
//     barrier's copy wholesale.
//   - The interning caches (event records, composites, leaf matches, the
//     re-headed forms memoized on a match — filled once, in the slot the
//     composite reserved or a new one — the payload table) are never
//     journaled: entries are immutable values keyed by globally unique IDs
//     (the payload table: by verified content), so a post-rollback
//     re-derivation that hits an entry surviving from the undone future
//     gets the byte-identical match it would have rebuilt — and one that
//     misses (a cache reset) builds an equal match at another address,
//     which is why nothing here compares references.
//   - Join nodes keep no dependents index: a retraction re-enumerates its
//     composites over the journaled lists (sequence.go).
//   - negNode.maxSpan is never journaled: it only widens, and a
//     stale-too-wide span merely starts the candidate scan earlier — every
//     visited candidate is still filtered exactly.
//   - Scratch buffers (deltas, selection/commit scratch) are not state.
//
// Allocation discipline: records go into one flat spine slice; what a
// record must remember beyond its scalars — a match or event-record
// reference, a candidate, an ATMOST entry — goes into typed side stacks
// popped in the same LIFO order the spine is undone in. Matches and events are
// held by reference (they are immutable and interned), so a record costs a
// pointer, not a copy; the steady state appends into amortized-reused
// backing arrays and the journaling cost per mutation is O(1) with no
// per-record boxing beyond the two interface words the spine record
// already carries.
//
// Slot hygiene: every shrink of the spine, the run or a side stack (flush,
// rollback, compact) zeroes the slots it gives up, which would otherwise keep
// their records' nodes and matches — past Advance(∞), the old tree — alive.
type undoLog struct {
	on   bool
	base uint64    // absolute position of recs[0]
	recs []undoRec // the spine, in mutation order

	// run stages the records of the open delta commit: appenders write
	// here, and the Op's mutation entry points (Process/Advance/remove)
	// flush the whole run onto the spine in one grown append per commit.
	// Keeping the per-mutation appends off the big spine keeps the hot
	// tree paths writing into one small, cache-resident buffer; the spine
	// only sees batch-granular growth. Mark/Rollback/Compact flush
	// defensively, so spine positions are always computed on a drained run.
	run []undoRec

	// Side payload stacks, LIFO-paired with the spine records that use them.
	ms   []*keyedMatch
	evs  []*evRec
	cs   []negCand
	ams  []amEntry
	scal []opScalars
	rsts []resetState

	// Absolute bottom positions of the payload stacks and of scal: how many
	// entries compact has dropped from each. Together with the per-barrier
	// top positions recorded at mark time they make compact's payload
	// accounting O(1) instead of a per-record scan of the dropped prefix.
	msDrop, evsDrop, csDrop, amsDrop, rstsDrop, scalDrop uint64
}

// undoRec is one spine record. The kind decides which fields are live; node
// holds the mutated container (a map, a *keyedList, an expiry queue or the
// owning node) as an interface over a pointer-shaped value, so appending a
// record never allocates. The routing key a keyed store filed a match or
// candidate under is re-derived from the match's own key on undo.
type undoRec struct {
	kind uint8
	flag bool
	i    int
	id   event.ID
	t    temporal.Time
	node any
}

const (
	jBarrier   uint8 = iota // a Mark point; payload: scal
	jRecMap                 // map[ID]*evRec set/delete; flag=existed; payload evs if existed
	jTimeMap                // map[ID]Time set/delete; flag=existed; t=old
	jIntMap                 // map[ID]int set/delete; flag=existed; i=old
	jMatchMap               // map[ID]*keyedMatch set/delete; flag=existed; payload ms if existed
	jListIns                // keyedList.insert; payload ms
	jListDel                // keyedList.remove (successful); payload ms
	jPendIns                // pendingList.insertAt(i)
	jPendDel                // pendingList.removeAt(i); payload ms
	jPendSet                // pendingList.ms[i] overwrite; payload ms (old)
	jAmIns                  // atMost entries insert at i
	jAmDel                  // atMost entries remove at i; payload ams
	jAmCnt                  // atMost entries[i].cnt += delta; flag = delta>0
	jCandAdd                // negNode.candAdd; t=lo; payload ms (the positive match)
	jCandDel                // negNode.candRemove (successful); payload cs
	jBlock                  // negCand.blockers += delta; t=lo; flag = delta>0; payload ms (the positive match)
	jQueuePush              // expiryQueue.push at absolute index i
	jQueuePop               // expiryQueue.expire run; i=old head, id=new head (absolute)
	jReset                  // Advance(∞) full reset; payload rsts
)

// undoQueue is the journal's view of an expiry queue of either entry type.
type undoQueue interface {
	unpush(i int)
	unpop(head int)
	reclaim(to int)
}

// opScalars is the barrier payload: every Op scalar Rollback restores
// wholesale, plus the absolute top positions of the payload stacks at mark
// time — the spine prefix below the barrier owns exactly the stack
// segments below these positions, which is all compact needs to know.
type opScalars struct {
	frontier     temporal.Time
	minAddFin    temporal.Time
	minFutureFin temporal.Time
	dirty        bool
	stable       int

	nMs, nEvs, nCs, nAms, nRsts uint64
}

// resetState is the jReset payload: the wholesale-replaced containers of an
// Advance(∞) reset.
type resetState struct {
	sh       *shared
	root     node
	store    map[event.ID]*evRec
	consumed map[event.ID]*evRec
	expiry   *expiryQueue[*evRec]
	pending  []*keyedMatch
}

// ---- record appenders ----
//
// Each is a thin inlinable guard over a slow path, so the journal costs a
// single predictable branch while off (the legacy clone-driven paths and
// every standalone operator).

func (u *undoLog) recMap(m map[event.ID]*evRec, id event.ID) {
	if u.on {
		old, existed := m[id]
		u.recMapSlow(m, id, old, existed)
	}
}

// recMapKnown is recMap for call sites that already hold the entry from a
// lookup they performed anyway, spared the duplicate map access.
func (u *undoLog) recMapKnown(m map[event.ID]*evRec, id event.ID, old *evRec) {
	if u.on {
		u.recMapSlow(m, id, old, true)
	}
}

func (u *undoLog) recMapSlow(m map[event.ID]*evRec, id event.ID, old *evRec, existed bool) {
	if existed {
		u.evs = append(u.evs, old)
	}
	u.run = append(u.run, undoRec{kind: jRecMap, flag: existed, id: id, node: m})
}

func (u *undoLog) timeMap(m map[event.ID]temporal.Time, id event.ID) {
	if u.on {
		u.timeMapSlow(m, id)
	}
}

func (u *undoLog) timeMapSlow(m map[event.ID]temporal.Time, id event.ID) {
	old, existed := m[id]
	u.run = append(u.run, undoRec{kind: jTimeMap, flag: existed, id: id, t: old, node: m})
}

func (u *undoLog) intMap(m map[event.ID]int, id event.ID) {
	if u.on {
		u.intMapSlow(m, id)
	}
}

func (u *undoLog) intMapSlow(m map[event.ID]int, id event.ID) {
	old, existed := m[id]
	u.run = append(u.run, undoRec{kind: jIntMap, flag: existed, id: id, i: old, node: m})
}

func (u *undoLog) matchMap(m map[event.ID]*keyedMatch, id event.ID) {
	if u.on {
		old, existed := m[id]
		u.matchMapSlow(m, id, old, existed)
	}
}

// matchMapKnown is matchMap for a caller that already holds the entry.
func (u *undoLog) matchMapKnown(m map[event.ID]*keyedMatch, id event.ID, old *keyedMatch) {
	if u.on {
		u.matchMapSlow(m, id, old, true)
	}
}

func (u *undoLog) matchMapSlow(m map[event.ID]*keyedMatch, id event.ID, old *keyedMatch, existed bool) {
	if existed {
		u.ms = append(u.ms, old)
	}
	u.run = append(u.run, undoRec{kind: jMatchMap, flag: existed, id: id, node: m})
}

func (u *undoLog) listIns(l *keyedList, km *keyedMatch) {
	if u.on {
		u.matchRec(undoRec{kind: jListIns, node: l}, km)
	}
}

func (u *undoLog) listDel(l *keyedList, km *keyedMatch) {
	if u.on {
		u.matchRec(undoRec{kind: jListDel, node: l}, km)
	}
}

// matchRec appends r with km as its ms payload.
func (u *undoLog) matchRec(r undoRec, km *keyedMatch) {
	u.ms = append(u.ms, km)
	u.run = append(u.run, r)
}

func (u *undoLog) pendIns(l *pendingList, i int) {
	if u.on {
		u.run = append(u.run, undoRec{kind: jPendIns, i: i, node: l})
	}
}

func (u *undoLog) pendDel(l *pendingList, i int) {
	if u.on {
		u.pendSlow(jPendDel, l, i)
	}
}

func (u *undoLog) pendSet(l *pendingList, i int) {
	if u.on {
		u.pendSlow(jPendSet, l, i)
	}
}

func (u *undoLog) pendSlow(kind uint8, l *pendingList, i int) {
	u.matchRec(undoRec{kind: kind, i: i, node: l}, l.ms[i])
}

func (u *undoLog) amIns(n *atMostNode, i int) {
	if u.on {
		u.run = append(u.run, undoRec{kind: jAmIns, i: i, node: n})
	}
}

func (u *undoLog) amDel(n *atMostNode, i int, e amEntry) {
	if u.on {
		u.amDelSlow(n, i, e)
	}
}

func (u *undoLog) amDelSlow(n *atMostNode, i int, e amEntry) {
	u.ams = append(u.ams, e)
	u.run = append(u.run, undoRec{kind: jAmDel, i: i, node: n})
}

func (u *undoLog) amCnt(n *atMostNode, i int, inc bool) {
	if u.on {
		u.run = append(u.run, undoRec{kind: jAmCnt, i: i, flag: inc, node: n})
	}
}

func (u *undoLog) candAdd(n *negNode, c *negCand) {
	if u.on {
		u.matchRec(undoRec{kind: jCandAdd, t: c.lo, node: n}, c.a)
	}
}

func (u *undoLog) candDel(n *negNode, c *negCand) {
	if u.on {
		u.cs = append(u.cs, *c)
		u.run = append(u.run, undoRec{kind: jCandDel, node: n})
	}
}

// block journals a blocker-count change of c, re-locatable by its positive
// match and lo (never store a *negCand — the slice backing reallocates).
func (u *undoLog) block(n *negNode, c *negCand, inc bool) {
	if u.on {
		u.matchRec(undoRec{kind: jBlock, t: c.lo, flag: inc, node: n}, c.a)
	}
}

func (u *undoLog) queuePush(q undoQueue, i int) {
	if u.on {
		u.run = append(u.run, undoRec{kind: jQueuePush, i: i, node: q})
	}
}

func (u *undoLog) queuePop(q undoQueue, from, to int) {
	if u.on {
		u.run = append(u.run, undoRec{kind: jQueuePop, i: from, id: event.ID(to), node: q})
	}
}

func (u *undoLog) reset(p *Op) {
	if u.on {
		u.resetSlow(p)
	}
}

func (u *undoLog) resetSlow(p *Op) {
	u.rsts = append(u.rsts, resetState{
		sh: p.sh, root: p.root, store: p.store, consumed: p.consumed, expiry: p.expiry,
		pending: p.pending.ms,
	})
	u.run = append(u.run, undoRec{kind: jReset, node: p})
}

// ---- barrier / rollback / compact ----

// flush drains the staged run onto the spine. The Op calls it once per
// mutation entry point (delta commit); mark, rollbackTo and compact call
// it defensively so every spine position is computed on a drained run.
func (u *undoLog) flush() {
	if len(u.run) > 0 {
		u.recs = append(u.recs, u.run...)
		clear(u.run)
		u.run = u.run[:0]
	}
}

// mark snapshots the Op scalars and appends a barrier, returning the
// absolute spine position just past it. Journaling turns on at the first
// mark.
func (u *undoLog) mark(p *Op) uint64 {
	u.on = true
	u.flush()
	u.scal = append(u.scal, opScalars{
		frontier:     p.frontier,
		minAddFin:    p.minAddFin,
		minFutureFin: p.minFutureFin,
		dirty:        p.dirty,
		stable:       p.stable,

		nMs:   u.msDrop + uint64(len(u.ms)),
		nEvs:  u.evsDrop + uint64(len(u.evs)),
		nCs:   u.csDrop + uint64(len(u.cs)),
		nAms:  u.amsDrop + uint64(len(u.ams)),
		nRsts: u.rstsDrop + uint64(len(u.rsts)),
	})
	// The barrier record remembers its scal entry's absolute index, so
	// compact can find the recorded stack positions without counting the
	// barriers below it.
	u.recs = append(u.recs, undoRec{kind: jBarrier, i: int(u.scalDrop) + len(u.scal) - 1})
	return u.base + uint64(len(u.recs))
}

// rollbackTo undoes records LIFO down to absolute position pos (which must
// sit just past a barrier), then restores the Op scalars from that barrier.
// The barrier itself is peeked, not popped, so the same position can be
// rolled back to again.
func (u *undoLog) rollbackTo(pos uint64, p *Op) bool {
	u.flush()
	if pos < u.base+1 || pos > u.base+uint64(len(u.recs)) {
		return false
	}
	tgt := int(pos - u.base)
	if u.recs[tgt-1].kind != jBarrier {
		return false
	}
	for n := len(u.recs); n > tgt; n-- {
		u.undo(&u.recs[n-1])
	}
	clear(u.recs[tgt:])
	u.recs = u.recs[:tgt]
	// The barrier's payload is now the scal top: every scal entry pushed
	// after it belonged to a later (now undone) barrier.
	s := &u.scal[len(u.scal)-1]
	p.frontier = s.frontier
	p.minAddFin = s.minAddFin
	p.minFutureFin = s.minFutureFin
	p.dirty = s.dirty
	p.stable = s.stable
	return true
}

// compact drops the spine and payload prefixes strictly below the barrier
// of absolute position pos, keeping the barrier itself so pos stays a valid
// rollback target, and lets the expiry queues reclaim the slots whose pops
// no retained version can undo any more. Cost is O(dropped), which the
// caller amortizes over the mutations that created the dropped records.
func (u *undoLog) compact(pos uint64) {
	u.flush()
	if pos < u.base+1 || pos > u.base+uint64(len(u.recs)) {
		return
	}
	bar := int(pos-u.base) - 1
	if bar <= 0 || u.recs[bar].kind != jBarrier {
		return
	}
	for i := range u.recs[:bar] {
		if r := &u.recs[i]; r.kind == jQueuePop {
			r.node.(undoQueue).reclaim(int(r.id))
		}
	}
	// The barrier's scal entry recorded the absolute stack-top positions at
	// mark time; the dropped prefix owns exactly the stack segments below
	// them, so the payload accounting is O(1) — no per-record scan.
	s := &u.scal[u.recs[bar].i-int(u.scalDrop)]
	dMs := int(s.nMs - u.msDrop)
	dEvs := int(s.nEvs - u.evsDrop)
	dCs := int(s.nCs - u.csDrop)
	dAms := int(s.nAms - u.amsDrop)
	dRsts := int(s.nRsts - u.rstsDrop)
	bars := u.recs[bar].i - int(u.scalDrop)
	u.recs = shiftDown(u.recs, bar)
	u.base += uint64(bar)
	u.ms = shiftDown(u.ms, dMs)
	u.evs = shiftDown(u.evs, dEvs)
	u.cs = shiftDown(u.cs, dCs)
	u.ams = shiftDown(u.ams, dAms)
	u.rsts = shiftDown(u.rsts, dRsts)
	u.scal = shiftDown(u.scal, bars)
	u.msDrop += uint64(dMs)
	u.evsDrop += uint64(dEvs)
	u.csDrop += uint64(dCs)
	u.amsDrop += uint64(dAms)
	u.rstsDrop += uint64(dRsts)
	u.scalDrop += uint64(bars)
}

// shiftDown drops s's first d elements, zeroing the slots the shift vacates.
func shiftDown[T any](s []T, d int) []T {
	n := copy(s, s[d:])
	clear(s[n:])
	return s[:n]
}

// pop removes and returns the top of a side stack, zeroing its slot.
func pop[T any](s *[]T) T {
	n := len(*s) - 1
	v := (*s)[n]
	clear((*s)[n:])
	*s = (*s)[:n]
	return v
}

// undo reverses one record, popping its payloads.
func (u *undoLog) undo(r *undoRec) {
	switch r.kind {
	case jBarrier:
		pop(&u.scal)
	case jRecMap:
		m := r.node.(map[event.ID]*evRec)
		if r.flag {
			m[r.id] = pop(&u.evs)
		} else {
			delete(m, r.id)
		}
	case jTimeMap:
		m := r.node.(map[event.ID]temporal.Time)
		if r.flag {
			m[r.id] = r.t
		} else {
			delete(m, r.id)
		}
	case jIntMap:
		m := r.node.(map[event.ID]int)
		if r.flag {
			m[r.id] = r.i
		} else {
			delete(m, r.id)
		}
	case jMatchMap:
		m := r.node.(map[event.ID]*keyedMatch)
		if r.flag {
			m[r.id] = pop(&u.ms)
		} else {
			delete(m, r.id)
		}
	case jListIns:
		r.node.(*keyedList).remove(pop(&u.ms))
	case jListDel:
		r.node.(*keyedList).insert(pop(&u.ms))
	case jPendIns:
		r.node.(*pendingList).removeAt(r.i)
	case jPendDel:
		r.node.(*pendingList).insertAt(r.i, pop(&u.ms))
	case jPendSet:
		r.node.(*pendingList).ms[r.i] = pop(&u.ms)
	case jAmIns:
		n := r.node.(*atMostNode)
		n.entries = slices.Delete(n.entries, r.i, r.i+1)
	case jAmDel:
		n := r.node.(*atMostNode)
		n.entries = slices.Insert(n.entries, r.i, pop(&u.ams))
	case jAmCnt:
		n := r.node.(*atMostNode)
		if r.flag {
			n.entries[r.i].cnt--
		} else {
			n.entries[r.i].cnt++
		}
	case jCandAdd:
		n := r.node.(*negNode)
		a := pop(&u.ms)
		n.candRemove(r.t, a.m.ID, route(n.keyed, a.key))
	case jCandDel:
		r.node.(*negNode).candAdd(pop(&u.cs))
	case jBlock:
		n := r.node.(*negNode)
		a := pop(&u.ms)
		cs := n.wcands
		if k := route(n.keyed, a.key); k.def() {
			cs = n.kcands[k]
		}
		if i := candFind(cs, r.t, a.m.ID); i >= 0 {
			if r.flag {
				cs[i].blockers--
			} else {
				cs[i].blockers++
			}
		}
	case jQueuePush:
		r.node.(undoQueue).unpush(r.i)
	case jQueuePop:
		r.node.(undoQueue).unpop(r.i)
	case jReset:
		p := r.node.(*Op)
		rs := pop(&u.rsts)
		p.sh = rs.sh
		p.root = rs.root
		p.store = rs.store
		p.consumed = rs.consumed
		p.expiry = rs.expiry
		p.pending = pendingList{ms: rs.pending}
	}
}
