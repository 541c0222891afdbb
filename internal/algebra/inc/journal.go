package inc

import (
	"slices"

	"repro/internal/event"
	"repro/internal/operators"
	"repro/internal/temporal"
)

// The matcher's undo records: what Op journals into operators.Journal, the
// one undo log behind every journaling operator's Versioned implementation.
// While journaling is on, every mutation of the operator's durable state —
// the stores and pending list on the Op itself and the join/candidate/blocker
// state inside the matcher tree — first appends an exact inverse record; a
// Mark snapshots the Op's scalars, Rollback undoes records LIFO back to it
// and restores the snapshot, and Compact drops the history below it. This is
// what turns the consistency monitor's snapshots into near-free version
// handles and its repair into an O(mutations since) rewind instead of
// clone-and-replay.
//
// What is journaled and what is provably safe to skip:
//
//   - Every map/store/list mutation is journaled with an exact inverse
//     (the prior reference + existence for map keys, the removed/inserted
//     reference for sorted lists, index-based records — sound under strict
//     LIFO — for the pending list, the ATMOST entry array and the expiry
//     queues, whose pops are one record per run: the head they started at).
//   - Op scalars (frontier, mature fast-path state) are NOT journaled per
//     mutation: a Mark snapshots all of them (opScalars), and Rollback
//     restores the mark's copy wholesale.
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
// A record carries what it must remember inline: matches and event records
// by reference (they are immutable and interned), so a record costs a
// pointer, not a copy, and appending one allocates nothing beyond the
// journal's amortized growth (a reset's record: its one resetState).
type undoLog struct {
	operators.Journal[undoRec, opScalars]
}

// undoRec is one inverse record, 56 B. The kind decides which fields are
// live; node holds the mutated container (a map, a *keyedList, an expiry
// queue, the owning node or, for a reset, the *resetState) as an interface
// over a pointer-shaped value. A record has no time field: a time rides in
// whichever of i and id the kind leaves free (a candidate's lo in id, a time
// map's old value in i). The routing key a keyed store filed a match or
// candidate under is re-derived from the match's own key on undo.
type undoRec struct {
	kind uint8
	flag bool
	i    int
	id   event.ID
	node any
	km   *keyedMatch
	ev   *evRec
}

const (
	jRecMap    uint8 = iota // map[ID]*evRec set/delete; flag=existed; ev=old
	jTimeMap                // map[ID]Time set/delete; flag=existed; i=old
	jIntMap                 // map[ID]int set/delete; flag=existed; i=old
	jMatchMap               // map[ID]*keyedMatch set/delete; flag=existed; km=old
	jListIns                // keyedList.insert of km
	jListDel                // keyedList.remove (successful) of km
	jPendIns                // pendingList.insertAt(i)
	jPendDel                // pendingList.removeAt(i) of km
	jPendSet                // pendingList.ms[i] overwrite; km=old
	jAmIns                  // atMost entries insert at i
	jAmDel                  // atMost entries remove at i of (km, cnt=id)
	jAmCnt                  // atMost entries[i].cnt += delta; flag = delta>0
	jCandAdd                // negNode.candAdd of (a=km, lo=id)
	jCandDel                // negNode.candRemove (successful) of (a=km, lo=id, blockers=i)
	jBlock                  // blockers of (a=km, lo=id) += delta; flag = delta>0
	jQueuePush              // expiryQueue.push at absolute index i
	jQueuePop               // expiryQueue.expire run; i=old head, id=new head (absolute)
	jReset                  // Advance(∞) full reset; node=*resetState
)

// undoQueue is the journal's view of an expiry queue of either entry type.
type undoQueue interface {
	unpush(i int)
	unpop(head int)
	reclaim(to int)
}

// opScalars is the Op state a Mark snapshots instead of journaling.
type opScalars struct {
	frontier temporal.Time

	// Emission fast path: mature only runs a commit pass when a pending
	// match could actually emit. minAddFin tracks the earliest FinalizeAt
	// added since the last pass; minFutureFin the earliest pending
	// FinalizeAt beyond the frontier as of the last pass; dirty forces a
	// pass after retractions, prunes and revivals, which can make
	// previously suppressed (selection-losing or consume-blocked) matches
	// emittable — the oracle re-derives and re-selects every time, so those
	// late emissions are part of its contract.
	minAddFin    temporal.Time
	minFutureFin temporal.Time
	dirty        bool
	// stable: pending entries below this index form whole detection groups
	// already committed by a previous pass and untouched since; under
	// reuse consumption a pass starts there (selection is deterministic on
	// group content, so unchanged groups can emit nothing new). Any
	// insertion or deletion below the boundary resets it. Consume mode
	// always walks from 0: its consumed-set threads across groups.
	stable int
}

// resetState is what a jReset record restores: the wholesale-replaced
// containers of an Advance(∞) reset.
type resetState struct {
	p        *Op
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
// single predictable branch while off (every standalone operator).

func (u *undoLog) recMap(m map[event.ID]*evRec, id event.ID) {
	if u.On() {
		old, existed := m[id]
		u.Add(undoRec{kind: jRecMap, flag: existed, id: id, node: m, ev: old})
	}
}

// recMapKnown is recMap for call sites that already hold the entry from a
// lookup they performed anyway, spared the duplicate map access.
func (u *undoLog) recMapKnown(m map[event.ID]*evRec, id event.ID, old *evRec) {
	if u.On() {
		u.Add(undoRec{kind: jRecMap, flag: true, id: id, node: m, ev: old})
	}
}

func (u *undoLog) timeMap(m map[event.ID]temporal.Time, id event.ID) {
	if u.On() {
		old, existed := m[id]
		u.Add(undoRec{kind: jTimeMap, flag: existed, i: int(old), id: id, node: m})
	}
}

func (u *undoLog) intMap(m map[event.ID]int, id event.ID) {
	if u.On() {
		old, existed := m[id]
		u.Add(undoRec{kind: jIntMap, flag: existed, id: id, i: old, node: m})
	}
}

func (u *undoLog) matchMap(m map[event.ID]*keyedMatch, id event.ID) {
	if u.On() {
		old, existed := m[id]
		u.Add(undoRec{kind: jMatchMap, flag: existed, id: id, node: m, km: old})
	}
}

// matchMapKnown is matchMap for a caller that already holds the entry.
func (u *undoLog) matchMapKnown(m map[event.ID]*keyedMatch, id event.ID, old *keyedMatch) {
	if u.On() {
		u.Add(undoRec{kind: jMatchMap, flag: true, id: id, node: m, km: old})
	}
}

func (u *undoLog) listIns(l *keyedList, km *keyedMatch) {
	if u.On() {
		u.Add(undoRec{kind: jListIns, node: l, km: km})
	}
}

func (u *undoLog) listDel(l *keyedList, km *keyedMatch) {
	if u.On() {
		u.Add(undoRec{kind: jListDel, node: l, km: km})
	}
}

func (u *undoLog) pendIns(l *pendingList, i int) {
	if u.On() {
		u.Add(undoRec{kind: jPendIns, i: i, node: l})
	}
}

func (u *undoLog) pendDel(l *pendingList, i int) {
	if u.On() {
		u.Add(undoRec{kind: jPendDel, i: i, node: l, km: l.ms[i]})
	}
}

func (u *undoLog) pendSet(l *pendingList, i int) {
	if u.On() {
		u.Add(undoRec{kind: jPendSet, i: i, node: l, km: l.ms[i]})
	}
}

func (u *undoLog) amIns(n *atMostNode, i int) {
	if u.On() {
		u.Add(undoRec{kind: jAmIns, i: i, node: n})
	}
}

func (u *undoLog) amDel(n *atMostNode, i int, e amEntry) {
	if u.On() {
		u.Add(undoRec{kind: jAmDel, i: i, id: event.ID(e.cnt), node: n, km: e.km})
	}
}

func (u *undoLog) amCnt(n *atMostNode, i int, inc bool) {
	if u.On() {
		u.Add(undoRec{kind: jAmCnt, i: i, flag: inc, node: n})
	}
}

func (u *undoLog) candAdd(n *negNode, c *negCand) {
	if u.On() {
		u.Add(undoRec{kind: jCandAdd, id: event.ID(c.lo), node: n, km: c.a})
	}
}

func (u *undoLog) candDel(n *negNode, c *negCand) {
	if u.On() {
		u.Add(undoRec{kind: jCandDel, i: c.blockers, id: event.ID(c.lo), node: n, km: c.a})
	}
}

// block journals a blocker-count change of c, re-locatable by its positive
// match and lo (never store a *negCand — the slice backing reallocates).
func (u *undoLog) block(n *negNode, c *negCand, inc bool) {
	if u.On() {
		u.Add(undoRec{kind: jBlock, id: event.ID(c.lo), flag: inc, node: n, km: c.a})
	}
}

func (u *undoLog) queuePush(q undoQueue, i int) {
	if u.On() {
		u.Add(undoRec{kind: jQueuePush, i: i, node: q})
	}
}

func (u *undoLog) queuePop(q undoQueue, from, to int) {
	if u.On() {
		u.Add(undoRec{kind: jQueuePop, i: from, id: event.ID(to), node: q})
	}
}

func (u *undoLog) reset(p *Op) {
	if u.On() {
		u.Add(undoRec{kind: jReset, node: &resetState{
			p: p, sh: p.sh, root: p.root, store: p.store, consumed: p.consumed, expiry: p.expiry,
			pending: p.pending.ms,
		}})
	}
}

// Release implements operators.Record: a dropped expiry-queue pop can no
// longer be undone, so the queue may reclaim the slots it popped.
func (r undoRec) Release() {
	if r.kind == jQueuePop {
		r.node.(undoQueue).reclaim(int(r.id))
	}
}

// Undo implements operators.Record.
func (r undoRec) Undo() {
	switch r.kind {
	case jRecMap:
		m := r.node.(map[event.ID]*evRec)
		if r.flag {
			m[r.id] = r.ev
		} else {
			delete(m, r.id)
		}
	case jTimeMap:
		m := r.node.(map[event.ID]temporal.Time)
		if r.flag {
			m[r.id] = temporal.Time(r.i)
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
			m[r.id] = r.km
		} else {
			delete(m, r.id)
		}
	case jListIns:
		r.node.(*keyedList).remove(r.km)
	case jListDel:
		r.node.(*keyedList).insert(r.km)
	case jPendIns:
		r.node.(*pendingList).removeAt(r.i)
	case jPendDel:
		r.node.(*pendingList).insertAt(r.i, r.km)
	case jPendSet:
		r.node.(*pendingList).ms[r.i] = r.km
	case jAmIns:
		n := r.node.(*atMostNode)
		n.entries = slices.Delete(n.entries, r.i, r.i+1)
	case jAmDel:
		n := r.node.(*atMostNode)
		n.entries = slices.Insert(n.entries, r.i, amEntry{km: r.km, cnt: int(r.id)})
	case jAmCnt:
		n := r.node.(*atMostNode)
		if r.flag {
			n.entries[r.i].cnt--
		} else {
			n.entries[r.i].cnt++
		}
	case jCandAdd:
		n := r.node.(*negNode)
		n.candRemove(temporal.Time(r.id), r.km.m.ID, route(n.keyed, r.km.pe.key))
	case jCandDel:
		r.node.(*negNode).candAdd(negCand{a: r.km, lo: temporal.Time(r.id), blockers: r.i})
	case jBlock:
		n := r.node.(*negNode)
		cs := n.wcands
		if k := route(n.keyed, r.km.pe.key); k.Def() {
			cs = n.kcands[k]
		}
		if i := candFind(cs, temporal.Time(r.id), r.km.m.ID); i >= 0 {
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
		rs := r.node.(*resetState)
		p := rs.p
		p.sh = rs.sh
		p.root = rs.root
		p.store = rs.store
		p.consumed = rs.consumed
		p.expiry = rs.expiry
		p.pending = pendingList{ms: rs.pending}
	}
}
