package inc

import (
	"repro/internal/algebra"
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
//     (prior value + existence for map keys, the removed/inserted value
//     for sorted lists, index-based records — sound under strict LIFO —
//     for the pending list and the ATMOST entry array).
//   - Op scalars (frontier, watermarks, mature fast-path state) are NOT
//     journaled per mutation: a barrier snapshots all of them, and
//     Rollback restores the barrier's copy wholesale.
//   - The interning caches (combCache entries, leaf payload interning) are
//     never journaled: entries are immutable values keyed by globally
//     unique IDs, so a post-rollback re-derivation that hits a cache entry
//     surviving from the undone future gets the byte-identical match it
//     would have rebuilt.
//   - negNode.maxSpan is never journaled: it only widens, and a
//     stale-too-wide span merely starts the candidate scan earlier — every
//     visited candidate is still filtered exactly.
//   - Scratch buffers (deltas, selection/commit scratch) are not state.
//
// Allocation discipline: records go into one flat spine slice; heavyweight
// payloads (matches, events, candidate structs, ID slices) go into typed
// side stacks popped in the same LIFO order the spine is undone in, so the
// steady state appends into amortized-reused backing arrays and the
// journaling cost per mutation is O(1) with no per-record boxing beyond
// the two interface words the spine record already carries.
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
	ms   []algebra.Match
	ks   []corrKey // routing keys of the keyed-store records (key.go)
	evs  []event.Event
	cs   []negCand
	ams  []amEntry
	idss [][]event.ID
	scal []opScalars
	rsts []resetState

	// Absolute bottom positions of the payload stacks and of scal: how many
	// entries compact has dropped from each. Together with the per-barrier
	// top positions recorded at mark time they make compact's payload
	// accounting O(1) instead of a per-record scan of the dropped prefix.
	msDrop, ksDrop, evsDrop, csDrop, amsDrop, idssDrop, rstsDrop, scalDrop uint64
}

// undoRec is one spine record. The kind decides which fields are live; node
// holds the mutated container (a map, a *keyedList, or the owning node) as
// an interface over a pointer-shaped value, so appending a record never
// allocates. The routing key a keyed-store mutation filed its match or
// candidate under (as carried by the delta item, key.go) rides the ks
// stack, so the other record kinds do not pay for it.
type undoRec struct {
	kind uint8
	flag bool
	i    int
	id   event.ID
	t    temporal.Time
	node any
}

const (
	jBarrier  uint8 = iota // a Mark point; payload: scal
	jEvMap                 // map[ID]Event set/delete; flag=existed; payload evs if existed
	jTimeMap               // map[ID]Time set/delete; flag=existed; t=old
	jIntMap                // map[ID]int set/delete; flag=existed; i=old
	jMatchMap              // map[ID]Match set/delete; flag=existed; payload ms if existed
	jListIns               // keyedList.insert; payload ms, ks
	jListDel               // keyedList.remove (successful); payload ms, ks
	jPendIns               // pendingList.insertAt(i)
	jPendDel               // pendingList.removeAt(i); payload ms
	jPendSet               // pendingList.ms[i] overwrite; payload ms (old)
	jUsesApp               // uses[id] append; flag=existed; i=old len
	jUsesDel               // delete(uses, id); payload idss
	jAmIns                 // atMost entries insert at i
	jAmDel                 // atMost entries remove at i; payload ams
	jAmCnt                 // atMost entries[i].cnt += delta; flag = delta>0
	jCandAdd               // negNode.candAdd; t=lo, id=a.ID; payload ks
	jCandDel               // negNode.candRemove (successful); payload cs
	jBlock                 // negCand.blockers += delta; t=lo, id=a.ID; flag = delta>0; payload ks
	jLeafMin               // leafNode.minVs assignment; t=old
	jReset                 // Advance(∞) full reset; payload rsts
)

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
	lowVs        temporal.Time
	lowEmit      temporal.Time

	nMs, nKs, nEvs, nCs, nAms, nIdss, nRsts uint64
}

// resetState is the jReset payload: the wholesale-replaced containers of an
// Advance(∞) reset.
type resetState struct {
	sh       *shared
	root     node
	store    map[event.ID]event.Event
	consumed map[event.ID]event.Event
	pending  []algebra.Match
}

// ---- record appenders ----
//
// Each is a thin inlinable guard over a slow path, so the journal costs a
// single predictable branch while off (the legacy clone-driven paths and
// every standalone operator).

func (u *undoLog) evMap(m map[event.ID]event.Event, id event.ID) {
	if u.on {
		u.evMapSlow(m, id)
	}
}

func (u *undoLog) evMapSlow(m map[event.ID]event.Event, id event.ID) {
	old, existed := m[id]
	if existed {
		u.evs = append(u.evs, old)
	}
	u.run = append(u.run, undoRec{kind: jEvMap, flag: existed, id: id, node: m})
}

// evMapKnown is evMap for call sites that already hold the entry from a
// lookup or iteration they performed anyway — the hottest appender on the
// consume/prune paths, spared its duplicate map access.
func (u *undoLog) evMapKnown(m map[event.ID]event.Event, id event.ID, old event.Event) {
	if u.on {
		u.evs = append(u.evs, old)
		u.run = append(u.run, undoRec{kind: jEvMap, flag: true, id: id, node: m})
	}
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

func (u *undoLog) matchMap(m map[event.ID]algebra.Match, id event.ID) {
	if u.on {
		u.matchMapSlow(m, id)
	}
}

func (u *undoLog) matchMapSlow(m map[event.ID]algebra.Match, id event.ID) {
	old, existed := m[id]
	if existed {
		u.ms = append(u.ms, old)
	}
	u.run = append(u.run, undoRec{kind: jMatchMap, flag: existed, id: id, node: m})
}

func (u *undoLog) listIns(l *keyedList, m *algebra.Match, k corrKey) {
	if u.on {
		u.listSlow(jListIns, l, m, k)
	}
}

func (u *undoLog) listDel(l *keyedList, m *algebra.Match, k corrKey) {
	if u.on {
		u.listSlow(jListDel, l, m, k)
	}
}

func (u *undoLog) listSlow(kind uint8, l *keyedList, m *algebra.Match, k corrKey) {
	u.ms = append(u.ms, *m)
	u.ks = append(u.ks, k)
	u.run = append(u.run, undoRec{kind: kind, node: l})
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
	u.ms = append(u.ms, l.ms[i])
	u.run = append(u.run, undoRec{kind: kind, i: i, node: l})
}

func (u *undoLog) usesApp(m map[event.ID][]event.ID, id event.ID) {
	if u.on {
		u.usesAppSlow(m, id)
	}
}

func (u *undoLog) usesAppSlow(m map[event.ID][]event.ID, id event.ID) {
	old, existed := m[id]
	u.run = append(u.run, undoRec{kind: jUsesApp, flag: existed, i: len(old), id: id, node: m})
}

func (u *undoLog) usesDel(m map[event.ID][]event.ID, id event.ID) {
	if u.on {
		u.usesDelSlow(m, id)
	}
}

func (u *undoLog) usesDelSlow(m map[event.ID][]event.ID, id event.ID) {
	old, existed := m[id]
	if !existed {
		return
	}
	u.idss = append(u.idss, old)
	u.run = append(u.run, undoRec{kind: jUsesDel, id: id, node: m})
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

func (u *undoLog) candAdd(n *negNode, lo temporal.Time, id event.ID, k corrKey) {
	if u.on {
		u.ks = append(u.ks, k)
		u.run = append(u.run, undoRec{kind: jCandAdd, t: lo, id: id, node: n})
	}
}

func (u *undoLog) candDel(n *negNode, c *negCand) {
	if u.on {
		u.cs = append(u.cs, *c)
		u.run = append(u.run, undoRec{kind: jCandDel, node: n})
	}
}

// block journals a blocker-count change of c, re-locatable by its routing
// key, lo and ID (never store a *negCand — the slice backing reallocates).
func (u *undoLog) block(n *negNode, c *negCand, inc bool) {
	if u.on {
		u.ks = append(u.ks, route(n.keyed, c.key))
		u.run = append(u.run, undoRec{kind: jBlock, t: c.lo, id: c.a.ID, flag: inc, node: n})
	}
}

func (u *undoLog) leafMin(l *leafNode) {
	if u.on {
		u.run = append(u.run, undoRec{kind: jLeafMin, t: l.minVs, node: l})
	}
}

func (u *undoLog) reset(p *Op) {
	if u.on {
		u.resetSlow(p)
	}
}

func (u *undoLog) resetSlow(p *Op) {
	u.rsts = append(u.rsts, resetState{
		sh: p.sh, root: p.root, store: p.store, consumed: p.consumed, pending: p.pending.ms,
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
		lowVs:        p.lowVs,
		lowEmit:      p.lowEmit,

		nMs:   u.msDrop + uint64(len(u.ms)),
		nKs:   u.ksDrop + uint64(len(u.ks)),
		nEvs:  u.evsDrop + uint64(len(u.evs)),
		nCs:   u.csDrop + uint64(len(u.cs)),
		nAms:  u.amsDrop + uint64(len(u.ams)),
		nIdss: u.idssDrop + uint64(len(u.idss)),
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
	for len(u.recs) > tgt {
		r := &u.recs[len(u.recs)-1]
		u.undo(r)
		u.recs = u.recs[:len(u.recs)-1]
	}
	// The barrier's payload is now the scal top: every scal entry pushed
	// after it belonged to a later (now undone) barrier.
	s := &u.scal[len(u.scal)-1]
	p.frontier = s.frontier
	p.minAddFin = s.minAddFin
	p.minFutureFin = s.minFutureFin
	p.dirty = s.dirty
	p.stable = s.stable
	p.lowVs = s.lowVs
	p.lowEmit = s.lowEmit
	return true
}

// compact drops the spine and payload prefixes strictly below the barrier
// of absolute position pos, keeping the barrier itself so pos stays a valid
// rollback target. Cost is O(dropped), which the caller amortizes over the
// mutations that created the dropped records.
func (u *undoLog) compact(pos uint64) {
	u.flush()
	if pos < u.base+1 || pos > u.base+uint64(len(u.recs)) {
		return
	}
	bar := int(pos-u.base) - 1
	if bar <= 0 || u.recs[bar].kind != jBarrier {
		return
	}
	// The barrier's scal entry recorded the absolute stack-top positions at
	// mark time; the dropped prefix owns exactly the stack segments below
	// them, so the payload accounting is O(1) — no per-record scan.
	s := &u.scal[u.recs[bar].i-int(u.scalDrop)]
	dMs := int(s.nMs - u.msDrop)
	dKs := int(s.nKs - u.ksDrop)
	dEvs := int(s.nEvs - u.evsDrop)
	dCs := int(s.nCs - u.csDrop)
	dAms := int(s.nAms - u.amsDrop)
	dIdss := int(s.nIdss - u.idssDrop)
	dRsts := int(s.nRsts - u.rstsDrop)
	bars := u.recs[bar].i - int(u.scalDrop)
	u.recs = u.recs[:copy(u.recs, u.recs[bar:])]
	u.base += uint64(bar)
	u.ms = u.ms[:copy(u.ms, u.ms[dMs:])]
	u.ks = u.ks[:copy(u.ks, u.ks[dKs:])]
	u.evs = u.evs[:copy(u.evs, u.evs[dEvs:])]
	u.cs = u.cs[:copy(u.cs, u.cs[dCs:])]
	u.ams = u.ams[:copy(u.ams, u.ams[dAms:])]
	u.idss = u.idss[:copy(u.idss, u.idss[dIdss:])]
	u.rsts = u.rsts[:copy(u.rsts, u.rsts[dRsts:])]
	u.scal = u.scal[:copy(u.scal, u.scal[bars:])]
	u.msDrop += uint64(dMs)
	u.ksDrop += uint64(dKs)
	u.evsDrop += uint64(dEvs)
	u.csDrop += uint64(dCs)
	u.amsDrop += uint64(dAms)
	u.idssDrop += uint64(dIdss)
	u.rstsDrop += uint64(dRsts)
	u.scalDrop += uint64(bars)
}

// popMatch pops the ms stack top.
func (u *undoLog) popMatch() algebra.Match {
	m := u.ms[len(u.ms)-1]
	u.ms = u.ms[:len(u.ms)-1]
	return m
}

// popKey pops the ks stack top.
func (u *undoLog) popKey() corrKey {
	k := u.ks[len(u.ks)-1]
	u.ks = u.ks[:len(u.ks)-1]
	return k
}

// undo reverses one record, popping its payloads.
func (u *undoLog) undo(r *undoRec) {
	switch r.kind {
	case jBarrier:
		u.scal = u.scal[:len(u.scal)-1]
	case jEvMap:
		m := r.node.(map[event.ID]event.Event)
		if r.flag {
			m[r.id] = u.evs[len(u.evs)-1]
			u.evs = u.evs[:len(u.evs)-1]
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
		m := r.node.(map[event.ID]algebra.Match)
		if r.flag {
			m[r.id] = u.popMatch()
		} else {
			delete(m, r.id)
		}
	case jListIns:
		r.node.(*keyedList).remove(u.popMatch(), u.popKey())
	case jListDel:
		r.node.(*keyedList).insert(u.popMatch(), u.popKey())
	case jPendIns:
		r.node.(*pendingList).removeAt(r.i)
	case jPendDel:
		r.node.(*pendingList).insertAt(r.i, u.popMatch())
	case jPendSet:
		r.node.(*pendingList).ms[r.i] = u.popMatch()
	case jUsesApp:
		m := r.node.(map[event.ID][]event.ID)
		if r.flag {
			m[r.id] = m[r.id][:r.i]
		} else {
			delete(m, r.id)
		}
	case jUsesDel:
		m := r.node.(map[event.ID][]event.ID)
		m[r.id] = u.idss[len(u.idss)-1]
		u.idss = u.idss[:len(u.idss)-1]
	case jAmIns:
		n := r.node.(*atMostNode)
		n.entries = append(n.entries[:r.i], n.entries[r.i+1:]...)
	case jAmDel:
		n := r.node.(*atMostNode)
		e := u.ams[len(u.ams)-1]
		u.ams = u.ams[:len(u.ams)-1]
		n.entries = append(n.entries, amEntry{})
		copy(n.entries[r.i+1:], n.entries[r.i:])
		n.entries[r.i] = e
	case jAmCnt:
		n := r.node.(*atMostNode)
		if r.flag {
			n.entries[r.i].cnt--
		} else {
			n.entries[r.i].cnt++
		}
	case jCandAdd:
		n := r.node.(*negNode)
		n.candRemove(r.t, r.id, u.popKey())
	case jCandDel:
		n := r.node.(*negNode)
		c := u.cs[len(u.cs)-1]
		u.cs = u.cs[:len(u.cs)-1]
		n.candAdd(c)
	case jBlock:
		n := r.node.(*negNode)
		cs := n.wcands
		if k := u.popKey(); k.def() {
			cs = n.kcands[k]
		}
		if i := candFind(cs, r.t, r.id); i >= 0 {
			if r.flag {
				cs[i].blockers--
			} else {
				cs[i].blockers++
			}
		}
	case jLeafMin:
		r.node.(*leafNode).minVs = r.t
	case jReset:
		p := r.node.(*Op)
		rs := u.rsts[len(u.rsts)-1]
		u.rsts = u.rsts[:len(u.rsts)-1]
		p.sh = rs.sh
		p.root = rs.root
		p.store = rs.store
		p.consumed = rs.consumed
		p.pending = pendingList{ms: rs.pending}
	}
}
