package consistency

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/event"
	"repro/internal/operators"
	"repro/internal/temporal"
)

// window is the repair state of a Monitor: Figure 7's base version plus
// input log, together with the operational module they version. It is the
// only code that marks, rolls back or compacts the operator.
//
// Operator state is captured and restored one way only, through
// operators.Versioned, which every operator reaches the window as
// (operators.AsVersioned): the stateful operators and the incremental
// matcher journal their own mutations through the one operators.Journal, so
// a Mark is O(1), a Rollback O(mutations since), and a version once
// invalidated is refused for good; reference evaluators and test doubles
// fall back to a clone per Mark. The window holds no second operator — the
// checkpoint is a base Version of the live one, every admitted item records
// a further Version, and a repair rewinds the live operator in place. There
// is one repair path for every operator kind: every straggler rolls back,
// replays and diffs.
//
// Representation invariants:
//
//   - log[head:] is the live window, sorted by (sync, seq). Items before
//     head are absorbed into the checkpoint and compacted away amortizedly.
//     New items enter by binary-search insertion.
//
//   - Every net-emitted fact records the (sync, seq) key of the log item
//     whose output produced it (netFact.srcSync/srcSeq). Absorbing a log
//     prefix into the checkpoint is then an O(table) filter: drop the facts
//     whose source key is covered.
//
//   - Every item is a rollback point. Each set or delete on the net-fact
//     table first appends the entry it replaces to an undo journal, and an
//     item, once the operator has been driven through it, records where
//     its span of the journal ends and the operator Version marked there
//     (seal). Journal order, version order and log order coincide. A
//     straggler unwinds the journal and rolls the operator back to its
//     predecessor, re-drives the window from its own position, and diffs
//     the ids the unwind and the replay touched: repair is O(straggler
//     depth), whatever the size of the table or the window. Items admitted
//     while the level cannot repair (Strong, M = 0) skip the Mark; a repair
//     reaching them rolls back further, to the nearest item that has one or
//     to the base. The checkpoint truncates the journal at its boundary,
//     so a journaled entry may name a fact the checkpoint has since
//     finalized; the unwind treats such an entry as absent.
//
//   - Generations live in the table's entries. A journaled or re-derived
//     entry may carry a stale one: diff, which alone derives generations
//     (from the entry a repair displaced and the retired-generation
//     counter), writes the right one into every entry a repair leaves in
//     the table, and every such entry's id is among those it visits.
type window struct {
	op operators.Versioned // live operator

	// base is the operator version at the absorbed boundary: the state a
	// repair restores when no live item before the straggler has a version.
	base operators.Version

	log     []logItem // log[head:] is the live window, sorted by (sync, seq)
	head    int
	emitted map[event.ID]*netFact
	gen     map[event.ID]uint64

	// undo is the net-fact table's undo journal over the live window, in log
	// order; a position in it is absolute (index + undoBase), so positions
	// recorded in log items survive the checkpoint's truncation.
	undo     []tblUndo
	undoBase int
	dirty    []tblUndo // the current repair's diff candidates: id and displaced entry
	// free holds up to freeCap entries nothing references, for apply to
	// reuse: those a repair unwound out of the table and the journal both,
	// and those a checkpoint finalized (no retained undo record names a fact
	// still in the table: the unwind that puts one back truncates its record).
	free []*netFact

	absState int           // operator state size as of the absorbed boundary
	absSync  temporal.Time // (sync, seq) key of the last log item folded
	absSeq   int           // into the checkpoint
	// examined counts the table entries repair has unwound or diffed, for
	// the test that pins repair's cost to the straggler's depth.
	examined int
}

type logItem struct {
	marker bool
	// opt: the live path advanced the operator before this event (at B < ∞;
	// at Strong an advance per item would split aggregate output segments).
	// Replay repeats the same calls even if the level has changed since, so
	// the policy travels with the item.
	opt bool
	// versioned marks a rollback point: ver is valid (see seal).
	versioned bool
	t         temporal.Time // marker guarantee time (the Advance argument)
	// key is the marker's position in the replay order. A guarantee that
	// arrives after the operator has optimistically advanced beyond it was
	// a no-op live, so it must replay at its live position (the processed
	// frontier at push time), not at its own timestamp — otherwise replay
	// would advance the operator at a point the live run never did.
	key  temporal.Time
	port int
	ev   event.Event
	seq  int
	// stateAfter is the operator's StateSize after this item was applied to
	// the sorted prefix ending at it (repair rewrites it for the replayed
	// suffix): the checkpoint's state size once the item is its boundary.
	stateAfter int
	// undoAt is the absolute undo-journal position just past the table
	// mutations of the prefix ending at this item; ver, valid when versioned,
	// is the operator version marked there (see seal).
	undoAt int
	ver    operators.Version
}

func (li logItem) sync() temporal.Time {
	if li.marker {
		return li.key
	}
	return li.ev.Sync()
}

// netFact entries are stored by pointer and shared between the live table
// and the undo journal, so the fact itself is immutable once published: an
// update replaces the pointer (a by-value map element this large would also
// be stored indirectly by the runtime and heap-allocate on every
// assignment). Only gen is ever written in place, by diff.
type netFact struct {
	ev  event.Event // net emitted fact (V is the current net interval)
	gen uint64      // generation used in the physical output ID
	// srcSync/srcSeq identify the log item whose output produced the fact.
	// An item is absorbed into the checkpoint exactly when its key is <=
	// the absorbed boundary, so "fact is final" is a key comparison.
	srcSync temporal.Time
	srcSeq  int
}

// keyLE reports (a, as) <= (b, bs) in the log's (sync, seq) order.
func keyLE(a temporal.Time, as int, b temporal.Time, bs int) bool {
	return a < b || (a == b && as <= bs)
}

// tblUndo is one undo-journal record: the entry a set or delete on the
// net-fact table replaced (nil when the id was absent).
type tblUndo struct {
	id   event.ID
	prev *netFact
}

// newWindow versions op from its genesis: the genesis mark is the base —
// the empty prefix's state — and checkpointTo slides it forward as
// guarantees absorb the log.
func newWindow(op operators.Op) window {
	w := window{
		op:      operators.AsVersioned(op),
		emitted: map[event.ID]*netFact{},
		gen:     map[event.ID]uint64{},
		absSync: temporal.MinTime,
	}
	w.base = w.op.Mark()
	w.absState = w.op.StateSize()
	return w
}

// live is the number of items in the live window.
func (w *window) live() int { return len(w.log) - w.head }

// drive feeds log[j] to the operator — a guarantee as an Advance, an event
// as an optional speculative Advance to its Sync and a Process — and
// records the output: live, emitted into s; in a replay (s nil), folded
// into the table for diff.
func (w *window) drive(j int, s *tagSink) {
	it := &w.log[j]
	if it.marker {
		w.emit(s, it.key, it.seq, tagAdvance, w.op.Advance(it.t))
		return
	}
	src := it.ev.Sync()
	if it.opt {
		w.emit(s, src, it.seq, tagAdvance, w.op.Advance(src))
	}
	w.emit(s, src, it.seq, tagProcess, w.op.Process(it.port, it.ev))
}

// repair re-derives the live window from log[i] on — a straggler just
// inserted there — and emits the compensating deltas into s. It unwinds the
// table and rolls the operator back to the item before it (or, past items
// that recorded no version, to the nearest one that did, else the base),
// re-drives the rest of the log in place and diffs what either step
// touched.
func (w *window) repair(i int, s *tagSink) {
	for i > w.head && !w.log[i-1].versioned {
		i--
	}
	ver, at := w.base, 0
	if i > w.head {
		ver, at = w.log[i-1].ver, w.log[i-1].undoAt-w.undoBase
	}
	// Unwinding newest first, the entry a record is about to replace is the
	// one its own mutation wrote — for an id's newest record, the entry the
	// repair displaces, which is what diff compares against.
	w.dirty = w.dirty[:0]
	for n := len(w.undo) - 1; n >= at; n-- {
		u := w.undo[n]
		w.dirty = append(w.dirty, tblUndo{u.id, w.emitted[u.id]})
		if u.prev == nil || keyLE(u.prev.srcSync, u.prev.srcSeq, w.absSync, w.absSeq) {
			delete(w.emitted, u.id) // absent, or finalized by a checkpoint since
		} else {
			w.emitted[u.id] = u.prev
		}
	}
	w.undo = w.undo[:at]
	if !w.op.Rollback(ver) {
		panic("consistency: retained version no longer rollbackable")
	}
	for j := i; j < len(w.log); j++ {
		w.drive(j, nil)
		// The straggler shifted every later prefix: re-record the checkpoint
		// state sizes, journal positions and versions along the new
		// timeline. A window that needed one repair may need another, so the
		// items become rollback points whatever the level.
		w.seal(j, true)
	}
	// What the unwind took out of the table nothing references but w.dirty,
	// and diff, which still reads it, draws no entry.
	for _, d := range w.dirty {
		if d.prev != nil {
			w.recycle(d.prev)
		}
	}
	// The replay's own records name the ids it touched; where the unwind did
	// not reach an id, the first of them holds the displaced entry.
	w.dirty = append(w.dirty, w.undo[at:]...)
	w.diff(s)
}

// seal closes log[i] once the live operator has been driven through it: the
// item records the operator's state size, the end of its span of the undo
// journal and, when mark is set, a version of the operator — which makes it
// a rollback point.
func (w *window) seal(i int, mark bool) {
	it := &w.log[i]
	it.stateAfter = w.op.StateSize()
	it.undoAt = w.undoBase + len(w.undo)
	if it.versioned = mark; mark {
		it.ver = w.op.Mark()
	}
}

// insertLog places li at its (sync, seq) position in the live window by
// binary search. The new item carries the largest seq ever issued, so the
// upper bound after its key is its unique position; fast-path items land at
// the end with zero movement. It returns the item's index.
func (w *window) insertLog(li logItem) int {
	ls := li.sync()
	// Fast path: the item extends the window in order (the overwhelmingly
	// common case — every admit fast-path item and every released buffer
	// entry lands here), so the binary search and the shift are skipped.
	n := len(w.log)
	if n == w.head {
		w.log = append(w.log, li)
		return n
	}
	if ts := w.log[n-1].sync(); ts < ls || (ts == ls && w.log[n-1].seq <= li.seq) {
		w.log = append(w.log, li)
		return n
	}
	i := sort.Search(n-w.head, func(k int) bool {
		it := &w.log[w.head+k]
		return !keyLE(it.sync(), it.seq, ls, li.seq)
	}) + w.head
	w.log = append(w.log, logItem{})
	copy(w.log[i+1:], w.log[i:])
	w.log[i] = li
	return i
}

// checkpointTo absorbs every log item with Sync <= g into the checkpoint.
// No operator is driven: the base slides forward to the version of the last
// absorbed item, and the operator's history and the undo journal below it
// are dropped. Instead of replaying the remaining suffix to rebuild the
// net-emitted table, it drops the facts the absorbed prefix produced — each
// fact records its source item's Sync — which is equivalent and O(table).
func (w *window) checkpointTo(g temporal.Time, s *tagSink) {
	cut := w.head
	for cut < len(w.log) && w.log[cut].sync() <= g {
		cut++
	}
	if cut == w.head {
		return
	}
	b := &w.log[cut-1]
	switch {
	case b.versioned:
		w.base = b.ver
	case cut == len(w.log):
		// Every window item is absorbed: the live operator state IS the new
		// checkpoint.
		w.base = w.op.Mark()
	default:
		// The boundary was admitted while the level could not repair and the
		// level has loosened since. Re-driving the window from it changes no
		// fact and gives it a version.
		w.repair(cut-1, s)
		w.base = b.ver
	}
	ls, lq := b.sync(), b.seq
	w.head = cut
	w.absSync, w.absSeq = ls, lq
	// Facts produced by the absorbed prefix are final; forget them. This is
	// exactly the table a replay of the remaining suffix over the new
	// checkpoint would build.
	for id, nf := range w.emitted {
		if keyLE(nf.srcSync, nf.srcSeq, ls, lq) {
			delete(w.emitted, id)
			*nf = netFact{} // holds no payload or lineage while it waits
			w.recycle(nf)
		}
	}
	n := copy(w.undo, w.undo[b.undoAt-w.undoBase:])
	clear(w.undo[n:])
	w.undo = w.undo[:n]
	w.undoBase = b.undoAt
	w.absState = b.stateAfter
	w.op.Compact(w.base)
	// Amortized compaction of the absorbed log prefix, which keeps the array
	// at about the live window.
	if w.head >= len(w.log)-w.head {
		n := copy(w.log, w.log[w.head:])
		clear(w.log[n:])
		w.log = w.log[:n]
		w.head = 0
	}
}

// finalize compacts the operator past its last Advance: no repair follows
// an output guarantee of ∞.
func (w *window) finalize() { w.op.Compact(w.op.Mark()) }

// set and del are how the net-fact table moves forward (only repair's unwind
// and the checkpoint's filter write it otherwise); prev is the entry under
// id (nil when absent), which the undo journal keeps.
func (w *window) set(id event.ID, prev, nf *netFact) {
	w.undo = append(w.undo, tblUndo{id, prev})
	w.emitted[id] = nf
}

func (w *window) del(id event.ID, prev *netFact) {
	w.undo = append(w.undo, tblUndo{id, prev})
	delete(w.emitted, id)
}

// freeCap bounds free: a few checkpoints' worth, not a table's.
const freeCap = 256

func (w *window) recycle(nf *netFact) {
	if len(w.free) < freeCap {
		w.free = append(w.free, nf)
	}
}

// newFact returns an entry to fill in, a recycled one when there is any.
func (w *window) newFact() *netFact {
	if n := len(w.free); n > 0 {
		nf := w.free[n-1]
		w.free[n-1] = nil
		w.free = w.free[:n-1]
		return nf
	}
	return new(netFact)
}

// emit records freshly produced operator output in the net-emitted table;
// (srcSync, srcSeq) is the key of the log item whose processing produced
// it. Live, each item goes on to s under the fact's current generation, so
// that a removed-and-reinserted fact never reuses a physical ID (the
// paper's new-K-chain rule from Figure 2). A replay passes a nil s: the
// output is only folded into the table, and diff assigns the generations
// afterwards.
func (w *window) emit(s *tagSink, srcSync temporal.Time, srcSeq int, phase byte, outs []event.Event) {
	for _, e := range outs {
		nf := w.emitted[e.ID]
		if s == nil {
			w.apply(nf, srcSync, srcSeq, 0, e)
			continue
		}
		var gid uint64
		if nf != nil {
			gid = nf.gen
		} else {
			gid = w.gen[e.ID]
		}
		if e.Kind == event.Retract && nf != nil && e.V.End <= nf.ev.V.Start {
			w.gen[e.ID] = nf.gen + 1 // retire this generation
		}
		w.apply(nf, srcSync, srcSeq, gid, e)
		s.put(phase, e, gid)
	}
}

// apply folds one operator output into the table, where cur is the entry
// under its id (nil when absent): an insert overwrites, under generation gen;
// a retraction shrinks or removes, and is a no-op on an absent fact.
func (w *window) apply(cur *netFact, srcSync temporal.Time, srcSeq int, gen uint64, e event.Event) {
	switch {
	case e.Kind != event.Retract:
		nf := w.newFact()
		nf.ev, nf.gen, nf.srcSync, nf.srcSeq = e, gen, srcSync, srcSeq
		w.set(e.ID, cur, nf)
	case cur == nil:
	case e.V.End <= cur.ev.V.Start:
		w.del(e.ID, cur)
	default:
		shrunk := w.newFact()
		*shrunk = *cur // copy-on-write: the journal keeps cur
		shrunk.ev.V.End = e.V.End
		w.set(e.ID, cur, shrunk)
	}
}

// diff compares the entries a repair displaced against the table as the
// replay left it and emits the compensating physical deltas into s:
// retractions for facts that shrank or vanished, fresh inserts (under a
// bumped generation) for facts that appeared or changed shape. Only the ids
// in w.dirty can differ, and the first record of each id — the sort is
// stable — holds the displaced entry.
func (w *window) diff(s *tagSink) {
	slices.SortStableFunc(w.dirty, func(a, b tblUndo) int { return cmp.Compare(a.id, b.id) })
	w.examined += len(w.dirty)
	for n, d := range w.dirty {
		if n > 0 && d.id == w.dirty[n-1].id {
			continue
		}
		id, old, nw := d.id, d.prev, w.emitted[d.id]
		switch {
		case old == nil && nw == nil:
			// touched along the way but net-absent on both sides
		case nw == nil:
			s.retract(old, old.ev.V.Start)
			w.gen[id] = old.gen + 1
		case old == nil:
			nw.gen = w.gen[id]
			s.put(tagDiff, nw.ev, nw.gen)
		case old.ev.SameFact(nw.ev):
			nw.gen = old.gen
		case nw.ev.V.Start == old.ev.V.Start && nw.ev.V.End < old.ev.V.End && nw.ev.Payload.Equal(old.ev.Payload):
			s.retract(old, nw.ev.V.End)
			nw.gen = old.gen
		default:
			// Shape changed: remove and reinsert under a new generation.
			s.retract(old, old.ev.V.Start)
			nw.gen = old.gen + 1
			s.put(tagDiff, nw.ev, nw.gen)
			w.gen[id] = nw.gen
		}
	}
}
