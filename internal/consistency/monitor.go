package consistency

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/event"
	"repro/internal/operators"
	"repro/internal/ordkey"
	"repro/internal/temporal"
)

// Monitor is the consistency monitor of Figure 7: it wraps an operational
// module (an operators.Op) and upholds a consistency level under
// out-of-order physical arrival.
//
//	           ┌──────────────────────────────┐
//	input ───► │ consistency monitor          │
//	guarantees │   alignment buffer           │ ───► output
//	           │   base version + input log   │      + output guarantees
//	           │   operational module (Op)    │
//	           └──────────────────────────────┘
//
// Mechanics, by level:
//
//   - Blocking (B > 0): out-of-order events wait in the alignment buffer
//     until an input guarantee (CTI) covers them — or until the stream's
//     Sync frontier has passed them by more than B, at which point they are
//     processed optimistically.
//
//   - Optimism (B < ∞): events are fed to the operator immediately, with
//     the operator speculatively advanced to each event's Sync time so that
//     blocking operators (difference, aggregation) emit early output.
//
//   - Repair (M > 0): the monitor keeps a version of the operator as of
//     the last input guarantee plus the log of every input since. When a
//     straggler arrives, the operator is rolled back to a version marked at
//     or before the straggler's position and the log suffix is replayed
//     with the straggler in its proper place; the difference between the
//     previously emitted output and the replayed output is emitted as
//     compensating retractions and insertions.
//
//   - Forgetting (M < ∞): stragglers older than M behind the frontier are
//     dropped (the weak level's license to leave earlier state wrong), and
//     repair state older than M is folded irrevocably into the checkpoint.
//
// Operator state is captured and restored one way only, through
// operators.Versioned, which every operator reaches the monitor as
// (operators.AsVersioned): the stateful operators and the incremental
// matcher journal their own mutations through the one operators.Journal, so
// a Mark is O(1), a Rollback O(mutations since), and a version once
// invalidated is refused for good; reference evaluators and test doubles
// fall back to a clone per Mark. The monitor holds no second operator — the
// checkpoint is a base Version of the live one, every admitted item records
// a further Version, and a repair rewinds the live operator in place. There
// is one repair path for every operator kind: every straggler rolls back,
// replays and diffs.
//
// At common sync points all levels have output the same state, which is
// what makes the levels seamlessly switchable (Section 5); the tests verify
// this against a frozen reference implementation, item for item.
//
// Hot-path representation invariants:
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
//
//   - The slices returned by Push, SetSpec and Finish alias an internal
//     buffer and are valid only until the next call on this monitor;
//     callers must copy what they keep.
type Monitor struct {
	op   operators.Versioned // live operator
	spec Spec

	// base is the operator version at the absorbed boundary: the state a
	// repair restores when no live item before the straggler has a version.
	base operators.Version

	log     []logItem // log[head:] is the live window, sorted by (sync, seq)
	head    int
	emitted map[event.ID]*netFact
	gen     map[event.ID]uint64
	buffer  []bufEntry // alignment buffer, sorted by Sync (equal Syncs in arrival order)

	portG         []temporal.Time
	guarantee     temporal.Time
	frontier      temporal.Time // max Sync observed (incl. buffered)
	processedSync temporal.Time // max Sync fed to the live operator
	absSync       temporal.Time // (sync, seq) key of the last log item folded
	absSeq        int           // into the checkpoint
	seq           int
	now           temporal.Time // current CEDR time

	// undo is the net-fact table's undo journal over the live window, in log
	// order; a position in it is absolute (index + undoBase), so positions
	// recorded in log items survive the checkpoint's truncation.
	undo     []tblUndo
	undoBase int
	dirty    []tblUndo // the current repair's diff candidates: id and displaced entry
	// free holds the entries the last repair unwound out of the table and the
	// journal both, for apply to reuse: a replay re-derives about as many
	// facts as it unwinds, so repair allocates none in the steady state.
	free []*netFact
	// examined counts the table entries repair has unwound or diffed, for
	// the test that pins repair's cost to the straggler's depth.
	examined int

	out      []event.Event // reusable output buffer (valid until next call)
	absState int           // operator state size as of the absorbed boundary

	// Sharded-execution support (see PushTaggedInto). On the plain Push
	// path only step moves; the rest is inert. Every shard's monitor sees
	// the whole input; which keys its operator owns is the operator's
	// business, so nothing here knows of shards.
	tagging bool   // current call wants order tags
	sink    *Burst // the *Into variants' output and tag accumulator (nil on the plain path)
	// step counts, over the monitor's whole life, every admission, every
	// guarantee advance and every emitted CTI; an output's tag leads with the
	// step that emitted it.
	step   uint64
	advKey func(dst []byte, e event.Event) []byte
	window int // buffer + live log window at the last sampleState (see Window)

	done bool // Finish or Stop has run: the monitor is terminal (see Stop)
	met  Metrics
}

// Output-order tag phases: within one step, the speculative Advance's
// outputs precede the Process outputs, repair diffs stand alone, and
// punctuation is a step of its own.
const (
	tagAdvance byte = 1
	tagDiff    byte = 2
	tagProcess byte = 3
	tagCTI     byte = 4
)

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

type bufEntry struct {
	port    int
	ev      event.Event
	arrival temporal.Time
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

// Metrics quantifies the three axes of Figure 8 — blocking, state size and
// output size — plus the repair machinery's activity.
type Metrics struct {
	InputEvents int
	InputCTIs   int

	OutputInserts     int
	OutputRetractions int
	OutputCTIs        int

	// Compensations counts retractions emitted to repair optimistic output
	// (a subset of OutputRetractions).
	Compensations int
	// Dropped counts stragglers forgotten because they were older than M.
	Dropped int
	// Violations counts events that arrived in violation of a provider
	// guarantee; they are rejected.
	Violations int
	// Replays counts checkpoint rollbacks.
	Replays int

	// BlockedEvents and TotalBlocking measure alignment-buffer residency in
	// CEDR time.
	BlockedEvents int
	TotalBlocking temporal.Duration

	// MaxState is the high-water mark of buffer + log + operator state.
	MaxState int
	CurState int
}

// OutputEvents is the total number of data items emitted.
func (m Metrics) OutputEvents() int { return m.OutputInserts + m.OutputRetractions }

// MeanBlocking is the average CEDR-time residency of blocked events.
func (m Metrics) MeanBlocking() float64 {
	if m.BlockedEvents == 0 {
		return 0
	}
	return float64(m.TotalBlocking) / float64(m.BlockedEvents)
}

// MonitorOption is vestigial: no option exists any more. The type, the
// NewMonitor parameter and plan.Plan.MonitorOpts stay only because
// bench/e2e passes them; the next benchmark PR removes all three.
type MonitorOption func(*Monitor)

// NewMonitor wraps op with a consistency monitor at the given level.
func NewMonitor(op operators.Op, spec Spec, _ ...MonitorOption) *Monitor {
	portG := make([]temporal.Time, op.Arity())
	for i := range portG {
		portG[i] = temporal.MinTime
	}
	var advKey func([]byte, event.Event) []byte
	if ao, ok := op.(operators.AdvanceOrdered); ok {
		advKey = ao.AppendAdvanceKey
	}
	m := &Monitor{
		advKey:        advKey,
		op:            operators.AsVersioned(op),
		spec:          spec,
		emitted:       map[event.ID]*netFact{},
		gen:           map[event.ID]uint64{},
		portG:         portG,
		guarantee:     temporal.MinTime,
		frontier:      temporal.MinTime,
		processedSync: temporal.MinTime,
		absSync:       temporal.MinTime,
	}
	// The genesis mark is the base — the empty prefix's state — and
	// checkpointTo slides it forward as guarantees absorb the log.
	m.base = m.op.Mark()
	m.absState = m.op.StateSize()
	return m
}

// Spec returns the monitor's consistency level.
func (m *Monitor) Spec() Spec { return m.spec }

// Metrics returns a snapshot of the monitor's counters.
func (m *Monitor) Metrics() Metrics { return m.met }

// Op returns the operator the monitor drives; nil once it has stopped.
func (m *Monitor) Op() operators.Versioned { return m.op }

// CurState returns the live state-size counter alone, without copying the
// full Metrics struct — the sharded runtime samples it once per input item
// for its per-item state traces, where the struct copy is measurable.
func (m *Monitor) CurState() int { return m.met.CurState }

// Guarantee returns the current combined input guarantee.
func (m *Monitor) Guarantee() temporal.Time { return m.guarantee }

// Window returns the alignment buffer plus the live log window, as sampled
// with CurState at the end of the last call (Finish releases the log, so a
// live count would not match the sample). Sharded metric combination needs
// it: every shard buffers and logs the whole input, but the single-shard
// equivalent state counts it once.
func (m *Monitor) Window() int { return m.window }

// SetSpec switches the consistency level at runtime. The paper observes
// that at common sync points every level holds the same output state, so
// switching at a sync point is seamless; switching between sync points
// changes only how pending and future input is treated. A loosened blocking
// bound may release buffered events, which are returned. The returned slice
// is valid until the next call on this monitor.
func (m *Monitor) SetSpec(s Spec) []event.Event {
	return m.setSpec(s, false, nil)
}

// SetSpecTaggedInto is SetSpec for sharded execution: released output is
// appended to sink, with its order tags when tag is set (see
// PushTaggedInto).
func (m *Monitor) SetSpecTaggedInto(s Spec, tag bool, sink *Burst) {
	m.setSpec(s, tag, sink)
}

func (m *Monitor) setSpec(s Spec, tag bool, sink *Burst) []event.Event {
	if m.done {
		return nil
	}
	m.beginCall(tag, sink)
	m.spec = s
	m.release(m.timedOut())
	m.trimMemory()
	m.sampleState()
	return m.endCall()
}

// Push delivers one physical stream item (data or CTI) to port. The item's
// C.Start must carry its CEDR arrival time. It returns the physical output
// items, stamped with the current CEDR time. The returned slice is valid
// until the next call on this monitor.
func (m *Monitor) Push(port int, e event.Event) []event.Event {
	return m.push(port, e, false, nil)
}

// PushTaggedInto is Push for sharded execution. Every shard's monitor is
// driven through the same calls — the whole input, punctuation and control
// included — and its operator processes only the keys it owns, so sibling
// monitors take the same steps for their whole life and each emits the
// key-restricted slice of one un-sharded monitor's output.
//
// When tag is set, each output item carries an order tag: the monitor's
// step count at emission (see Monitor.step), the phase, and a sub-key (the
// repaired fact's id, or the operator's AppendAdvanceKey). Sorting the
// union of the siblings' outputs by tag therefore reproduces the exact
// sequence one un-sharded monitor would have emitted, across any number of
// calls (Merger does this).
//
// Nothing is returned: the call's outputs (CEDR-time-stamped) and their
// order tags are appended to sink, which must not be nil, with the tag
// bytes carved from sink.Arena. A worker accumulates a whole run of input
// items into one Burst this way without any per-output allocation once the
// burst's buffers have grown.
func (m *Monitor) PushTaggedInto(port int, e event.Event, tag bool, sink *Burst) {
	m.push(port, e, tag, sink)
}

func (m *Monitor) push(port int, e event.Event, tag bool, sink *Burst) []event.Event {
	if port < 0 || port >= len(m.portG) || m.done {
		return nil
	}
	m.beginCall(tag, sink)
	if e.C.Start > m.now {
		m.now = e.C.Start
	}
	if e.IsCTI() {
		m.met.InputCTIs++
		m.pushCTI(port, e.Sync())
	} else {
		m.met.InputEvents++
		m.pushData(port, e)
	}
	m.trimMemory()
	m.sampleState()
	return m.endCall()
}

// beginCall resets the output buffer and arms or disarms tagging for one
// externally driven call.
func (m *Monitor) beginCall(tag bool, sink *Burst) {
	m.out = m.out[:0]
	m.tagging = tag
	m.sink = sink
}

// endCall finishes one externally driven call: it stamps the output buffer
// and returns it, or — on the sharded path (a sink armed by beginCall) —
// appends it to the sink, whose tags accumulated there directly, and
// returns nil.
func (m *Monitor) endCall() []event.Event {
	out := m.stampOut()
	if s := m.sink; s != nil {
		m.sink = nil
		s.Evs = append(s.Evs, out...)
		return nil
	}
	return out
}

// appendTag records the order tag of the output item just appended to
// m.out. It must be called exactly once per appended item on tagged calls;
// m.step identifies the step that is emitting.
func (m *Monitor) appendTag(phase byte, id event.ID, ev *event.Event) {
	if !m.tagging {
		return
	}
	s := m.sink
	off := len(s.Arena)
	s.Arena = m.buildTag(s.Arena, phase, id, ev)
	s.Tags = append(s.Tags, s.Arena[off:len(s.Arena):len(s.Arena)])
}

// buildTag appends one order tag's bytes to t and returns the extended
// slice.
func (m *Monitor) buildTag(t []byte, phase byte, id event.ID, ev *event.Event) []byte {
	t = ordkey.AppendUint(t, m.step)
	t = append(t, phase)
	switch phase {
	case tagDiff:
		t = ordkey.AppendUint(t, uint64(id))
	case tagAdvance:
		if m.advKey != nil && ev != nil {
			t = m.advKey(t, *ev)
		}
	}
	return t
}

func (m *Monitor) pushCTI(port int, t temporal.Time) {
	if t > m.portG[port] {
		m.portG[port] = t
	}
	g := m.portG[0]
	for _, pg := range m.portG[1:] {
		if pg < g {
			g = pg
		}
	}
	if g <= m.guarantee {
		return
	}
	m.guarantee = g
	if g > m.frontier {
		m.frontier = g
	}
	// Clean releases: buffered events covered by the guarantee, in Sync
	// order.
	m.release(sort.Search(len(m.buffer), func(k int) bool { return m.buffer[k].ev.Sync() > g }))
	// Record and apply the guarantee itself, positioned where the live
	// operator actually executes it.
	key := g
	if m.processedSync > key {
		key = m.processedSync
	}
	sq := m.nextSeq()
	m.step++
	i := m.insertLog(logItem{marker: true, t: g, key: key, seq: sq})
	m.emit(key, sq, tagAdvance, m.op.Advance(g))
	m.seal(i, m.versioning())
	// Absorb everything the guarantee finalizes into the checkpoint.
	m.checkpointTo(g)
	// Timed-out releases may also be due (the guarantee moved the frontier).
	m.release(m.timedOut())
	og := m.op.OutputGuarantee(g)
	m.met.OutputCTIs++
	// Every sibling shard emits this punctuation at the same step, so the
	// tags match exactly and the merge collapses the redundant copies.
	m.step++
	m.out = append(m.out, event.NewCTI(og))
	m.appendTag(tagCTI, 0, nil)
}

func (m *Monitor) pushData(port int, e event.Event) {
	if e.Sync() < m.guarantee {
		m.met.Violations++
		return
	}
	if e.Sync() > m.frontier {
		m.frontier = e.Sync()
	}
	// Weak levels forget stragglers beyond the memory horizon.
	if m.spec.M != Unbounded && e.Sync() < m.frontier.Add(-m.spec.M) {
		m.met.Dropped++
		return
	}
	if m.spec.B > 0 && e.Sync() >= m.processedSync {
		// In-order so far: hold for possible stragglers. The buffer is kept
		// sorted by binary insertion (upper bound, so equal Syncs keep
		// arrival order).
		be := bufEntry{port: port, ev: e, arrival: m.now}
		s := e.Sync()
		i := sort.Search(len(m.buffer), func(k int) bool { return m.buffer[k].ev.Sync() > s })
		m.buffer = append(m.buffer, bufEntry{})
		copy(m.buffer[i+1:], m.buffer[i:])
		m.buffer[i] = be
	} else {
		m.admit(port, e)
	}
	m.release(m.timedOut())
}

// release admits the first n buffered events — a prefix of the Sync-sorted
// buffer whose hold has ended — and records how long each was blocked.
func (m *Monitor) release(n int) {
	for _, be := range m.buffer[:n] {
		m.met.BlockedEvents++
		m.met.TotalBlocking += m.now.Sub(be.arrival)
		m.admit(be.port, be.ev)
	}
	// The buffer keeps its array: a rest no longer than the released prefix
	// moves to the front, which costs at most one copy per released event;
	// a longer rest is re-sliced and moves on a later release.
	if rest := len(m.buffer) - n; rest <= n {
		copy(m.buffer, m.buffer[n:])
		clear(m.buffer[rest:])
		m.buffer = m.buffer[:rest]
	} else {
		m.buffer = m.buffer[n:]
	}
}

// timedOut counts the buffered events whose blocking budget B frontier
// progress has exhausted.
func (m *Monitor) timedOut() int {
	if m.spec.B == Unbounded {
		return 0
	}
	return sort.Search(len(m.buffer), func(k int) bool { return m.buffer[k].ev.Sync().Add(m.spec.B) >= m.frontier })
}

// admit feeds one event to the live operator, via the fast path when it is
// in order and via rollback and replay when it is a straggler.
func (m *Monitor) admit(port int, e event.Event) {
	li := logItem{port: port, ev: e, seq: m.nextSeq(), opt: m.spec.B != Unbounded}
	m.step++
	i := m.insertLog(li)
	if e.Sync() >= m.processedSync {
		// Fast path: the item extends the sorted window.
		src := e.Sync()
		if li.opt {
			m.emit(src, li.seq, tagAdvance, m.op.Advance(src))
		}
		m.emit(src, li.seq, tagProcess, m.op.Process(port, e))
		m.seal(i, m.versioning())
		m.processedSync = src
		return
	}
	// Straggler: roll back to its predecessor and replay.
	m.met.Replays++
	m.repair(i)
}

// repair re-derives the live window from log[i] on — a straggler just
// inserted there — and emits the compensating deltas. It unwinds the table
// and rolls the operator back to the item before it (or, past items that
// recorded no version, to the nearest one that did, else the base), re-drives
// the rest of the log in place and diffs what either step touched.
func (m *Monitor) repair(i int) {
	for i > m.head && !m.log[i-1].versioned {
		i--
	}
	ver, at := m.base, 0
	if i > m.head {
		ver, at = m.log[i-1].ver, m.log[i-1].undoAt-m.undoBase
	}
	// Unwinding newest first, the entry a record is about to replace is the
	// one its own mutation wrote — for an id's newest record, the entry the
	// repair displaces, which is what diff compares against.
	m.dirty = m.dirty[:0]
	for n := len(m.undo) - 1; n >= at; n-- {
		u := m.undo[n]
		m.dirty = append(m.dirty, tblUndo{u.id, m.emitted[u.id]})
		if u.prev == nil || keyLE(u.prev.srcSync, u.prev.srcSeq, m.absSync, m.absSeq) {
			delete(m.emitted, u.id) // absent, or finalized by a checkpoint since
		} else {
			m.emitted[u.id] = u.prev
		}
	}
	m.undo = m.undo[:at]
	if !m.op.Rollback(ver) {
		panic("consistency: retained version no longer rollbackable")
	}
	for j := i; j < len(m.log); j++ {
		item := &m.log[j]
		if item.marker {
			m.fold(item.key, item.seq, m.op.Advance(item.t))
		} else {
			if item.opt {
				m.fold(item.ev.Sync(), item.seq, m.op.Advance(item.ev.Sync()))
			}
			m.fold(item.ev.Sync(), item.seq, m.op.Process(item.port, item.ev))
		}
		// The straggler shifted every later prefix: re-record the checkpoint
		// state sizes, journal positions and versions along the new
		// timeline. A window that needed one repair may need another, so the
		// items become rollback points whatever the level.
		m.seal(j, true)
	}
	// What the unwind took out of the table nothing references but m.dirty,
	// and diff, which still reads it, draws no entry.
	for _, d := range m.dirty {
		if d.prev != nil {
			m.free = append(m.free, d.prev)
		}
	}
	// The replay's own records name the ids it touched; where the unwind did
	// not reach an id, the first of them holds the displaced entry.
	m.dirty = append(m.dirty, m.undo[at:]...)
	m.diff()
}

// seal closes log[i] once the live operator has been driven through it: the
// item records the operator's state size, the end of its span of the undo
// journal and, when mark is set, a version of the operator — which makes it
// a rollback point.
func (m *Monitor) seal(i int, mark bool) {
	it := &m.log[i]
	it.stateAfter = m.op.StateSize()
	it.undoAt = m.undoBase + len(m.undo)
	if it.versioned = mark; mark {
		it.ver = m.op.Mark()
	}
}

// versioning reports whether an item admitted in order should record a
// version: only where a straggler can follow it — optimistic levels (B < ∞)
// with memory to repair (M > 0). Strong admits in order and Weak(0) drops
// every straggler, so a version there would never be rolled back to.
func (m *Monitor) versioning() bool {
	return m.spec.B != Unbounded && m.spec.M != 0
}

// insertLog places li at its (sync, seq) position in the live window by
// binary search. The new item carries the largest seq ever issued, so the
// upper bound after its key is its unique position; fast-path items land at
// the end with zero movement. It returns the item's index.
func (m *Monitor) insertLog(li logItem) int {
	ls := li.sync()
	// Fast path: the item extends the window in order (the overwhelmingly
	// common case — every admit fast-path item and every released buffer
	// entry lands here), so the binary search and the shift are skipped.
	n := len(m.log)
	if n == m.head {
		m.log = append(m.log, li)
		return n
	}
	if ts := m.log[n-1].sync(); ts < ls || (ts == ls && m.log[n-1].seq <= li.seq) {
		m.log = append(m.log, li)
		return n
	}
	i := m.searchAfter(ls, li.seq)
	m.log = append(m.log, logItem{})
	copy(m.log[i+1:], m.log[i:])
	m.log[i] = li
	return i
}

// searchAfter returns the index of the first window item ordered after the
// (sync, seq) boundary.
func (m *Monitor) searchAfter(bSync temporal.Time, bSeq int) int {
	return sort.Search(len(m.log)-m.head, func(k int) bool {
		it := &m.log[m.head+k]
		return !keyLE(it.sync(), it.seq, bSync, bSeq)
	}) + m.head
}

// checkpointTo absorbs every log item with Sync <= g into the checkpoint.
// No operator is driven: the base slides forward to the version of the last
// absorbed item, and the operator's history and the undo journal below it
// are dropped. Instead of replaying the remaining suffix to rebuild the
// net-emitted table, it drops the facts the absorbed prefix produced — each
// fact records its source item's Sync — which is equivalent and O(table).
func (m *Monitor) checkpointTo(g temporal.Time) {
	cut := m.head
	for cut < len(m.log) && m.log[cut].sync() <= g {
		cut++
	}
	if cut == m.head {
		return
	}
	b := &m.log[cut-1]
	switch {
	case b.versioned:
		m.base = b.ver
	case cut == len(m.log):
		// Every window item is absorbed: the live operator state IS the new
		// checkpoint.
		m.base = m.op.Mark()
	default:
		// The boundary was admitted while the level could not repair and the
		// level has loosened since. Re-driving the window from it changes no
		// fact and gives it a version.
		m.repair(cut - 1)
		m.base = b.ver
	}
	ls, lq := b.sync(), b.seq
	m.head = cut
	m.absSync, m.absSeq = ls, lq
	// Facts produced by the absorbed prefix are final; forget them. This is
	// exactly the table a replay of the remaining suffix over the new
	// checkpoint would build.
	for id, nf := range m.emitted {
		if keyLE(nf.srcSync, nf.srcSeq, ls, lq) {
			delete(m.emitted, id)
		}
	}
	n := copy(m.undo, m.undo[b.undoAt-m.undoBase:])
	clear(m.undo[n:])
	m.undo = m.undo[:n]
	m.undoBase = b.undoAt
	m.absState = b.stateAfter
	m.op.Compact(m.base)
	// Amortized compaction of the absorbed log prefix, which keeps the array
	// at about the live window.
	if m.head >= len(m.log)-m.head {
		n := copy(m.log, m.log[m.head:])
		clear(m.log[n:])
		m.log = m.log[:n]
		m.head = 0
	}
}

// trimMemory enforces the M bound: log items older than frontier − M are
// folded into the checkpoint and become unrepairable.
func (m *Monitor) trimMemory() {
	if m.spec.M == Unbounded {
		return
	}
	horizon := m.frontier.Add(-m.spec.M)
	if m.head < len(m.log) && m.log[m.head].sync() < horizon {
		m.checkpointTo(horizon)
	}
}

// set and del are how the net-fact table moves forward (only repair's unwind
// and the checkpoint's filter write it otherwise); prev is the entry under
// id (nil when absent), which the undo journal keeps.
func (m *Monitor) set(id event.ID, prev, nf *netFact) {
	m.undo = append(m.undo, tblUndo{id, prev})
	m.emitted[id] = nf
}

func (m *Monitor) del(id event.ID, prev *netFact) {
	m.undo = append(m.undo, tblUndo{id, prev})
	delete(m.emitted, id)
}

// newFact returns an entry to fill in, a recycled one when repair left any.
func (m *Monitor) newFact() *netFact {
	if n := len(m.free); n > 0 {
		nf := m.free[n-1]
		m.free[n-1] = nil
		m.free = m.free[:n-1]
		return nf
	}
	return new(netFact)
}

// emit records freshly produced operator output in the net-emitted table
// and appends the physical items — IDs rewritten with the fact's current
// generation, so that a removed-and-reinserted fact never reuses a physical
// ID (the paper's new-K-chain rule from Figure 2) — to the output buffer.
// (srcSync, srcSeq) is the key of the log item whose processing produced
// the output.
func (m *Monitor) emit(srcSync temporal.Time, srcSeq int, phase byte, outs []event.Event) {
	for _, e := range outs {
		nf := m.emitted[e.ID]
		var gid uint64
		if nf != nil {
			gid = nf.gen
		} else {
			gid = m.gen[e.ID]
		}
		if e.Kind == event.Retract {
			m.met.OutputRetractions++
			if nf != nil && e.V.End <= nf.ev.V.Start {
				m.gen[e.ID] = nf.gen + 1 // retire this generation
			}
		} else {
			m.met.OutputInserts++
		}
		m.apply(nf, srcSync, srcSeq, gid, e)
		m.appendTag(phase, e.ID, &e)
		r := e
		r.ID = event.Pair(e.ID, event.ID(gid))
		m.out = append(m.out, r)
	}
}

// apply folds one operator output into the table, where cur is the entry
// under its id (nil when absent): an insert overwrites, under generation gen;
// a retraction shrinks or removes, and is a no-op on an absent fact.
func (m *Monitor) apply(cur *netFact, srcSync temporal.Time, srcSeq int, gen uint64, e event.Event) {
	switch {
	case e.Kind != event.Retract:
		nf := m.newFact()
		nf.ev, nf.gen, nf.srcSync, nf.srcSeq = e, gen, srcSync, srcSeq
		m.set(e.ID, cur, nf)
	case cur == nil:
	case e.V.End <= cur.ev.V.Start:
		m.del(e.ID, cur)
	default:
		shrunk := m.newFact()
		*shrunk = *cur // copy-on-write: the journal keeps cur
		shrunk.ev.V.End = e.V.End
		m.set(e.ID, cur, shrunk)
	}
}

// fold applies re-driven operator output to the table without emitting;
// diff assigns the generations afterwards.
func (m *Monitor) fold(srcSync temporal.Time, srcSeq int, outs []event.Event) {
	for _, e := range outs {
		m.apply(m.emitted[e.ID], srcSync, srcSeq, 0, e)
	}
}

// diff compares the entries a repair displaced against the table as the
// replay left it and appends the compensating physical deltas: retractions
// for facts that shrank or vanished, fresh inserts (under a bumped
// generation) for facts that appeared or changed shape. Only the ids in
// m.dirty can differ, and the first record of each id — the sort is stable
// — holds the displaced entry.
func (m *Monitor) diff() {
	slices.SortStableFunc(m.dirty, func(a, b tblUndo) int { return cmp.Compare(a.id, b.id) })
	m.examined += len(m.dirty)
	for n, d := range m.dirty {
		if n > 0 && d.id == m.dirty[n-1].id {
			continue
		}
		id, old, nw := d.id, d.prev, m.emitted[d.id]
		switch {
		case old == nil && nw == nil:
			// touched along the way but net-absent on both sides
		case nw == nil:
			m.compensate(id, old, old.ev.V.Start)
			m.gen[id] = old.gen + 1
		case old == nil:
			nw.gen = m.gen[id]
			m.reinsert(id, nw)
		case old.ev.SameFact(nw.ev):
			nw.gen = old.gen
		case nw.ev.V.Start == old.ev.V.Start && nw.ev.V.End < old.ev.V.End && nw.ev.Payload.Equal(old.ev.Payload):
			m.compensate(id, old, nw.ev.V.End)
			nw.gen = old.gen
		default:
			// Shape changed: remove and reinsert under a new generation.
			m.compensate(id, old, old.ev.V.Start)
			nw.gen = old.gen + 1
			m.reinsert(id, nw)
			m.gen[id] = nw.gen
		}
	}
}

// compensate emits the retraction that shrinks the displaced fact old to
// end (removing it when end is its start).
func (m *Monitor) compensate(id event.ID, old *netFact, end temporal.Time) {
	r := old.ev
	r.Kind = event.Retract
	r.V.End = end
	r.ID = event.Pair(id, event.ID(old.gen))
	m.out = append(m.out, r)
	m.appendTag(tagDiff, id, nil)
	m.met.OutputRetractions++
	m.met.Compensations++
}

// reinsert emits the replayed fact nw under its generation.
func (m *Monitor) reinsert(id event.ID, nw *netFact) {
	ins := nw.ev
	ins.ID = event.Pair(id, event.ID(nw.gen))
	m.out = append(m.out, ins)
	m.appendTag(tagDiff, id, nil)
	m.met.OutputInserts++
}

// stampOut sets the CEDR time of the buffered output items to the current
// arrival instant and returns the buffer (nil when empty, so callers can
// distinguish "no output" cheaply).
func (m *Monitor) stampOut() []event.Event {
	if len(m.out) == 0 {
		return nil
	}
	for i := range m.out {
		m.out[i].C = temporal.From(m.now)
	}
	return m.out
}

func (m *Monitor) nextSeq() int {
	m.seq++
	return m.seq
}

func (m *Monitor) sampleState() {
	// The undo journal and the items' versions are derived from the log and
	// deliberately excluded, keeping the Figure 8 state axis comparable to
	// the reference semantics.
	m.window = len(m.buffer) + len(m.log) - m.head
	cur := m.window + m.op.StateSize() + m.absState
	m.met.CurState = cur
	if cur > m.met.MaxState {
		m.met.MaxState = cur
	}
}

// Finish closes the stream: it releases every buffered event (as if a final
// guarantee covered the whole stream) and advances the operator to
// infinity, flushing blocking operators. The returned items complete the
// output history and are valid until the next call on this monitor.
//
// Finish is terminal: no repair follows an output guarantee of ∞, so the
// operator is compacted past its last Advance and then let go with the
// repair state (see Stop); Metrics keep their final values.
func (m *Monitor) Finish() []event.Event {
	return m.finish(false, nil)
}

// FinishTaggedInto is Finish for sharded execution: the closing output is
// appended to sink, with its order tags when tag is set (see
// PushTaggedInto).
func (m *Monitor) FinishTaggedInto(tag bool, sink *Burst) {
	m.finish(tag, sink)
}

func (m *Monitor) finish(tag bool, sink *Burst) []event.Event {
	if m.done {
		return nil
	}
	m.beginCall(tag, sink)
	for _, be := range m.buffer {
		m.admit(be.port, be.ev)
	}
	m.buffer = nil
	m.step++
	m.emit(temporal.Infinity, m.seq, tagAdvance, m.op.Advance(temporal.Infinity))
	m.met.OutputCTIs++
	m.step++
	m.out = append(m.out, event.NewCTI(temporal.Infinity))
	m.appendTag(tagCTI, 0, nil)
	m.sampleState()
	m.op.Compact(m.op.Mark())
	out := m.endCall()
	m.Stop()
	return out
}

// Stop ends the monitor without flushing: it lets go of the operator, the
// log, the buffers and the repair state (Finish ends with it; a runtime
// calls it on a panicked operator). Metrics and Window keep their values;
// later calls are no-ops.
func (m *Monitor) Stop() {
	m.done = true
	m.op, m.advKey, m.out, m.sink = nil, nil, nil, nil
	m.log, m.undo, m.dirty, m.free, m.emitted, m.gen, m.buffer = nil, nil, nil, nil, nil, nil, nil
}
