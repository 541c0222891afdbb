package consistency

import (
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
// matcher journal their own mutations, so a Mark is O(1) and a Rollback
// O(mutations since); reference evaluators and test doubles fall back to a
// clone per Mark; a Stateless operator has nothing to version. The monitor
// holds no second operator — the checkpoint is a base Version of the live
// one, repair snapshots are further Versions, and a repair rewinds the live
// operator in place. The one shortcut on top is repairStateless, which
// skips rollback and replay where a stateless operator's own output is
// provably the whole delta.
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
//   - Repair snapshots: every snapEvery admitted items the monitor marks
//     the operator and copies the net-fact table. A straggler replays from
//     the nearest snapshot at or before its position instead of from the
//     checkpoint, making repair O(straggler depth + snapEvery) rather than
//     O(items since the last guarantee). Snapshot state is a derived cache
//     and is excluded from the Metrics state-size axis.
//
//   - The slices returned by Push, SetSpec and Finish alias an internal
//     buffer and are valid only until the next call on this monitor;
//     callers must copy what they keep.
type Monitor struct {
	op   operators.Versioned // live operator
	spec Spec

	// base is the newest version at or below the absorbed boundary; tail is
	// the index of the first log item after base's boundary. Items in
	// [tail, head) are absorbed but physically retained: a repair falling
	// back to base re-drives them with discarded output (their facts were
	// already finalized), which rebuilds the operator state as of the
	// absorbed boundary.
	base operators.Version
	tail int

	// Snapshot cadence, tunable via WithSnapshotCadence (defaults
	// snapEvery/maxSnaps). snapCadence <= 0 disables repair snapshots.
	snapCadence int
	snapBound   int

	log     []logItem // log[head:] is the live window, sorted by (sync, seq)
	head    int
	emitted map[event.ID]*netFact
	gen     map[event.ID]uint64
	buffer  []bufEntry // alignment buffer, sorted by Sync (stable by seq)

	portG         []temporal.Time
	guarantee     temporal.Time
	frontier      temporal.Time // max Sync observed (incl. buffered)
	processedSync temporal.Time // max Sync fed to the live operator
	absSync       temporal.Time // (sync, seq) key of the last log item folded
	absSeq        int           // into the checkpoint
	seq           int
	now           temporal.Time // current CEDR time

	snaps     []snapshot // repair snapshots, ascending boundary
	sinceSnap int
	dirty     []event.ID              // ids touched by the current repair fold
	spare     map[event.ID]*netFact   // reusable replay table (swapped with emitted)
	tblPool   []map[event.ID]*netFact // recycled snapshot tables

	out       []event.Event // reusable output buffer (valid until next call)
	diffIDs   []event.ID    // reusable diff scratch
	absState  int           // operator state size as of the absorbed boundary
	stateless bool          // op implements operators.Stateless

	// Sharded-execution support (see PushTaggedInto). All of it is inert —
	// and free — on the plain Push path.
	tagging   bool   // current call wants order tags
	sink      *Burst // the *Into variants' output and tag accumulator (nil on the plain path)
	trigger   []byte // tag prefix the current call's outputs nest under
	curClass  byte   // (curClass, curSync, curArr): admit position of the
	curSync   temporal.Time
	curArr    []byte // item whose processing is emitting
	advKey    func(dst []byte, e event.Event) []byte
	probeLog  int // probe items in the live log window (state-size exempt)
	probeBuf  int // probe items in the alignment buffer (state-size exempt)
	markerLog int // guarantee markers in the live log window

	// maxRetractSync/Seq is the (sync, seq) position of the latest
	// retraction in the live window (MinTime when none). The stateless
	// repair shortcut is only sound when no logged retraction lies at or
	// after the straggler — a later retraction may target the straggler's
	// own fresh output, which only a real replay applies — so it consults
	// this high-water mark and falls back to generic replay past it.
	maxRetractSync temporal.Time
	maxRetractSeq  int

	met Metrics
}

// Output-order tag admission classes: within one externally driven call,
// the monitor admits the pushed item itself first, then buffered releases
// (in (Sync, arrival) order), then the guarantee advance, then emits
// punctuation — and emission follows admission. The class byte encodes
// that, making tag order track emission order even when a buffered release
// carries an older Sync than the pushed item (possible after a
// blocking-bound tightening via SetSpec left events in the buffer).
const (
	classPushed    byte = 1
	classRelease   byte = 2
	classGuarantee byte = 3
	classCTI       byte = 4
)

// Output-order tag phases: within one admitted item, the speculative
// Advance's outputs precede the Process outputs, repair diffs stand alone,
// and punctuation comes last.
const (
	tagAdvance byte = 1
	tagDiff    byte = 2
	tagProcess byte = 3
	tagCTI     byte = 4
)

const (
	// snapEvery is the default repair-snapshot cadence in admitted items
	// (override with WithSnapshotCadence).
	snapEvery = 24
	// maxSnaps is the default bound on retained snapshots; the oldest are
	// dropped first (deep stragglers fall back to the checkpoint).
	maxSnaps = 16
	// compactAt triggers log-window compaction once the absorbed prefix
	// outweighs the live window.
	compactAt = 64
)

type logItem struct {
	marker bool
	// probe marks an advance-only marker from a sibling shard: the live path
	// speculatively advanced the operator to its Sync (under an optimistic
	// level) but never called Process, and replay and checkpointing must do
	// the same.
	probe bool
	t     temporal.Time // marker guarantee time (the Advance argument)
	// key is the marker's position in the replay order. A guarantee that
	// arrives after the operator has optimistically advanced beyond it was
	// a no-op live, so it must replay at its live position (the processed
	// frontier at push time), not at its own timestamp — otherwise replay
	// would advance the operator at a point the live run never did.
	key  temporal.Time
	port int
	ev   event.Event
	seq  int
	// opt records whether the live path speculatively advanced the
	// operator before this event (true at non-blocking levels). Replay and
	// checkpointing must reproduce the same calls even if the level has
	// changed since, so the policy travels with the item.
	opt bool
	// stateAfter is the operator's StateSize after this item was applied to
	// the sorted prefix ending at it (repair rewrites it for the replayed
	// suffix): the checkpoint's state size once the item is its boundary.
	stateAfter int
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
	seq     int
	probe   bool
	ext     []byte // external arrival key (sharded execution; owned copy)
}

// netFact entries are stored by pointer and shared freely between the live
// table, the spare table, and snapshot tables — a netFact is immutable once
// published; every update replaces the pointer (copy-on-write). This keeps
// table copies allocation-free pointer shares (a by-value map element this
// large would be stored indirectly by the runtime and heap-allocate on
// every assignment, including pure copies).
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

// snapshot is a repair cache entry: the operator version and net-fact table
// as of the log prefix ending at boundary (bSync, bSeq).
type snapshot struct {
	bSync temporal.Time
	bSeq  int
	// absSync/absSeq record the checkpoint boundary at creation time; when
	// it still matches the monitor's, the table holds no absorbed facts and
	// repair can skip the staleness filter.
	absSync temporal.Time
	absSeq  int
	ver     operators.Version
	tbl     map[event.ID]*netFact
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

// MonitorOption configures a Monitor beyond its consistency level.
type MonitorOption func(*Monitor)

// WithSnapshotCadence overrides the repair-snapshot policy: a snapshot
// every `every` admitted items, keeping at most `max`. every <= 0 disables
// snapshots entirely (repair always rebuilds from the checkpoint state);
// max <= 0 keeps the default bound.
func WithSnapshotCadence(every, max int) MonitorOption {
	return func(m *Monitor) {
		m.snapCadence = every
		if max > 0 {
			m.snapBound = max
		}
	}
}

// NewMonitor wraps op with a consistency monitor at the given level.
func NewMonitor(op operators.Op, spec Spec, opts ...MonitorOption) *Monitor {
	portG := make([]temporal.Time, op.Arity())
	for i := range portG {
		portG[i] = temporal.MinTime
	}
	_, stateless := op.(operators.Stateless)
	var advKey func([]byte, event.Event) []byte
	if ao, ok := op.(operators.AdvanceOrdered); ok {
		advKey = ao.AppendAdvanceKey
	}
	m := &Monitor{
		stateless:      stateless,
		advKey:         advKey,
		op:             operators.AsVersioned(op),
		spec:           spec,
		emitted:        map[event.ID]*netFact{},
		gen:            map[event.ID]uint64{},
		portG:          portG,
		guarantee:      temporal.MinTime,
		frontier:       temporal.MinTime,
		processedSync:  temporal.MinTime,
		absSync:        temporal.MinTime,
		maxRetractSync: temporal.MinTime,
		snapCadence:    snapEvery,
		snapBound:      maxSnaps,
	}
	for _, o := range opts {
		o(m)
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

// CurState returns the live state-size counter alone, without copying the
// full Metrics struct — the sharded runtime samples it once per input item
// for its per-item state traces, where the struct copy is measurable.
func (m *Monitor) CurState() int { return m.met.CurState }

// Guarantee returns the current combined input guarantee.
func (m *Monitor) Guarantee() temporal.Time { return m.guarantee }

// WindowMarkers returns the number of guarantee markers in the live log
// window. Sharded metric combination needs it: punctuation is broadcast, so
// every shard logs the same marker, but the single-shard equivalent state
// counts it once.
func (m *Monitor) WindowMarkers() int { return m.markerLog }

// SetSpec switches the consistency level at runtime. The paper observes
// that at common sync points every level holds the same output state, so
// switching at a sync point is seamless; switching between sync points
// changes only how pending and future input is treated. A loosened blocking
// bound may release buffered events, which are returned. The returned slice
// is valid until the next call on this monitor.
func (m *Monitor) SetSpec(s Spec) []event.Event {
	return m.setSpec(s, nil, nil, nil)
}

// SetSpecTaggedInto is SetSpec for sharded execution: released output is
// appended to sink with its order tags (see PushTaggedInto).
func (m *Monitor) SetSpecTaggedInto(s Spec, arrival, trigger []byte, sink *Burst) {
	m.setSpec(s, arrival, trigger, sink)
}

func (m *Monitor) setSpec(s Spec, arrival, trigger []byte, sink *Burst) []event.Event {
	m.beginCall(arrival, trigger, sink)
	m.spec = s
	m.releaseTimedOut()
	m.trimMemory()
	m.sampleState()
	return m.endCall()
}

// Push delivers one physical stream item (data or CTI) to port. The item's
// C.Start must carry its CEDR arrival time. It returns the physical output
// items, stamped with the current CEDR time. The returned slice is valid
// until the next call on this monitor.
func (m *Monitor) Push(port int, e event.Event) []event.Event {
	return m.push(port, e, nil, nil, false, nil)
}

// PushTaggedInto is Push for sharded execution. arrival is an
// order-preserving byte key (package ordkey) placing this item in the
// global arrival order across all sibling shard monitors; trigger is the
// tag prefix the outputs nest under (nil at the pipeline head). probe marks
// an advance-only marker for an event routed to a sibling shard: the
// monitor advances its operator to the probe's Sync exactly as it would for
// a local event — so every shard observes identical advance boundaries and
// emits identical per-key output — but never calls Process and keeps the
// probe out of every metric and state count.
//
// Each output item carries an order tag; sorting the union of all sibling
// monitors' outputs for one input item by tag reproduces the exact sequence
// a single un-sharded monitor would have emitted (internal/delivery's merge
// stage does this).
//
// Nothing is returned: the call's outputs (CEDR-time-stamped) and their
// order tags are appended to sink, which must not be nil, with the tag
// bytes carved from sink.Arena. A worker accumulates a whole run of input
// items into one Burst this way without any per-output allocation once the
// burst's buffers have grown.
func (m *Monitor) PushTaggedInto(port int, e event.Event, arrival, trigger []byte, probe bool, sink *Burst) {
	m.push(port, e, arrival, trigger, probe, sink)
}

func (m *Monitor) push(port int, e event.Event, arrival, trigger []byte, probe bool, sink *Burst) []event.Event {
	if port < 0 || port >= len(m.portG) {
		return nil
	}
	m.beginCall(arrival, trigger, sink)
	if e.C.Start > m.now {
		m.now = e.C.Start
	}
	if e.IsCTI() {
		m.met.InputCTIs++
		m.pushCTI(port, e.Sync(), arrival)
	} else {
		if !probe {
			m.met.InputEvents++
		}
		m.pushData(port, e, probe, arrival)
	}
	m.trimMemory()
	m.sampleState()
	return m.endCall()
}

// beginCall resets the output buffer and arms or disarms tagging for one
// externally driven call.
func (m *Monitor) beginCall(arrival, trigger []byte, sink *Burst) {
	m.out = m.out[:0]
	m.tagging = arrival != nil
	m.sink = sink
	m.trigger = trigger
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
// (m.curSync, m.curArr) identify the admitted item whose processing is
// emitting.
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
	t = append(t, m.trigger...)
	t = append(t, m.curClass)
	t = ordkey.AppendInt(t, int64(m.curSync))
	t = ordkey.AppendBytes(t, m.curArr)
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

func (m *Monitor) pushCTI(port int, t temporal.Time, arrival []byte) {
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
	m.releaseCovered(g)
	// Record and apply the guarantee itself, positioned where the live
	// operator actually executes it.
	key := g
	if m.processedSync > key {
		key = m.processedSync
	}
	sq := m.nextSeq()
	if m.tagging {
		m.curClass, m.curSync, m.curArr = classGuarantee, key, arrival
	}
	m.insertLog(logItem{marker: true, t: g, key: key, seq: sq})
	m.emit(key, sq, tagAdvance, m.op.Advance(g))
	m.log[len(m.log)-1].stateAfter = m.op.StateSize()
	// Absorb everything the guarantee finalizes into the checkpoint.
	m.checkpointTo(g)
	// Timed-out releases may also be due (the guarantee moved the frontier).
	m.releaseTimedOut()
	og := m.op.OutputGuarantee(g)
	m.met.OutputCTIs++
	if m.tagging {
		// g is identical on every sibling shard (punctuation is broadcast),
		// so the punctuation tags match exactly and the merge collapses the
		// redundant copies to one.
		m.curClass, m.curSync, m.curArr = classCTI, g, arrival
	}
	m.out = append(m.out, event.NewCTI(og))
	m.appendTag(tagCTI, 0, nil)
}

func (m *Monitor) pushData(port int, e event.Event, probe bool, ext []byte) {
	if e.Sync() < m.guarantee {
		if !probe {
			m.met.Violations++
		}
		return
	}
	if e.Sync() > m.frontier {
		m.frontier = e.Sync()
	}
	// Weak levels forget stragglers beyond the memory horizon.
	if m.spec.M != Unbounded && e.Sync() < m.frontier.Add(-m.spec.M) {
		if !probe {
			m.met.Dropped++
		}
		return
	}
	if m.spec.B > 0 && e.Sync() >= m.processedSync {
		// In-order so far: hold for possible stragglers. The buffer is kept
		// sorted by binary insertion (upper bound, so equal Syncs keep
		// arrival order).
		be := bufEntry{port: port, ev: e, arrival: m.now, seq: m.nextSeq(), probe: probe}
		if m.tagging {
			be.ext = append([]byte(nil), ext...)
		}
		if probe {
			m.probeBuf++
		}
		s := e.Sync()
		i := sort.Search(len(m.buffer), func(k int) bool { return m.buffer[k].ev.Sync() > s })
		m.buffer = append(m.buffer, bufEntry{})
		copy(m.buffer[i+1:], m.buffer[i:])
		m.buffer[i] = be
	} else {
		m.admit(classPushed, port, e, probe, ext)
	}
	m.releaseTimedOut()
}

// releaseCovered processes buffered events whose Sync the guarantee covers.
func (m *Monitor) releaseCovered(g temporal.Time) {
	i := 0
	for ; i < len(m.buffer); i++ {
		if m.buffer[i].ev.Sync() > g {
			break
		}
		be := m.buffer[i]
		if be.probe {
			m.probeBuf--
		} else {
			m.met.BlockedEvents++
			m.met.TotalBlocking += m.now.Sub(be.arrival)
		}
		m.admit(classRelease, be.port, be.ev, be.probe, be.ext)
	}
	m.buffer = m.buffer[i:]
}

// releaseTimedOut processes buffered events whose blocking budget B has
// been exhausted by frontier progress.
func (m *Monitor) releaseTimedOut() {
	if len(m.buffer) == 0 || m.spec.B == Unbounded {
		return
	}
	i := 0
	for ; i < len(m.buffer); i++ {
		be := m.buffer[i]
		if be.ev.Sync().Add(m.spec.B) >= m.frontier {
			break
		}
		if be.probe {
			m.probeBuf--
		} else {
			m.met.BlockedEvents++
			m.met.TotalBlocking += m.now.Sub(be.arrival)
		}
		m.admit(classRelease, be.port, be.ev, be.probe, be.ext)
	}
	m.buffer = m.buffer[i:]
}

// admit feeds one event to the live operator, via the fast path when it is
// in order and via snapshot rollback and replay when it is a straggler.
// Probes advance but never Process.
func (m *Monitor) admit(class byte, port int, e event.Event, probe bool, ext []byte) {
	li := logItem{port: port, probe: probe, ev: e, seq: m.nextSeq(), opt: m.spec.B != Unbounded}
	if m.tagging {
		m.curClass, m.curSync, m.curArr = class, e.Sync(), ext
	}
	if e.Sync() >= m.processedSync {
		// Fast path: the item extends the sorted window.
		m.insertLog(li)
		src := e.Sync()
		if li.opt {
			m.emit(src, li.seq, tagAdvance, m.op.Advance(src))
		}
		if !probe {
			m.emit(src, li.seq, tagProcess, m.op.Process(port, e))
		}
		m.log[len(m.log)-1].stateAfter = m.op.StateSize()
		m.processedSync = src
		m.maybeSnapshot()
		return
	}
	// Straggler: roll back to the nearest snapshot and replay.
	if !probe {
		m.met.Replays++
	}
	m.insertLog(li)
	if m.stateless {
		if li.probe {
			// A probe has no Process call, so replaying it through a
			// stateless operator cannot change the net-fact table; logging
			// it (above) is all a future replay needs.
			return
		}
		if m.repairStateless(li) {
			return
		}
	}
	m.repair(li)
}

// repairStateless handles a straggler through a stateless operator without
// rollback or replay: the operator's outputs depend only on the input, so
// the straggler's own outputs are the complete delta — provided none of
// them collides with existing state, where fold order against later items
// would matter (then the generic replay decides). It reports whether the
// repair was completed.
func (m *Monitor) repairStateless(li logItem) bool {
	// A retraction logged at or after the straggler's position may target
	// the straggler's own output — an interaction only a real replay
	// applies in the right order. (A retraction straggler is itself already
	// in the log, so retraction stragglers always take the generic path.)
	if keyLE(li.sync(), li.seq, m.maxRetractSync, m.maxRetractSeq) {
		return false
	}
	// A full replay would advance the rolled-back operator to li's sync
	// before processing it; for a stateless operator Advance emits nothing
	// and keeps no frontier, so Process on the live operator is identical.
	outs := m.op.Process(li.port, li.ev)
	for _, e := range outs {
		nf, ok := m.emitted[e.ID]
		if ok && keyLE(nf.srcSync, nf.srcSeq, li.sync(), li.seq) {
			// The fact this output lands on was produced at or before the
			// straggler's replay position; the net result depends on the
			// per-id fold order. Fall back to the generic path.
			return false
		}
		if !ok && e.Kind == event.Retract {
			continue // retracting an absent fact is a no-op at any position
		}
		// ok && producer after the straggler: a later producer overwrites
		// whatever the straggler contributes — also a no-op.
	}
	// Emit exactly what the reference replay's diff would: the brand-new
	// facts, in ascending fact-ID order, under the retired-generation
	// counter, counted as plain inserts.
	ids := m.diffIDs[:0]
	for _, e := range outs {
		if _, ok := m.emitted[e.ID]; !ok && e.Kind != event.Retract {
			ids = append(ids, e.ID)
		}
	}
	slices.Sort(ids)
	m.diffIDs = ids
	src, sq := li.sync(), li.seq
	var prev event.ID
	for i, id := range ids {
		if i > 0 && id == prev {
			continue
		}
		prev = id
		// Fold semantics: the last insert for an id wins.
		last := -1
		for j, e := range outs {
			if e.ID == id && e.Kind != event.Retract {
				last = j
			}
		}
		e := outs[last]
		ng := m.gen[id]
		ins := e
		ins.ID = event.Pair(id, event.ID(ng))
		m.out = append(m.out, ins)
		m.appendTag(tagDiff, id, nil)
		m.met.OutputInserts++
		m.emitted[id] = &netFact{ev: e, gen: ng, srcSync: src, srcSeq: sq}
	}
	return true
}

// repair rolls the live operator back to the latest snapshot preceding the
// straggler li (falling back to the base version), replays the log suffix
// through it, and emits the compensating deltas.
func (m *Monitor) repair(li logItem) {
	s, q := li.sync(), li.seq
	// Snapshots whose prefix spans the straggler's position were built
	// without it and are no longer reachable states.
	for n := len(m.snaps); n > 0 && !keyLE(m.snaps[n-1].bSync, m.snaps[n-1].bSeq, s, q); n-- {
		m.recycle(m.snaps[n-1].tbl)
		m.snaps[n-1] = snapshot{}
		m.snaps = m.snaps[:n-1]
	}
	// A base rewind re-drives the retained absorbed items [tail, head) to
	// rebuild the state at the absorbed boundary. replay marks where
	// folding begins: the facts of items before it are final, so their
	// outputs are discarded.
	start, replay := m.tail, m.head
	// bSync/bSeq is the replay's start boundary: facts whose producer is at
	// or before it are inherited and cannot silently vanish, so the diff
	// only needs to visit fold-touched ids plus live facts produced by the
	// replayed suffix.
	bSync, bSeq := m.absSync, m.absSeq
	ver := m.base
	tbl := m.spare
	if tbl == nil {
		tbl = m.takeTable(len(m.emitted) + 8)
	} else {
		clear(tbl)
	}
	m.spare = nil
	m.dirty = m.dirty[:0]
	if n := len(m.snaps); n > 0 {
		sn := m.snaps[n-1]
		ver = sn.ver
		for id, nf := range sn.tbl {
			tbl[id] = nf
		}
		start = m.searchAfter(sn.bSync, sn.bSeq)
		replay = start
		bSync, bSeq = sn.bSync, sn.bSeq
		if sn.absSync != m.absSync || sn.absSeq != m.absSeq {
			// The snapshot predates a checkpoint; drop facts the checkpoint
			// has already finalized so the table matches a replay from the
			// current checkpoint.
			for id, nf := range tbl {
				if keyLE(nf.srcSync, nf.srcSeq, m.absSync, m.absSeq) {
					delete(tbl, id)
				}
			}
		}
	}
	if !m.op.Rollback(ver) {
		panic("consistency: retained version no longer rollbackable")
	}
	m.sinceSnap = 0
	var created []map[event.ID]*netFact
	for i := start; i < len(m.log); i++ {
		item := m.log[i]
		into := tbl
		if i < replay {
			into = nil // absorbed: drive the operator, discard the output
		}
		if item.marker {
			m.foldInto(into, item.key, item.seq, m.op.Advance(item.t))
		} else {
			if item.opt {
				m.foldInto(into, item.ev.Sync(), item.seq, m.op.Advance(item.ev.Sync()))
			}
			if !item.probe {
				m.foldInto(into, item.ev.Sync(), item.seq, m.op.Process(item.port, item.ev))
			}
		}
		// The straggler shifted every later prefix: re-record the checkpoint
		// state sizes along the new timeline.
		m.log[i].stateAfter = m.op.StateSize()
		if into == nil {
			continue
		}
		// Re-seed the snapshot cache as the replay walks forward, so
		// straggler bursts do not degenerate to checkpoint replays.
		m.sinceSnap++
		if m.sinceSnap >= m.snapCadence && i+1 < len(m.log) && m.wantSnapshots() {
			created = append(created, m.addSnapshot(item.sync(), item.seq, tbl))
		}
	}
	// Live facts produced by the replayed suffix either got re-derived
	// (then fold sharing makes them pointer-equal and diff skips them) or
	// vanished in the new timeline; either way they are diff candidates.
	// Facts from before the boundary are inherited bit-identical and need
	// no visit unless the fold touched them.
	for id, nf := range m.emitted {
		if !keyLE(nf.srcSync, nf.srcSeq, bSync, bSeq) {
			m.dirty = append(m.dirty, id)
		}
	}
	m.diff(tbl)
	// Snapshots taken during this replay captured entries before diff
	// patched their generations. Re-point them at the live entries where
	// they denote the same fact, so a later repair inheriting them below
	// its boundary carries the correct generation without a diff visit.
	for _, ct := range created {
		for id, nf := range ct {
			if live, ok := tbl[id]; ok && nf != live && nf.gen != live.gen &&
				nf.srcSync == live.srcSync && nf.srcSeq == live.srcSeq &&
				nf.ev.Identical(live.ev) {
				ct[id] = live
			}
		}
	}
	// The old live table becomes the next repair's scratch; its buckets are
	// reused instead of reallocated.
	m.spare = m.emitted
	m.emitted = tbl
}

// insertLog places li at its (sync, seq) position in the live window by
// binary search. The new item carries the largest seq ever issued, so the
// upper bound after its key is its unique position; fast-path items land at
// the end with zero movement.
func (m *Monitor) insertLog(li logItem) {
	if li.probe {
		m.probeLog++
	}
	if li.marker {
		m.markerLog++
	}
	if !li.marker && !li.probe && li.ev.Kind == event.Retract {
		s := li.ev.Sync()
		if s > m.maxRetractSync || (s == m.maxRetractSync && li.seq > m.maxRetractSeq) {
			m.maxRetractSync, m.maxRetractSeq = s, li.seq
		}
	}
	ls := li.sync()
	// Fast path: the item extends the window in order (the overwhelmingly
	// common case — every admit fast-path item and every released buffer
	// entry lands here), so the binary search and the shift are skipped.
	if n := len(m.log); n == m.head {
		m.log = append(m.log, li)
		return
	} else if ts := m.log[n-1].sync(); ts < ls || (ts == ls && m.log[n-1].seq <= li.seq) {
		m.log = append(m.log, li)
		return
	}
	i := m.searchAfter(ls, li.seq)
	m.log = append(m.log, logItem{})
	copy(m.log[i+1:], m.log[i:])
	m.log[i] = li
}

// searchAfter returns the index of the first window item ordered after the
// (sync, seq) boundary.
func (m *Monitor) searchAfter(bSync temporal.Time, bSeq int) int {
	return sort.Search(len(m.log)-m.head, func(k int) bool {
		it := &m.log[m.head+k]
		return !keyLE(it.sync(), it.seq, bSync, bSeq)
	}) + m.head
}

func (m *Monitor) wantSnapshots() bool {
	// Snapshots only pay off where repair can happen: optimistic levels
	// (B < ∞) with memory to repair (M > 0). Strong never replays; weak(0)
	// drops every straggler. Stateless operators repair without replay, so
	// they skip the cache entirely. A non-positive cadence disables the
	// cache outright.
	return m.spec.B != Unbounded && m.spec.M != 0 && !m.stateless && m.snapCadence > 0
}

// maybeSnapshot records a repair snapshot at the current end of the log
// every snapCadence admitted items: a Mark of the operator and a copy of
// the net-fact table.
func (m *Monitor) maybeSnapshot() {
	if !m.wantSnapshots() {
		return
	}
	m.sinceSnap++
	if m.sinceSnap < m.snapCadence || len(m.log) == m.head {
		return
	}
	last := &m.log[len(m.log)-1]
	m.addSnapshot(last.sync(), last.seq, m.emitted)
}

// addSnapshot records the live operator's version and a copy of tbl, which
// it returns, as the snapshot of the log prefix ending at (bSync, bSeq). A
// full cache evicts its oldest entry first: that version lies between base
// and the kept snapshots, so no Compact will ever cover it and it must be
// released by name.
func (m *Monitor) addSnapshot(bSync temporal.Time, bSeq int, tbl map[event.ID]*netFact) map[event.ID]*netFact {
	if len(m.snaps) >= m.snapBound {
		m.op.Release(m.snaps[0].ver)
		m.dropSnaps(1)
	}
	ct := m.copyTable(tbl)
	m.snaps = append(m.snaps, snapshot{bSync: bSync, bSeq: bSeq,
		absSync: m.absSync, absSeq: m.absSeq, ver: m.op.Mark(), tbl: ct})
	m.sinceSnap = 0
	return ct
}

// copyTable duplicates a net-fact table (sharing the immutable entries),
// preferring a recycled map from discarded snapshots over a fresh
// allocation.
func (m *Monitor) copyTable(tbl map[event.ID]*netFact) map[event.ID]*netFact {
	out := m.takeTable(len(tbl))
	for id, nf := range tbl {
		out[id] = nf
	}
	return out
}

// takeTable returns an empty net-fact table: a recycled one when the pool
// has any, else a fresh one sized for n entries.
func (m *Monitor) takeTable(n int) map[event.ID]*netFact {
	if k := len(m.tblPool); k > 0 {
		tbl := m.tblPool[k-1]
		m.tblPool[k-1] = nil
		m.tblPool = m.tblPool[:k-1]
		clear(tbl)
		return tbl
	}
	return make(map[event.ID]*netFact, n)
}

// dropSnaps discards the n oldest snapshots, recycling their tables.
func (m *Monitor) dropSnaps(n int) {
	for i := 0; i < n; i++ {
		m.recycle(m.snaps[i].tbl)
	}
	k := copy(m.snaps, m.snaps[n:])
	clear(m.snaps[k:])
	m.snaps = m.snaps[:k]
}

// recycle returns a snapshot table to the pool.
func (m *Monitor) recycle(tbl map[event.ID]*netFact) {
	if tbl == nil || len(m.tblPool) >= m.snapBound {
		return
	}
	m.tblPool = append(m.tblPool, tbl)
}

// checkpointTo absorbs every log item with Sync <= g into the checkpoint.
// No operator is driven: the base version slides forward to the newest mark
// at or below the new boundary and the history below it is compacted.
// Instead of replaying the remaining suffix to rebuild the net-emitted
// table, it drops the facts the absorbed prefix produced — each fact
// records its source item's Sync — which is equivalent and O(table).
func (m *Monitor) checkpointTo(g temporal.Time) {
	cut := m.head
	for cut < len(m.log) && m.log[cut].sync() <= g {
		if m.log[cut].probe {
			m.probeLog--
		}
		if m.log[cut].marker {
			m.markerLog--
		}
		cut++
	}
	if cut == m.head {
		return
	}
	ls, lq := m.log[cut-1].sync(), m.log[cut-1].seq
	if cut == len(m.log) || m.stateless {
		// Every window item is absorbed (or there is no state to be ahead
		// of the boundary): the live operator state IS the new checkpoint.
		// Re-mark the base here and drop the whole snapshot cache — every
		// snapshot's prefix is covered by the new base, and compacting to
		// the fresh mark would invalidate their versions anyway.
		m.dropSnaps(len(m.snaps))
		m.base = m.op.Mark()
		m.tail = cut
	} else {
		// Snapshots that do not cover the absorbed prefix would need
		// discarded log items to replay; drop them. The newest dropped
		// snapshot becomes the base: the closest version at or below the
		// new absorbed boundary.
		keep := 0
		for keep < len(m.snaps) && !keyLE(ls, lq, m.snaps[keep].bSync, m.snaps[keep].bSeq) {
			keep++
		}
		if keep > 0 {
			m.base = m.snaps[keep-1].ver
			m.tail = m.searchAfter(m.snaps[keep-1].bSync, m.snaps[keep-1].bSeq)
			m.dropSnaps(keep)
		}
	}
	m.head = cut
	m.absSync, m.absSeq = ls, lq
	// The latest retraction is the max over the window: if it fell inside
	// the absorbed prefix, so did every other retraction.
	if keyLE(m.maxRetractSync, m.maxRetractSeq, ls, lq) {
		m.maxRetractSync, m.maxRetractSeq = temporal.MinTime, 0
	}
	// Facts produced by the absorbed prefix are final; forget them. This is
	// exactly the table a replay of the remaining suffix over the new
	// checkpoint would build.
	for id, nf := range m.emitted {
		if keyLE(nf.srcSync, nf.srcSeq, ls, lq) {
			delete(m.emitted, id)
		}
	}
	m.absState = m.log[cut-1].stateAfter
	m.op.Compact(m.base)
	// Amortized compaction of the log prefix below the base boundary
	// (items in [tail, head) must stay: a base rewind re-drives them).
	if m.tail >= compactAt && m.tail >= len(m.log)-m.tail {
		n := copy(m.log, m.log[m.tail:])
		clear(m.log[n:])
		m.log = m.log[:n]
		m.head -= m.tail
		m.tail = 0
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

// emit records freshly produced operator output in the net-emitted table
// and appends the physical items — IDs rewritten with the fact's current
// generation, so that a removed-and-reinserted fact never reuses a physical
// ID (the paper's new-K-chain rule from Figure 2) — to the output buffer.
// (srcSync, srcSeq) is the key of the log item whose processing produced
// the output.
func (m *Monitor) emit(srcSync temporal.Time, srcSeq int, phase byte, outs []event.Event) {
	for _, e := range outs {
		gid := m.genOf(e.ID)
		if e.Kind == event.Retract {
			m.met.OutputRetractions++
			if nf, ok := m.emitted[e.ID]; ok {
				if e.V.End <= nf.ev.V.Start {
					m.gen[e.ID] = nf.gen + 1 // retire this generation
					delete(m.emitted, e.ID)
				} else {
					shrunk := *nf // copy-on-write: nf may be shared with snapshots
					shrunk.ev.V.End = e.V.End
					m.emitted[e.ID] = &shrunk
				}
			}
		} else {
			m.met.OutputInserts++
			m.emitted[e.ID] = &netFact{ev: e, gen: gid, srcSync: srcSync, srcSeq: srcSeq}
		}
		m.appendTag(phase, e.ID, &e)
		r := e
		r.ID = event.Pair(e.ID, event.ID(gid))
		m.out = append(m.out, r)
	}
}

func (m *Monitor) genOf(id event.ID) uint64 {
	if nf, ok := m.emitted[id]; ok {
		return nf.gen
	}
	return m.gen[id]
}

// foldInto applies operator outputs to a net-fact table without emitting
// (a nil table discards them). When a replayed output reproduces the live
// table's entry exactly, the existing entry is shared instead of allocating
// a new one; diff then recognizes untouched facts by pointer identity and
// skips them.
func (m *Monitor) foldInto(tbl map[event.ID]*netFact, srcSync temporal.Time, srcSeq int, outs []event.Event) {
	if tbl == nil {
		return
	}
	for _, e := range outs {
		if e.Kind == event.Retract {
			if nf, ok := tbl[e.ID]; ok {
				m.dirty = append(m.dirty, e.ID)
				if e.V.End <= nf.ev.V.Start {
					delete(tbl, e.ID)
				} else {
					shrunk := *nf // copy-on-write: nf may be shared with snapshots
					shrunk.ev.V.End = e.V.End
					tbl[e.ID] = &shrunk
				}
			}
			continue
		}
		if d, ok := m.emitted[e.ID]; ok && d.srcSync == srcSync && d.srcSeq == srcSeq && d.ev.Identical(e) {
			tbl[e.ID] = d
			continue
		}
		m.dirty = append(m.dirty, e.ID)
		tbl[e.ID] = &netFact{ev: e, srcSync: srcSync, srcSeq: srcSeq}
	}
}

// diff compares the previously emitted net facts against the replayed net
// facts and appends the compensating physical deltas: retractions for facts
// that shrank or vanished, fresh inserts (under a bumped generation) for
// facts that appeared or changed shape. Only the ids in m.dirty — the
// candidates the repair fold collected — can differ; everything else is
// inherited or re-derived as the identical shared entry.
func (m *Monitor) diff(next map[event.ID]*netFact) {
	ids := append(m.diffIDs[:0], m.dirty...)
	slices.Sort(ids)
	m.diffIDs = ids

	var prev event.ID
	first := true
	for _, id := range ids {
		if !first && id == prev {
			continue // dirty list may hold duplicates
		}
		prev, first = id, false
		old, hadOld := m.emitted[id]
		nw, hasNew := next[id]
		if !hadOld && !hasNew {
			continue // touched during the fold but net-absent on both sides
		}
		if hadOld && old == nw {
			// Shared entry: the replay reproduced this fact bit for bit
			// (same generation included); nothing to emit or patch.
			continue
		}
		switch {
		case hadOld && !hasNew:
			r := old.ev
			r.Kind = event.Retract
			r.V.End = r.V.Start
			r.ID = event.Pair(id, event.ID(old.gen))
			m.out = append(m.out, r)
			m.appendTag(tagDiff, id, nil)
			m.met.OutputRetractions++
			m.met.Compensations++
			m.gen[id] = old.gen + 1
		case !hadOld && hasNew:
			ng := m.gen[id]
			ins := nw.ev
			ins.ID = event.Pair(id, event.ID(ng))
			if nw.gen != ng {
				cp := *nw
				cp.gen = ng
				next[id] = &cp
			}
			m.out = append(m.out, ins)
			m.appendTag(tagDiff, id, nil)
			m.met.OutputInserts++
		case old.ev.SameFact(nw.ev):
			if nw.gen != old.gen {
				cp := *nw
				cp.gen = old.gen
				next[id] = &cp
			}
		case nw.ev.V.Start == old.ev.V.Start && nw.ev.V.End < old.ev.V.End && nw.ev.Payload.Equal(old.ev.Payload):
			r := old.ev
			r.Kind = event.Retract
			r.V.End = nw.ev.V.End
			r.ID = event.Pair(id, event.ID(old.gen))
			m.out = append(m.out, r)
			m.appendTag(tagDiff, id, nil)
			m.met.OutputRetractions++
			m.met.Compensations++
			if nw.gen != old.gen {
				cp := *nw
				cp.gen = old.gen
				next[id] = &cp
			}
		default:
			// Shape changed: remove and reinsert under a new generation.
			r := old.ev
			r.Kind = event.Retract
			r.V.End = r.V.Start
			r.ID = event.Pair(id, event.ID(old.gen))
			m.out = append(m.out, r)
			m.appendTag(tagDiff, id, nil)
			m.met.OutputRetractions++
			m.met.Compensations++
			ng := old.gen + 1
			ins := nw.ev
			ins.ID = event.Pair(id, event.ID(ng))
			m.out = append(m.out, ins)
			m.appendTag(tagDiff, id, nil)
			m.met.OutputInserts++
			cp := *nw
			cp.gen = ng
			next[id] = &cp
			m.gen[id] = ng
		}
	}
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
	// Snapshot state is a derived cache (bounded by maxSnaps) and is
	// deliberately excluded, keeping the Figure 8 state axis comparable to
	// the reference semantics. Probes are a sibling shard's events seen
	// through a keyhole — the sibling counts them, so this monitor must not.
	cur := (len(m.buffer) - m.probeBuf) + (len(m.log) - m.head - m.probeLog) +
		m.op.StateSize() + m.absState
	m.met.CurState = cur
	if cur > m.met.MaxState {
		m.met.MaxState = cur
	}
}

// Finish closes the stream: it releases every buffered event (as if a final
// guarantee covered the whole stream) and advances the operator to
// infinity, flushing blocking operators. The returned items complete the
// output history and are valid until the next call on this monitor.
func (m *Monitor) Finish() []event.Event {
	return m.finish(nil, nil, nil)
}

// FinishTaggedInto is Finish for sharded execution: the closing output is
// appended to sink with its order tags (see PushTaggedInto).
func (m *Monitor) FinishTaggedInto(arrival, trigger []byte, sink *Burst) {
	m.finish(arrival, trigger, sink)
}

func (m *Monitor) finish(arrival, trigger []byte, sink *Burst) []event.Event {
	m.beginCall(arrival, trigger, sink)
	for _, be := range m.buffer {
		if be.probe {
			m.probeBuf--
		}
		m.admit(classRelease, be.port, be.ev, be.probe, be.ext)
	}
	m.buffer = nil
	if m.tagging {
		m.curClass, m.curSync, m.curArr = classGuarantee, temporal.Infinity, arrival
	}
	m.emit(temporal.Infinity, m.seq, tagAdvance, m.op.Advance(temporal.Infinity))
	m.met.OutputCTIs++
	if m.tagging {
		m.curClass = classCTI
	}
	m.out = append(m.out, event.NewCTI(temporal.Infinity))
	m.appendTag(tagCTI, 0, nil)
	m.sampleState()
	return m.endCall()
}
