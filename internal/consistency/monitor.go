package consistency

import (
	"sort"

	"repro/internal/event"
	"repro/internal/operators"
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
// The boxes are three types. Monitor holds the alignment buffer and the
// level policy that fills and releases it: the input guarantees, the
// frontiers, and the choice per item to hold, admit, repair or drop. Its
// window (see window) holds the base version, the input log and the
// operational module, and alone versions the operator. Its tagSink carries
// the output and the output guarantees into a Burst, ordered for sharded
// merging.
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
// At common sync points all levels have output the same state, which is
// what makes the levels seamlessly switchable (Section 5); the tests verify
// this against a frozen reference implementation, item for item.
//
// The slices returned by Push, SetSpec and Finish alias an internal buffer
// and are valid only until the next call on this monitor; callers must copy
// what they keep.
type Monitor struct {
	spec   Spec
	buffer []bufEntry // alignment buffer, sorted by Sync (equal Syncs in arrival order)

	portG         []temporal.Time
	guarantee     temporal.Time
	frontier      temporal.Time // max Sync observed (incl. buffered)
	processedSync temporal.Time // max Sync fed to the live operator
	seq           int
	now           temporal.Time // current CEDR time

	win   window  // base version, input log and operational module
	sink  tagSink // where every call emits its output
	plain *Burst  // the output of the plain Push, SetSpec and Finish (made on first use)
	held  int     // buffer + live log window at the last sampleState (see Window)

	done bool // Finish or Stop has run: the monitor is terminal (see Stop)
	met  Metrics
}

type bufEntry struct {
	port    int
	ev      event.Event
	arrival temporal.Time
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
	m := &Monitor{
		spec:          spec,
		portG:         portG,
		guarantee:     temporal.MinTime,
		frontier:      temporal.MinTime,
		processedSync: temporal.MinTime,
		win:           newWindow(op),
	}
	if ao, ok := op.(operators.AdvanceOrdered); ok {
		m.sink.advKey = ao.AppendAdvanceKey
	}
	m.sink.met = &m.met
	return m
}

// Metrics returns a snapshot of the monitor's counters.
func (m *Monitor) Metrics() Metrics { return m.met }

// Op returns the operator the monitor drives; nil once it has stopped.
func (m *Monitor) Op() operators.Versioned { return m.win.op }

// CurState returns the live state-size counter alone, without copying the
// full Metrics struct — the sharded runtime samples it once per input item
// for its per-item state traces, where the struct copy is measurable.
func (m *Monitor) CurState() int { return m.met.CurState }

// Window returns the alignment buffer plus the live log window, as sampled
// with CurState at the end of the last call (Finish releases the log, so a
// live count would not match the sample). Sharded metric combination needs
// it: every shard buffers and logs the whole input, but the single-shard
// equivalent state counts it once.
func (m *Monitor) Window() int { return m.held }

// SetSpec switches the consistency level at runtime. The paper observes
// that at common sync points every level holds the same output state, so
// switching at a sync point is seamless; switching between sync points
// changes only how pending and future input is treated. A loosened blocking
// bound may release buffered events, which are returned. The returned slice
// is valid until the next call on this monitor.
func (m *Monitor) SetSpec(s Spec) []event.Event {
	m.SetSpecTaggedInto(s, false, m.plainBurst())
	return m.plainOut()
}

// SetSpecTaggedInto is SetSpec for sharded execution: released output is
// appended to sink, with its order tags when tag is set (see
// PushTaggedInto).
func (m *Monitor) SetSpecTaggedInto(s Spec, tag bool, sink *Burst) {
	if m.done {
		return
	}
	m.begin(tag, sink)
	m.spec = s
	m.release(m.timedOut())
	m.trimMemory()
	m.sampleState()
}

// Push delivers one physical stream item (data or CTI) to port. The item's
// C.Start must carry its CEDR arrival time. It returns the physical output
// items, stamped with the current CEDR time. The returned slice is valid
// until the next call on this monitor.
func (m *Monitor) Push(port int, e event.Event) []event.Event {
	m.PushTaggedInto(port, e, false, m.plainBurst())
	return m.plainOut()
}

// PushTaggedInto is Push for sharded execution. Every shard's monitor is
// driven through the same calls — the whole input, punctuation and control
// included — and its operator processes only the keys it owns, so sibling
// monitors take the same steps for their whole life and each emits the
// key-restricted slice of one un-sharded monitor's output.
//
// When tag is set, each output item carries an order tag: the monitor's
// step count at emission (see tagSink.step), the phase, and a sub-key (the
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
	if port < 0 || port >= len(m.portG) || m.done {
		return
	}
	m.now = max(m.now, e.C.Start)
	m.begin(tag, sink)
	if e.IsCTI() {
		m.met.InputCTIs++
		m.pushCTI(port, e.Sync())
	} else {
		m.met.InputEvents++
		m.pushData(port, e)
	}
	m.trimMemory()
	m.sampleState()
}

// begin points the sink at one externally driven call's burst, with or
// without order tags, stamping the call's outputs with the current CEDR
// time.
func (m *Monitor) begin(tag bool, b *Burst) {
	m.sink.b, m.sink.tagging, m.sink.at = b, tag, temporal.From(m.now)
}

// plainBurst empties and returns the burst the plain calls emit into. An
// engine's monitors are driven only through the tagged calls, so a chain
// carries none.
func (m *Monitor) plainBurst() *Burst {
	if m.plain == nil {
		m.plain = new(Burst)
	}
	m.plain.Evs = m.plain.Evs[:0]
	return m.plain
}

// plainOut returns the last plain call's output, nil when there is none
// (so callers can tell "no output" cheaply).
func (m *Monitor) plainOut() []event.Event {
	if len(m.plain.Evs) == 0 {
		return nil
	}
	return m.plain.Evs
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
	m.sink.step++
	i := m.win.insertLog(logItem{marker: true, t: g, key: max(g, m.processedSync), seq: m.nextSeq()})
	m.win.drive(i, &m.sink)
	m.win.seal(i, m.versioning())
	// Absorb everything the guarantee finalizes into the checkpoint.
	m.win.checkpointTo(g, &m.sink)
	// Timed-out releases may also be due (the guarantee moved the frontier).
	m.release(m.timedOut())
	m.sink.cti(m.win.op.OutputGuarantee(g))
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
	m.sink.step++
	i := m.win.insertLog(logItem{port: port, ev: e, seq: m.nextSeq(), opt: m.spec.B != Unbounded})
	if e.Sync() >= m.processedSync {
		// Fast path: the item extends the sorted window.
		m.win.drive(i, &m.sink)
		m.win.seal(i, m.versioning())
		m.processedSync = e.Sync()
		return
	}
	// Straggler: roll back to its predecessor and replay.
	m.met.Replays++
	m.win.repair(i, &m.sink)
}

// versioning reports whether an item admitted in order should record a
// version: only where a straggler can follow it — optimistic levels (B < ∞)
// with memory to repair (M > 0). Strong admits in order and Weak(0) drops
// every straggler, so a version there would never be rolled back to.
func (m *Monitor) versioning() bool {
	return m.spec.B != Unbounded && m.spec.M != 0
}

// trimMemory enforces the M bound: log items older than frontier − M are
// folded into the checkpoint and become unrepairable.
func (m *Monitor) trimMemory() {
	if m.spec.M == Unbounded {
		return
	}
	horizon := m.frontier.Add(-m.spec.M)
	if w := &m.win; w.live() > 0 && w.log[w.head].sync() < horizon {
		w.checkpointTo(horizon, &m.sink)
	}
}

func (m *Monitor) nextSeq() int {
	m.seq++
	return m.seq
}

func (m *Monitor) sampleState() {
	// The undo journal and the items' versions are derived from the log and
	// deliberately excluded, keeping the Figure 8 state axis comparable to
	// the reference semantics.
	m.held = len(m.buffer) + m.win.live()
	cur := m.held + m.win.op.StateSize() + m.win.absState
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
	m.FinishTaggedInto(false, m.plainBurst())
	out := m.plainOut()
	m.plain = nil // the caller keeps the last output
	return out
}

// FinishTaggedInto is Finish for sharded execution: the closing output is
// appended to sink, with its order tags when tag is set (see
// PushTaggedInto).
func (m *Monitor) FinishTaggedInto(tag bool, sink *Burst) {
	if m.done {
		return
	}
	m.begin(tag, sink)
	for _, be := range m.buffer {
		m.admit(be.port, be.ev)
	}
	m.buffer = nil
	m.sink.step++
	m.win.emit(&m.sink, temporal.Infinity, m.seq, tagAdvance, m.win.op.Advance(temporal.Infinity))
	m.sink.cti(temporal.Infinity)
	m.sampleState()
	m.win.finalize()
	m.Stop()
}

// Stop ends the monitor without flushing: it lets go of the operator, the
// log, the alignment buffer and the repair state (Finish ends with it; a
// runtime calls it on a panicked operator). Metrics and Window keep their
// values; later calls are no-ops.
func (m *Monitor) Stop() {
	m.done = true
	m.win, m.sink, m.buffer = window{}, tagSink{}, nil
}
