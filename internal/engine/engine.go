// Package engine executes CEDR query plans: it routes each incoming data
// event to the standing queries whose plans can react to it (the fabric's
// routing index, fabric.go — the one delivery path) and punctuation to
// every query, drives each query's chain of consistency-monitored
// operators, and collects outputs and metrics. Every
// chain runs on the shard runtime (shard.go): with one shard, inline on the
// pushing goroutine; with more, on worker goroutines behind a deterministic
// merge. Both emit the same output.
//
// Standing-query fabric: registration is split into two layers. A *chain*
// is one executing operator pipeline (the shard runtime), the one history
// of its output, and the one list of subscriptions to it; a *Query* is one
// registered endpoint — a window [from, cut) over its chain's history.
// Registrations made with plan.WithSharing that carry the same sharing
// identity (plan.Key) attach to one shared chain, so N identical
// registrations cost one execution and one history; each Query still has
// its own window, Subscribe callbacks, and Err. Lock order: pushMu →
// Engine.mu → chain.mu.
package engine

import (
	"fmt"
	"iter"
	"math"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/consistency"
	"repro/internal/event"
	"repro/internal/operators"
	"repro/internal/plan"
	"repro/internal/stream"
	"repro/internal/temporal"
	"repro/internal/wal"
)

// Engine hosts standing queries.
type Engine struct {
	mu      sync.RWMutex
	queries []*Query            // every registration ever, nil once unregistered (stable WAL indices)
	chains  []*chain            // live execution chains; removal copies (snapshots stay valid)
	groups  map[plan.Key]*chain // sharing identity → its shared chain
	shards  int                 // default shard count for queries that don't request one
	fabric  fabric              // routing index over chains: every data item's delivery path
	hist    historyCounters     // what every chain has appended to its history
	stopped matcherCounters     // composite lookups of every head that has stopped
	live    int                 // registered endpoints, less the unregistered

	// Durability (see durability.go). log is attached once, by Restore,
	// before the engine is shared; nil means durability is off and the hot
	// path stays exactly as before (one nil check per Push).
	log      *wal.Log
	base     []byte     // the restored snapshot's records, a snapshot's body before the log's
	logFrom  int64      // the log file's offset of its first record past base
	seq      uint64     // sequence of the last applied record
	walErr   error      // first WAL failure; the engine fails stop
	pushMu   sync.Mutex // durable engines: serializes log order = apply order
	closed   bool
	finished bool
}

// historyCounters count what an engine's chains append to their histories.
type historyCounters struct{ items, syncs, bytes atomic.Uint64 }

// HistoryStats is what the chains of an engine have appended to their
// histories since it was made: data items, sync points, and the bytes of
// the chunks allocated to hold them.
type HistoryStats struct{ Items, SyncPoints, ChunkBytes uint64 }

// HistoryStats reads the history counters, without locking.
func (e *Engine) HistoryStats() HistoryStats {
	return HistoryStats{e.hist.items.Load(), e.hist.syncs.Load(), e.hist.bytes.Load()}
}

// MatcherStats counts the composite lookups of an engine's pattern
// matchers: composites built, and lookups a join node's cache answered;
// and the running matchers' live undo records and payload-table slots.
type MatcherStats struct{ Composites, CompositeHits, UndoRecords, PayloadEntries uint64 }

// matcherCounters sum matchers' composite lookups. The engine's hold those
// of every head that has stopped (finished, torn down or quarantined) and
// so let go of its matcher, so that the engine's totals never fall.
type matcherCounters struct{ built, hits atomic.Uint64 }

// add adds the composite lookups of a head operator, if it is a matcher (a
// stopped head's is nil).
func (c *matcherCounters) add(op operators.Versioned) {
	if m, ok := unkeyed(op).(interface{ CompositeLookups() (uint64, uint64) }); ok {
		built, hits := m.CompositeLookups()
		c.built.Add(built)
		c.hits.Add(hits)
	}
}

// unkeyed strips a head operator's key filter, if it has one.
func unkeyed(op operators.Versioned) operators.Versioned {
	if k, ok := op.(*ownedKeys); ok {
		return k.Versioned
	}
	return op
}

// MatcherStats sums the matcher counters of every head that has stopped
// and of every running chain, each read once its shards have drained what
// was pushed before the call. It is exact when no chain stops meanwhile.
func (e *Engine) MatcherStats() MatcherStats {
	var run matcherCounters
	var m MatcherStats
	for _, ch := range e.chainsSnapshot() {
		ch.sh.matcherStats(&run, &m)
	}
	m.Composites, m.CompositeHits = run.built.Load()+e.stopped.built.Load(), run.hits.Load()+e.stopped.hits.Load()
	return m
}

// Standing counts the registered endpoints, less the unregistered, and the
// chains they run on, finished ones included.
func (e *Engine) Standing() (queries, chains int) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.live, len(e.chains)
}

// Option adjusts engine construction.
type Option func(*Engine)

// WithShards sets the default shard count for registered queries whose
// plans are key-partitionable and do not request an explicit count via
// plan.WithShards. Pass plan.AutoShards to let each registration pick its
// count from the plan's cost estimate and the available cores.
func WithShards(n int) Option {
	return func(e *Engine) { e.shards = n }
}

// New creates an empty engine.
func New(opts ...Option) *Engine {
	e := &Engine{}
	for _, o := range opts {
		o(e)
	}
	return e
}

// RegisterText compiles CEDR query text and registers it as a standing
// query: the one way a query enters an engine (recovery re-registers the
// logged text the same way). On a durable engine the registration is
// logged ahead of taking effect. The semantic analysis is cached by source
// text and bindings (plan.Prepare), so re-registering the same query — on
// this engine or another — skips parsing and analysis.
//
// Ordering guarantee: RegisterText is safe to call concurrently with Push.
// The new query observes every item pushed after RegisterText returns and
// none pushed before it was called; items pushed concurrently with the call
// may or may not be observed (each in-flight Push snapshots the chain list
// once, so a query never sees a suffix of one Push's fan-out).
//
// A registration with plan.WithSharing whose sharing identity (plan.Key,
// resolved by plan.Prepare) matches an already-registered chain builds no
// plan and executes nothing of its own: a map lookup finds the chain, and
// the new query attaches as another endpoint of it,
// observing its output from the attachment point onward (pub/sub semantics
// over the warm chain's accumulated state). All others get a private chain.
//
// A plan that requests shards (plan.WithShards, or the engine default) and
// passes partitionability analysis runs key-partitioned on that many
// shards (shard.go); all other plans run on the same runtime with one
// shard.
func (e *Engine) RegisterText(src string, opts ...plan.Option) (*Query, error) {
	r, err := plan.Prepare(src, opts...)
	if err != nil {
		return nil, err
	}
	return e.register(r)
}

// register installs a prepared registration as a standing query;
// RegisterText and WAL replay are its callers. A shareable registration
// whose Key names a running chain attaches to it, which builds no plan;
// any other gets a chain of its own (install). It refuses a registration
// before anything changes once the list, tombstones included, holds
// math.MaxInt32 entries: the largest query id an endpoint keeps.
func (e *Engine) register(r plan.Prepared) (*Query, error) {
	if e.log != nil {
		e.pushMu.Lock()
		defer e.pushMu.Unlock()
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.queries) >= math.MaxInt32 {
		return nil, fmt.Errorf("engine: the registration list holds %d queries, its most", len(e.queries))
	}
	// Durable engines log the registration ahead of installing it, so a
	// recovered engine re-creates the query at the same position in the
	// input sequence. Replay registers before the log is attached.
	if e.log != nil {
		e.logAppend(wal.Record{Kind: wal.KindRegister, Src: r.Key.Src, Opts: r.Opts})
	}
	var key plan.Key
	if r.Opts.Share {
		if ch := e.groups[r.Key]; ch != nil {
			return e.endpoint(ch), nil
		}
		key = r.Key
	}
	return e.install(r.Plan(), key), nil
}

// install builds p's chain — joinable under key unless key is zero — and
// its first endpoint. Caller holds e.mu.
func (e *Engine) install(p *plan.Plan, key plan.Key) *Query {
	ch := e.buildChain(p)
	ch.key = key
	// Attach before publishing the chain, so the first endpoint's window
	// opens at position 0 of a fresh chain's history.
	q := e.endpoint(ch)
	e.chains = append(e.chains, ch)
	if ch.shared() {
		if e.groups == nil {
			e.groups = map[plan.Key]*chain{}
		}
		e.groups[key] = ch
	}
	e.fabric.add(ch)
	return q
}

// endpoint registers a new Query on ch. Caller holds e.mu.
func (e *Engine) endpoint(ch *chain) *Query {
	q := &Query{ch: ch, idx: int32(len(e.queries))}
	e.queries = append(e.queries, q)
	e.live++
	ch.attach(q)
	return q
}

// buildChain constructs the executing pipeline for a plan: the shard
// runtime with the requested number of shards when the plan partitions,
// with one shard otherwise. The runtime alone owns the running operators:
// the chain keeps p without its stages, so a spent chain lets go of them.
func (e *Engine) buildChain(p *plan.Plan) *chain {
	ch := &chain{name: p.Name, plan: *p, eng: e}
	n := p.Shards
	if n == 0 {
		n = e.shards
	}
	if n == plan.AutoShards {
		n = autoShards(p)
	}
	var route func(event.Event) int
	if n > 1 && p.Part.OK() {
		route = RouteByAttr(p.Part.Attr, n)
	} else {
		n = 1
	}
	stagesFor := func(shard int) []operators.Op {
		if shard == 0 {
			return p.Stages
		}
		return p.Fresh().Stages
	}
	if err := ch.sh.start(p.Name, n, DefaultBurst, stagesFor, p.Spec, route, ch, &e.stopped); err != nil {
		panic(err) // unreachable: a compiled plan is the single-port matcher, then Slice/Project
	}
	ch.plan.Stages = nil
	return ch
}

// Queries lists the registered queries (unregistered ones excluded).
func (e *Engine) Queries() []*Query {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]*Query, 0, e.live)
	for _, q := range e.queries {
		if q != nil {
			out = append(out, q)
		}
	}
	return out
}

// snapshot returns the full registration list, an unregistered query's
// entry a nil tombstone, without copying. Only replay reads it, on the
// goroutine that applies its registrations and unregistrations. Indexing
// into it with a WAL query id is always in-bounds for ids the log produced.
func (e *Engine) snapshot() []*Query {
	e.mu.RLock()
	qs := e.queries
	e.mu.RUnlock()
	return qs
}

// chainsSnapshot returns the live chain list without copying. register
// appends; Unregister replaces the slice wholesale (copy-on-write), so a
// snapshot taken before a removal still sees a consistent list.
func (e *Engine) chainsSnapshot() []*chain {
	e.mu.RLock()
	cs := e.chains
	e.mu.RUnlock()
	return cs
}

// Query returns the registered query whose WAL query id is id, or nil when
// no registration had that id or its query unregistered. Replay rebuilds the
// list, tombstones included, so an id names the same query after a restart.
func (e *Engine) Query(id int) *Query {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if id < 0 || id >= len(e.queries) {
		return nil
	}
	return e.queries[id]
}

// Push delivers one physical item to the registered queries that can react
// to it: a data item reaches the chains the fabric's routing index selects
// for its TYPE and key, punctuation reaches every chain. The delivery set
// is taken once per call — no per-event copying, and concurrent
// registrations only take effect for subsequent pushes. On a durable
// engine the item is appended to the write-ahead log first; if the log has
// failed (fsync error), the engine fails stop and drops the item — input
// that is not durable is not processed.
func (e *Engine) Push(ev event.Event) {
	if e.log != nil {
		e.pushMu.Lock()
		defer e.pushMu.Unlock()
		kind := wal.KindEvent
		if ev.IsCTI() {
			kind = wal.KindCTI
		}
		if !e.logAppend(wal.Record{Kind: kind, Ev: ev}) {
			return
		}
	}
	e.fanout(ev)
}

// routeBufCap sizes the stack buffer Push routes through; events matching
// more chains spill to the heap, correctness unaffected.
const routeBufCap = 128

// fanout hands one item to every chain that must see it — a data item to
// the chains its route selects, punctuation to all. This is the shared
// delivery step of Push and WAL replay.
func (e *Engine) fanout(ev event.Event) {
	if ev.IsCTI() {
		for _, ch := range e.chainsSnapshot() {
			ch.push(ev)
		}
		return
	}
	var buf [routeBufCap]*chain
	for _, ch := range e.fabric.route(ev, buf[:0]) {
		ch.push(ev)
	}
}

// Finish flushes every query. On a durable engine the flush is logged, so
// recovery reproduces the completed output histories.
func (e *Engine) Finish() {
	if e.log != nil {
		e.pushMu.Lock()
		defer e.pushMu.Unlock()
		e.mu.Lock()
		first := !e.finished
		e.finished = true
		e.mu.Unlock()
		if first && !e.logAppend(wal.Record{Kind: wal.KindFinish}) {
			return
		}
	}
	for _, ch := range e.chainsSnapshot() {
		ch.sh.finish()
	}
}

// Run pushes an entire physical stream and finishes; a convenience for
// finite workloads.
func (e *Engine) Run(s stream.Stream) {
	for _, ev := range s {
		e.Push(ev)
	}
	e.Finish()
}

// chain is one executing operator pipeline — the shard runtime, whose
// merge reproduces the one-shard emission order — and the single record
// of what it emitted: the history, whose item with chain order tag t is
// its t-th. Query endpoints are windows over it
// and only their subscriptions join subs, so a delivery costs one append
// plus the subscribers, however many queries share the chain. A private
// chain has one endpoint for its whole life; a shared chain (key != "")
// gains and loses them as plans (un)register.
type chain struct {
	name string    // name of the first registrant, for quarantine errors
	plan plan.Plan // what the chain was built from, less its stages (see buildChain)
	sh   sharded
	eng  *Engine
	key  plan.Key // sharing identity (zero = private, never joined)

	mu      sync.Mutex
	closed  bool  // engine shutdown or last-endpoint teardown: delivery muted
	err     error // chain-level quarantine: an operator panicked
	refs    int   // registered endpoints, healthy or quarantined; at 0 the chain is torn down
	live    int   // endpoints whose window is still open; at 0 the chain stops consuming input
	history history
	subs    []*subscription // in subscription order
}

// chunkLen is the data chunks' unit of growth: the items that fill one
// 4 KiB size class. A history's first data chunk holds firstLen (512 B), so
// a chain with a handful of detections does not hold 4 KiB for them.
// syncLen sync points (42) fill a sync chunk of 1,008 B in the 1 KiB size
// class: a quiet chain's few dozen sync points take a chunk or two, and a
// long chain pays one 8-B index slot per chunk, under 1% of its records.
// Lineage chunks start at firstIDs IDs and double up to idsLen (512 B): a
// chain with a detection or two holds about their lineage's size.
const (
	chunkLen = uint64(4096 / unsafe.Sizeof(event.Event{}))
	firstLen = uint64(512 / unsafe.Sizeof(event.Event{}))
	syncLen  = uint64(1024 / unsafe.Sizeof(syncPoint{}))
	firstIDs = 4
	idsLen   = 64
)

// syncPoint is a canonical sync point in a history: its chain order tag,
// guarantee time t and CEDR time c. It reads back as
// Event{Kind: CTI, V: From(t), O: From(t), C: From(c)}, which is all the
// monitor's output CTIs carry.
type syncPoint struct {
	tag  uint64
	t, c temporal.Time
}

// history is a chain's output, append-only, never trimmed, never re-copied,
// in two lists merged by tag: data items (inserts, retractions and any
// non-canonical CTI) in full, in chunks of firstLen and then chunkLen
// items, and canonical sync points as 24-B syncPoints, syncLen to a chunk.
// A data item's lineage is copied into the history's own lineage chunks,
// so no kept item pins the matcher block its operator emitted it from.
// A slot below its list's length is never written again, so a copy of the
// header taken under the chain's lock reads its items without the lock
// while the writer appends.
type history struct {
	data  [][]event.Event
	syncs []*[syncLen]syncPoint
	ids   []event.ID // the current lineage chunk, written up to len only
	n, ns uint64     // items, of them sync points
}

// isSyncPoint reports whether ev is exactly what a syncPoint reads back as.
func isSyncPoint(ev *event.Event) bool {
	return ev.Kind == event.CTI && ev.V == temporal.From(ev.V.Start) && ev.O == ev.V &&
		ev.C == temporal.From(ev.C.Start) && ev.ID == 0 && ev.Type == "" && ev.RT == 0 &&
		ev.CBT == nil && ev.Payload == nil
}

// append writes items at the end of the history, their lineage pointed at
// the history's copy (the caller and subscribers see it), and counts them.
func (h *history) append(items []event.Event, c *historyCounters) {
	ns, bytes := h.ns, uint64(0)
	for i := range items {
		if ev := &items[i]; isSyncPoint(ev) {
			if h.ns%syncLen == 0 {
				h.syncs = append(h.syncs, new([syncLen]syncPoint))
				bytes += uint64(unsafe.Sizeof(*h.syncs[0]))
			}
			*h.sync(h.ns) = syncPoint{h.n, ev.V.Start, ev.C.Start}
			h.ns++
		} else {
			k, j, size := dataSlot(h.n - h.ns)
			if j == 0 {
				h.data = append(h.data, make([]event.Event, size))
				bytes += size * uint64(unsafe.Sizeof(*ev))
			}
			if len(ev.CBT) > 0 {
				bytes += h.lineage(ev)
			}
			h.data[k][j] = *ev
		}
		h.n++
	}
	c.items.Add(uint64(len(items)) - (h.ns - ns))
	c.syncs.Add(h.ns - ns)
	c.bytes.Add(bytes)
}

// lineage moves ev's lineage into the lineage chunk, starting one (of its
// size, past idsLen) where it does not fit, and returns the bytes allocated.
func (h *history) lineage(ev *event.Event) (bytes uint64) {
	n := len(ev.CBT)
	if len(h.ids)+n > cap(h.ids) {
		size := max(min(2*cap(h.ids), idsLen), firstIDs, n)
		h.ids = make([]event.ID, 0, size)
		bytes = uint64(size) * uint64(unsafe.Sizeof(event.ID(0)))
	}
	h.ids = append(h.ids, ev.CBT...)
	ev.CBT = h.ids[len(h.ids)-n : len(h.ids) : len(h.ids)]
	return bytes
}

func (h *history) sync(i uint64) *syncPoint { return &h.syncs[i/syncLen][i%syncLen] }

// dataSlot locates the d-th data item: slot j of chunk k, which holds size.
func dataSlot(d uint64) (k, j, size uint64) {
	if d < firstLen {
		return 0, d, firstLen
	}
	return 1 + (d-firstLen)/chunkLen, (d - firstLen) % chunkLen, chunkLen
}

// window iterates the items tagged [from, end ≤ n) with their tags.
func (h history) window(from, end uint64) iter.Seq2[uint64, event.Event] {
	return func(yield func(uint64, event.Event) bool) {
		// s sync points and from−s data items precede tag from.
		s := uint64(sort.Search(int(h.ns), func(i int) bool { return h.sync(uint64(i)).tag >= from }))
		d := from - s
		for t := from; t < end; t++ {
			var ev event.Event
			if s < h.ns && h.sync(s).tag == t {
				p := h.sync(s)
				ev = event.Event{Kind: event.CTI, V: temporal.From(p.t), O: temporal.From(p.t), C: temporal.From(p.c)}
				s++
			} else {
				k, j, _ := dataSlot(d)
				ev = h.data[k][j]
				d++
			}
			if !yield(t, ev) {
				return
			}
		}
	}
}

// subscription is one callback of an endpoint on its chain.
type subscription struct {
	q  *Query
	fn func(event.Event, uint64)
}

// attach opens q's window at the chain's current position (q's callbacks
// join subs only when it subscribes).
func (ch *chain) attach(q *Query) {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	q.from, q.cut = ch.pos(), openCut
	ch.refs++
	ch.live++
}

// detach closes q's window, drops its subscriptions, and reports whether
// the chain is now unreferenced (quarantined endpoints count as references
// until they unregister). Once per query, under e.mu.
func (ch *chain) detach(q *Query) bool {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	ch.cutLocked(q)
	ch.subs = slices.DeleteFunc(ch.subs, func(s *subscription) bool { return s.q == q })
	ch.refs--
	return ch.refs == 0
}

// cutLocked closes q's window, if still open, at the chain's position.
func (ch *chain) cutLocked(q *Query) {
	if q.cut == openCut {
		q.cut = ch.pos()
		ch.live--
	}
}

// shared reports whether registrations with the chain's Key may join it.
func (ch *chain) shared() bool { return ch.key != plan.Key{} }

// pos is the chain position: the order tag the next output item will carry.
func (ch *chain) pos() uint64 { return ch.history.n }

// push feeds one physical item through the pipeline and returns the output
// it delivered (nil with more than one shard, where push only enqueues).
// The returned slice is reused by the next push; callers must copy what
// they keep.
func (ch *chain) push(ev event.Event) []event.Event {
	ch.mu.Lock()
	dead := ch.err != nil || ch.closed || ch.live == 0
	ch.mu.Unlock()
	if dead {
		return nil
	}
	return ch.sh.push(ev)
}

// deliverLocked records one output batch in the history — which delivers
// it to every open window — and runs the subscriptions of healthy endpoints.
// Caller holds ch.mu. A closed chain discards late output; a
// chain-quarantined one has stopped emitting (the history up to the failure
// stays readable).
func (ch *chain) deliverLocked(items []event.Event) {
	if ch.closed || ch.err != nil || len(items) == 0 {
		return
	}
	first := ch.pos()
	ch.history.append(items, &ch.eng.hist)
	failed := false
	for _, s := range ch.subs {
		if s.q.err == nil && !s.deliver(items, first) {
			failed = true
		}
	}
	if failed {
		ch.subs = slices.DeleteFunc(ch.subs, func(s *subscription) bool { return s.q.err != nil })
	}
}

// deliver runs the callback over a batch whose first item has chain order
// tag first, under a recover barrier: a panic quarantines this endpoint
// alone — its window closes behind the batch in flight, which stays
// readable, and its other callbacks stop — while siblings still receive the
// batch. Reports whether the callback returned. Runs under ch.mu.
func (s *subscription) deliver(items []event.Event, first uint64) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			s.q.ch.cutLocked(s.q)
			s.q.err = recoverPanic(s.q.ch.name, "subscriber callback", r)
		}
	}()
	for i, it := range items {
		s.fn(it, first+uint64(i))
	}
	return true
}

// unsubscribe drops one subscription; a no-op once it is gone.
func (ch *chain) unsubscribe(s *subscription) {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	if i := slices.Index(ch.subs, s); i >= 0 {
		ch.subs = slices.Delete(ch.subs, i, i+1)
	}
}

// deliverMerged is the shard runtime's delivery callback; it runs on the
// merger goroutine, or on the pushing goroutine with one shard (subscriber
// callbacks run there too).
func (ch *chain) deliverMerged(items []event.Event) {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	ch.deliverLocked(items)
}

// quarantine records a chain-level failure (a panicking operator): every
// endpoint of the chain fails together. The first error wins; later ones
// (cascading noise from an already-broken pipeline) are dropped.
func (ch *chain) quarantine(err error) {
	ch.mu.Lock()
	ch.quarantineLocked(err)
	ch.mu.Unlock()
}

// quarantineLocked is quarantine for callers already holding ch.mu.
func (ch *chain) quarantineLocked(err error) {
	if ch.err == nil {
		ch.err = err
	}
}

// shutdown closes the chain without finishing it: subsequent input is
// dropped and delivery is muted, then the runtime is stopped (computing
// nothing more) so any workers and merger exit. Used by engine shutdown
// and by the last endpoint's Unregister.
func (ch *chain) shutdown() {
	ch.mu.Lock()
	ch.closed = true
	ch.mu.Unlock()
	ch.sh.stop()
}

// Query is one registered standing query: an endpoint of an executing
// chain. It holds no output of its own — it is the window [from, cut) over
// the chain's chunked history: from is the chain position when the query
// registered (0 on a fresh chain, later on a warm shared one); cut is set
// to the chain position when its subscriber panics (behind the batch in
// flight) or it unregisters, and until then the window grows with the
// chain. Window, subscribers, and subscriber-panic quarantine are per-
// endpoint; SetSpec and Metrics address the chain (on a shared chain, the
// whole group — documented on each method). Input reaches a query only
// through its engine's Push and Finish, which log it on a durable engine.
type Query struct {
	ch  *chain // its name and engine are the query's
	idx int32  // position in the engine's registration list (the WAL's query id)

	// Guarded by ch.mu.
	from, cut uint64 // window over ch.history; cut is openCut while live
	err       error  // endpoint quarantine: this query's subscriber panicked
}

const openCut = ^uint64(0) // the cut of a window that still grows with its chain

// Err returns the error that quarantined the query: the recovered panic of
// this query's subscriber callback (endpoint-level — siblings sharing the
// chain are unaffected), or of an operator (chain-level — every query on
// the chain reports it, whatever its shard count). A quarantined query stops
// accumulating output, but its results up to the failure remain readable;
// queries on other chains are unaffected. Err is nil while the query is
// healthy.
func (q *Query) Err() error {
	q.ch.mu.Lock()
	defer q.ch.mu.Unlock()
	if q.err != nil {
		return q.err
	}
	return q.ch.err
}

// recoverPanic converts a recovered panic value into the quarantine error.
func recoverPanic(name, where string, r any) error {
	return fmt.Errorf("engine: query %s quarantined: %s panicked: %v\n%s", name, where, r, debug.Stack())
}

// View iterates the query's window of its chain's history as it is when
// View is called, each item with its chain order tag, without copying or
// locking (see history): data items as they were emitted, sync points
// rebuilt from their records, identical field for field. A data item's
// payload and lineage are shared with the chain and every sibling
// endpoint: read-only.
func (q *Query) View() iter.Seq2[uint64, event.Event] {
	h, from, end := q.window()
	return h.window(from, end)
}

// window takes the history's header and the window [from, end) under the lock.
func (q *Query) window() (h history, from, end uint64) {
	q.ch.mu.Lock()
	defer q.ch.mu.Unlock()
	return q.ch.history, q.from, min(q.cut, q.ch.pos())
}

// Len returns how many items Results would return, in O(1).
func (q *Query) Len() int {
	_, from, end := q.window()
	return int(end - from)
}

// Name returns the query's registered name.
func (q *Query) Name() string { return q.ch.name }

// ID returns the query's WAL query id: its position in the registration
// list, which Engine.Query resolves while it is registered.
func (q *Query) ID() int { return int(q.idx) }

// Plan returns the compiled plan the query's chain executes, read-only. It
// holds no operator instances (the runtime owns them): Stages is empty.
func (q *Query) Plan() *plan.Plan { return &q.ch.plan }

// Shards returns the number of shards the query's chain runs on: 1 (run
// inline on the pushing goroutine) unless the plan partitions and more were
// requested — by the registration that built the chain, when it is shared.
func (q *Query) Shards() int { return q.ch.sh.n }

// Shared reports whether the query's chain is joinable by identical
// registrations (it may still have only one endpoint).
func (q *Query) Shared() bool { return q.ch.shared() }

// Subscribe adds a callback invoked for every output item (including
// punctuation) delivered to this endpoint. Callbacks run synchronously on
// the delivering goroutine, under the chain's lock: they must not call back
// into a query of the same chain. A callback added after the chain has
// already emitted output sees only subsequent output.
func (q *Query) Subscribe(fn func(event.Event)) {
	q.SubscribeTagged(false, func(e event.Event, _ uint64) { fn(e) })
}

// SubscribeTagged adds a callback invoked for every output item delivered
// to this endpoint together with the item's chain order tag, until cancel
// is called. With replay set, the callback first receives the endpoint's
// window so far, with no gap or duplication against concurrent delivery:
// the bulk is replayed without holding up the chain, what the chain emitted
// meanwhile under its lock, atomically with the subscription. A closed
// window is replayed and receives nothing further. The network server uses
// this to frame a remote subscriber's stream identically to an in-process
// one.
//
// After cancel returns the callback never runs again; a second cancel, or
// one after Unregister, is a no-op. Cancel takes the chain's lock, so call
// it from outside the chain's callbacks.
func (q *Query) SubscribeTagged(replay bool, fn func(event.Event, uint64)) (cancel func()) {
	ch := q.ch
	var next uint64
	if replay {
		h, from, end := q.window()
		for t, e := range h.window(from, end) {
			fn(e, t)
		}
		next = end
	}
	ch.mu.Lock()
	defer ch.mu.Unlock()
	if replay {
		for t, e := range ch.history.window(next, min(q.cut, ch.pos())) {
			fn(e, t)
		}
	}
	if q.cut != openCut {
		return func() {}
	}
	s := &subscription{q: q, fn: fn}
	ch.subs = append(ch.subs, s)
	return func() { ch.unsubscribe(s) }
}

// Results returns a copy of everything delivered to this endpoint so far
// (data and punctuation), in emission order: the chain's history from the
// query's registration to now, or to its quarantine or unregistration.
func (q *Query) Results() stream.Stream {
	h, from, end := q.window()
	out := make(stream.Stream, 0, end-from)
	for _, e := range h.window(from, end) {
		out = append(out, e)
	}
	return out
}

// Tags returns the chain output position of each Results item: Tags()[i]
// is the index of Results()[i] in the chain's history. On an endpoint
// attached at registration the tags are 0,1,2,…; an endpoint attached to a
// warm shared chain starts at the chain's position at attach time. An
// independently-executed copy of the same plan over the same input assigns
// the same positions — the fabric's order-identity witness.
func (q *Query) Tags() []uint64 {
	_, from, end := q.window()
	tags := make([]uint64, end-from)
	for i := range tags {
		tags[i] = from + uint64(i)
	}
	return tags
}

// Metrics returns the monitor metrics of the query's chain: one entry, the
// head's — the stages after the matcher are stateless maps and run under
// no monitor (shared endpoints observe identical metrics). It reads once the
// shards have drained everything pushed so far, with no push running: with
// one shard these are the monitor's own counters, with more it combines the
// head's per-shard counters into the one-shard ones.
func (q *Query) Metrics() []consistency.Metrics {
	return q.ch.sh.metrics()
}

// SetSpec switches the query's consistency level at runtime (Section 5's
// consistency-sensitive adaptation); the head's released buffered output
// is mapped through the later stages like any other. On a shared chain the
// switch applies to the whole group — every endpoint observes the released
// output. With more than one shard the switch is enqueued and takes effect
// at this position in the input sequence on every shard. On an
// unregistered endpoint it does nothing and logs nothing: its shared
// survivors keep their level, as replay of its tombstone does.
func (q *Query) SetSpec(s consistency.Spec) {
	e := q.ch.eng
	if e.log != nil {
		e.pushMu.Lock()
		defer e.pushMu.Unlock()
	}
	if !q.registered() || e.log != nil && !e.logAppend(wal.Record{Kind: wal.KindSpec, Query: int(q.idx), Spec: s}) {
		return
	}
	q.setSpecApply(s)
}

// registered reports whether the endpoint is still in the engine's list:
// SetSpec and Unregister log nothing for a handle that is not.
func (q *Query) registered() bool {
	e := q.ch.eng
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.queries[q.idx] == q
}

// setSpecApply performs the switch without durable logging (the replay
// path applies already-logged records through it).
func (q *Query) setSpecApply(s consistency.Spec) {
	q.ch.sh.setSpec(s)
}

// Unregister removes the standing query. The endpoint detaches — its
// window closes and stays readable, subscribers receive nothing further —
// and when it was the chain's last reference the chain itself is torn
// down: input is no longer delivered to it and the shard runtime's
// goroutines (if any) exit. On a shared chain with remaining endpoints execution
// continues undisturbed. On a durable engine the unregistration is logged
// ahead of taking effect, so recovery reproduces it at the same position
// in the input sequence. Idempotent: a repeated call logs nothing.
func (q *Query) Unregister() {
	if e := q.ch.eng; e.log != nil {
		e.pushMu.Lock()
		defer e.pushMu.Unlock()
		if !q.registered() || !e.logAppend(wal.Record{Kind: wal.KindUnregister, Query: int(q.idx)}) {
			return
		}
	}
	q.unregisterApply()
}

// unregisterApply detaches the endpoint without durable logging (the
// replay path applies already-logged records through it), tearing the
// chain down when the last reference goes. Its list entry becomes a nil
// tombstone: only the caller's handle still reaches the chain's window.
func (q *Query) unregisterApply() {
	e := q.ch.eng
	e.mu.Lock()
	if e.queries[q.idx] != q {
		e.mu.Unlock()
		return
	}
	// A lock-free reader of snapshot() must not run beside this write;
	// replay, its only one, applies unregistrations on its own goroutine.
	e.queries[q.idx] = nil
	e.live--
	ch := q.ch
	last := ch.detach(q)
	if last {
		for i, c := range e.chains {
			if c == ch {
				// Copy-on-write removal: in-flight Push snapshots keep their
				// (stale but consistent) list; the three-index slice forces a
				// fresh backing array.
				e.chains = append(e.chains[:i:i], e.chains[i+1:]...)
				break
			}
		}
		if ch.shared() {
			delete(e.groups, ch.key)
		}
		e.fabric.remove(ch)
	}
	e.mu.Unlock()
	if last {
		ch.shutdown()
	}
}

// String implements fmt.Stringer.
func (q *Query) String() string {
	if n := q.ch.sh.n; n > 1 {
		return fmt.Sprintf("query %s: %s × %d shards", q.ch.name, q.ch.plan.Spec.Name(), n)
	}
	return fmt.Sprintf("query %s: %s", q.ch.name, q.ch.plan.Spec.Name())
}
