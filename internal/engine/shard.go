// Sharded execution: the key-partitioned parallel runtime.
//
// Only a plan's head stage (the matcher) is sharded. A sharded query runs
// N copies of the head's monitor, each owned by one worker goroutine.
// Every shard sees the whole input; ownKeys decides what its head
// processes: the shard's head operator passes on only the data events the
// route sends to that shard, while its monitor logs, buffers and advances
// over every item. Driven through the same calls, the sibling heads take
// the same steps for their whole life and each emits, byte for byte, the
// key-restricted slice of what a single-shard head would emit (see
// Monitor.PushTaggedInto). Each worker tags its outputs with its own head's
// step count and the merger goroutine — one per query — sorts each run's
// aligned bursts once by those tags (consistency.Merger), reconstructing
// the exact single-shard head output.
// The stages after the head (a compiled plan's Slice and Project) are
// stateless, so they need no monitor: each worker maps every data item its
// head emits through them before the merge (shardWorker.mapFrom), an item
// dropped there taking its tag with it, and punctuation passes unchanged.
// The query's output is the one-shard head's output mapped item by item.
//
//	            ┌─ worker 0: ownKeys head ─► map ─┐
//	router ──► ─┼─ worker 1: ownKeys head ─► map ─┼─► merger ──► results + subscribers
//	(one run)   └─ worker …: ownKeys head ─► map ─┘  (order tags)
//
// Handoff is batched: the router appends each input item once to one
// shared *run* of consecutive items and hands that run to every worker —
// when it reaches the burst size, on punctuation, on spec switches, and at
// barriers/finish. Workers only read the run; each processes a whole run
// per channel receive into one aggregated burst (outputs, order tags in a
// shared arena, per-item state trace), and the merger merges the aligned
// bursts of a run in one pass, then recycles the run. Runs cycle through
// one free list and bursts through per-worker ones, so steady-state handoff
// does not allocate and a slow consumer exerts backpressure on the router.
//
// With more than one shard the pipeline is asynchronous: Push enqueues and
// returns, Finish drains, and Results() exposes a deterministic prefix at
// any time. One shard runs inline: no goroutines, channels or free lists —
// every item goes through the same per-item body (shardWorker.process) on
// the caller's goroutine, under the same recover barrier, and its output
// is delivered before the call returns (merging one shard is the
// identity). Its head is the plan's operator itself, unwrapped.
package engine

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/consistency"
	"repro/internal/event"
	"repro/internal/operators"
	"repro/internal/stream"
)

// Shard item kinds. Every worker reads every input item exactly once (the
// one shared run), which is what keeps the sibling heads in step and lets
// the merger align runs without extra bookkeeping.
const (
	itemEvent uint8 = iota // a data item or punctuation
	itemSetSpec
	itemBarrier
	itemFinish
	itemStop // ends the runtime like itemFinish, without the closing flush
)

const (
	// DefaultBurst is the router's default flush bound: the number of
	// consecutive input items accumulated per run before handoff.
	// Large enough to amortize the channel round-trip and merge setup over
	// many events, small enough to keep latency and buffer footprint modest.
	DefaultBurst = 64
	// runBufs is the number of runs cycling through the shared free list,
	// and of bursts cycling through each worker's: one being filled, up to
	// two in flight, one being consumed. The free lists double as
	// backpressure — a router that gets ahead of the workers (or a worker
	// ahead of the merger) blocks on a free list instead of growing a queue.
	runBufs = 4
)

type shardItem struct {
	kind uint8
	ev   event.Event
	spec consistency.Spec
}

// shardRun is one router→workers handoff unit: a run of consecutive input
// items, read by every worker. It returns to the router's free list once
// the merger holds every shard's burst for it.
type shardRun struct {
	items []shardItem
}

// shardBurst is one worker→merger handoff unit: the aggregated tagged
// outputs of a whole run.
type shardBurst struct {
	run *shardRun // the run this burst answers; the merger recycles it
	// out accumulates the mapped head outputs and their order tags for the
	// whole run.
	out consistency.Burst
	// states[k] is the head monitor's state after item k, less its
	// alignment buffer and log window (Monitor.Window) on every shard but
	// shard 0. Every shard buffers and logs the whole input, which the
	// single-shard state counts once, while each shard's operator holds its
	// own keys only, so the sum across shards reproduces the single-shard
	// head's per-push state samples exactly.
	states []int32
	// fail carries a worker panic to the merger. The failed worker stays
	// in its loop emitting aligned empty bursts, so the merger's run
	// alignment never skews and healthy siblings keep draining.
	fail error
}

// reset empties the burst for reuse, retaining capacity.
func (b *shardBurst) reset() {
	b.clearOutputs()
	b.fail = nil
}

// clearOutputs drops the burst's outputs and traces but keeps its run —
// the shape a failed worker's aligned empty response takes.
func (b *shardBurst) clearOutputs() {
	b.out.Reset()
	b.states = b.states[:0]
}

type shardWorker struct {
	head *consistency.Monitor
	// stages are the plan's stateless stages after the head, this worker's
	// own instances (copied: the head's array must not outlive it); mapFrom
	// runs the head's data output through them.
	stages []operators.Op
	// mapped is mapFrom's scratch: the head's outputs of one item and
	// their tags, before mapping (its Arena is unused).
	mapped consistency.Burst
	// merged is set when a merger reads this worker's bursts (n > 1): only
	// then are outputs order-tagged and per-item state traced.
	// dropWindow is set on every merged worker but shard 0 (see
	// shardBurst.states).
	merged, dropWindow bool
	// Handoff channels and the free list for the burst buffers cycling
	// through this worker's pipeline (see runBufs); nil when n = 1.
	in         chan *shardRun
	out        chan *shardBurst
	freeBursts chan *shardBurst
}

// ownKeys makes op a shard's head operator: every shard sees the whole
// input, and ownKeys decides what its head processes. Process passes on
// only the data events route sends to shard and returns nil for the rest,
// calling nothing underneath; every other call goes through. The monitor
// around it logs, buffers and advances over every item, so sibling heads
// take the same steps (see Monitor.PushTaggedInto). It keeps op's own
// version journal (operators.AsVersioned) and its AppendAdvanceKey.
func ownKeys(op operators.Op, route func(event.Event) int, shard int) operators.Op {
	k := &ownedKeys{Versioned: operators.AsVersioned(op), route: route, shard: shard}
	if ao, ok := op.(operators.AdvanceOrdered); ok {
		k.advKey = ao.AppendAdvanceKey
	}
	return k
}

type ownedKeys struct {
	operators.Versioned
	route  func(event.Event) int
	shard  int
	advKey func(dst []byte, e event.Event) []byte // nil when op has none
}

func (k *ownedKeys) Process(port int, e event.Event) []event.Event {
	if k.route(e) != k.shard {
		return nil
	}
	return k.Versioned.Process(port, e)
}

func (k *ownedKeys) AppendAdvanceKey(dst []byte, e event.Event) []byte {
	if k.advKey == nil {
		return dst
	}
	return k.advKey(dst, e)
}

// sharded is the per-query runtime. The router methods (push, setSpec,
// finish, barrier) serialize on mu, so concurrent producers are safe.
// metrics additionally requires that no Push lands while it drains
// (Metrics reads are only exact between pushes).
type sharded struct {
	n       int
	burst   int // flush bound; <= 0 flushes only on control items
	workers []shardWorker
	w1      [1]shardWorker // workers' storage when n = 1
	sink    shardSink
	name    string // query name, for the quarantine error

	mu       sync.Mutex // serializes run handoff order
	finished bool
	// pending is the run being filled; freeRuns holds the runs the merger
	// has recycled (see runBufs).
	pending  *shardRun
	freeRuns chan *shardRun

	// n = 1: the burst every inline item is processed into, and the first
	// panic (after which input is dropped).
	one    shardBurst
	failed error

	done      chan struct{}
	barrierCh chan struct{}

	// merger-owned; read only after a barrier or done handshake: the head's
	// MaxState across shards (n > 1).
	maxState int
}

// shardSink receives what the runtime produces, on the merger goroutine
// (n > 1) or the caller's (n = 1): merged output in deterministic order,
// and the first operator panic as the query's quarantine error, before
// delivery stops. The engine's chain is one.
type shardSink interface {
	deliverMerged(items []event.Event)
	quarantine(err error)
}

// newSharded builds and starts the sharded runtime; see start.
func newSharded(name string, n, burst int, stagesFor func(shard int) []operators.Op,
	spec consistency.Spec, route func(event.Event) int, sink shardSink) (*sharded, error) {
	s := new(sharded)
	return s, s.start(name, n, burst, stagesFor, spec, route, sink)
}

// start builds and starts the runtime in place (a chain embeds it). burst
// is the router's flush bound (0 = DefaultBurst, negative = unbounded:
// flush only on punctuation/control). stagesFor must return an
// independent, freshly instantiated, non-empty operator chain per shard
// (operator Clones may share scratch and are not safe across goroutines);
// every shard runs its chain's head under a monitor — through ownKeys, with
// route, when n > 1 — and maps the head's output through the rest. name
// labels the quarantine error of a panicking operator. start fails on a
// multi-port head with more than one shard and on a stage after the head
// that is not operators.Stateless.
func (s *sharded) start(name string, n, burst int, stagesFor func(shard int) []operators.Op,
	spec consistency.Spec, route func(event.Event) int, sink shardSink) error {
	if n < 1 {
		n = 1
	}
	if burst == 0 {
		burst = DefaultBurst
	}
	*s = sharded{n: n, burst: burst, sink: sink, name: name}
	s.workers = s.w1[:]
	if n > 1 {
		s.workers = make([]shardWorker, n)
	}
	for i := range s.workers {
		stages := stagesFor(i)
		head := stages[0]
		if n > 1 && head.Arity() != 1 {
			return fmt.Errorf("engine: sharded execution requires a single-port head operator")
		}
		for _, op := range stages[1:] {
			if _, ok := op.(operators.Stateless); !ok {
				return fmt.Errorf("engine: stage %s after the head is not stateless", op.Name())
			}
		}
		if n > 1 {
			head = ownKeys(head, route, i)
		}
		s.workers[i].head = consistency.NewMonitor(head, spec)
		if len(stages) > 1 {
			s.workers[i].stages = slices.Clone(stages[1:])
		}
	}
	if n == 1 {
		return nil // inline: see runInline
	}
	s.done, s.barrierCh = make(chan struct{}), make(chan struct{})
	// Run buffers start empty and grow on first use: the free list recycles
	// them, so append growth is a warmup cost only and the steady state
	// stays allocation-free either way — while plans that never see a full
	// burst (or are registered and quickly finished) skip the up-front
	// burst-sized allocations entirely.
	s.pending, s.freeRuns = new(shardRun), make(chan *shardRun, runBufs)
	for k := 0; k < runBufs-1; k++ {
		s.freeRuns <- new(shardRun)
	}
	for i := range s.workers {
		w := &s.workers[i]
		w.merged, w.dropWindow = true, i > 0
		w.in = make(chan *shardRun, runBufs)
		w.out = make(chan *shardBurst, runBufs)
		w.freeBursts = make(chan *shardBurst, runBufs)
		for k := 0; k < runBufs; k++ {
			w.freeBursts <- new(shardBurst)
		}
		go w.run(name)
	}
	go s.mergeLoop()
	return nil
}

// runInline is the n = 1 runtime: it drives one item through the only
// shard on the caller's goroutine, under its recover barrier, and delivers
// the output directly. It returns that output, valid until the next call.
// Caller holds mu.
func (s *sharded) runInline(it shardItem) []event.Event {
	if s.failed != nil {
		return nil
	}
	b := &s.one
	b.reset()
	one := [1]shardItem{it}
	if s.failed = s.workers[0].processRunSafely(s.name, one[:], b); s.failed != nil {
		s.sink.quarantine(s.failed)
		return nil
	}
	if len(b.out.Evs) > 0 {
		s.sink.deliverMerged(b.out.Evs)
	}
	return b.out.Evs
}

// push appends one physical item, data or punctuation, to the shared run;
// punctuation flushes it (a natural batch boundary). With one shard it runs
// the item inline and returns its output (see runInline); otherwise it
// returns nil.
func (s *sharded) push(ev event.Event) []event.Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.finished {
		return nil
	}
	it := shardItem{kind: itemEvent, ev: ev}
	if s.n == 1 {
		return s.runInline(it)
	}
	s.pending.items = append(s.pending.items, it)
	if ev.IsCTI() || s.burst > 0 && len(s.pending.items) >= s.burst {
		s.flushLocked()
	}
	return nil
}

// control appends a control item and flushes the run, so the control item
// is always the last item of its run; with one shard it runs the item
// inline. Caller holds mu.
func (s *sharded) control(kind uint8, spec consistency.Spec) {
	it := shardItem{kind: kind, spec: spec}
	if s.n == 1 {
		s.runInline(it)
		return
	}
	s.pending.items = append(s.pending.items, it)
	s.flushLocked()
}

// flushLocked hands the pending run to every worker and refills it from
// the free list (blocking there is the backpressure). Caller holds mu.
func (s *sharded) flushLocked() {
	if len(s.pending.items) == 0 {
		return
	}
	for i := range s.workers {
		s.workers[i].in <- s.pending
	}
	s.pending = <-s.freeRuns
	s.pending.items = s.pending.items[:0]
}

// setSpec broadcasts a consistency-level switch; it takes effect at this
// position in the input sequence on every shard.
func (s *sharded) setSpec(spec consistency.Spec) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.finished {
		return
	}
	s.control(itemSetSpec, spec)
}

// finish flushes every shard and waits for the merger to deliver the final
// run (any still-pending items plus the finish flush itself), then lets
// go of its run and burst buffers (under mu: the router may be refilling).
func (s *sharded) finish() { s.end(itemFinish) }

// stop is finish with every head stopped instead: no Advance(∞), no flush.
func (s *sharded) stop() { s.end(itemStop) }

func (s *sharded) end(kind uint8) {
	s.mu.Lock()
	if !s.finished {
		s.finished = true
		s.control(kind, consistency.Spec{})
	}
	s.mu.Unlock()
	if s.n > 1 {
		<-s.done
	}
	s.mu.Lock()
	s.one, s.pending, s.freeRuns = shardBurst{}, nil, nil
	for i := range s.workers {
		w := &s.workers[i]
		w.mapped, w.in, w.out, w.freeBursts = consistency.Burst{}, nil, nil, nil
	}
	s.mu.Unlock()
}

// barrier waits until every shard and the merger have processed everything
// enqueued so far; with one shard nothing is ever in flight.
func (s *sharded) barrier() {
	if s.n == 1 {
		return
	}
	s.mu.Lock()
	if s.finished {
		s.mu.Unlock()
		<-s.done
		return
	}
	s.control(itemBarrier, consistency.Spec{})
	s.mu.Unlock()
	<-s.barrierCh
}

// metrics returns the chain's one monitor's metrics, as the single-shard
// run would report them — one entry, the head's. Every shard sees the whole
// input, so the input-side counters are shard 0's; what the heads emit and
// hold is summed, the buffer and log window counted once; and with n > 1
// MaxState comes from the merger's per-item cross-shard state trace, which
// reproduces the head's per-push samples exactly.
func (s *sharded) metrics() []consistency.Metrics {
	s.barrier()
	agg := s.workers[0].head.Metrics()
	for i := 1; i < s.n; i++ {
		h := s.workers[i].head
		m := h.Metrics()
		agg.OutputInserts += m.OutputInserts
		agg.OutputRetractions += m.OutputRetractions
		agg.Compensations += m.Compensations
		agg.CurState += m.CurState - h.Window()
	}
	if s.n > 1 {
		agg.MaxState = s.maxState
	}
	return []consistency.Metrics{agg}
}

// matcherStats adds the heads' composite lookups to st unless the chain has
// finished (its heads let go of their operators). It holds mu throughout, so
// no push runs while it reads, once the shards have drained (barrier).
func (s *sharded) matcherStats(st *MatcherStats) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.finished {
		return
	}
	if s.n > 1 {
		s.control(itemBarrier, consistency.Spec{})
		<-s.barrierCh
	}
	for i := range s.workers {
		op := s.workers[i].head.Op()
		if k, ok := op.(*ownedKeys); ok {
			op = k.Versioned
		}
		if op, ok := op.(interface{ CompositeLookups() (uint64, uint64) }); ok {
			built, hits := op.CompositeLookups()
			st.Composites += built
			st.CompositeHits += hits
		}
	}
}

func (w *shardWorker) run(name string) {
	var failed error
	for r := range w.in {
		b := <-w.freeBursts
		b.reset()
		b.run = r
		last := r.items[len(r.items)-1]
		if failed == nil {
			failed = w.processRunSafely(name, r.items, b)
		}
		if failed != nil {
			// Drain mode (and the failing run itself): a panicked worker's
			// operator state is unusable and its partial outputs must not
			// leak, but the merger still expects one aligned burst per run
			// from every shard. Empty bursts keep the alignment and let
			// healthy siblings drain; finish still terminates the loop.
			b.clearOutputs()
		}
		b.fail = failed
		w.out <- b
		if last.kind == itemFinish || last.kind == itemStop {
			return
		}
	}
}

// processRunSafely drives a run of items through the head monitor and the
// stages after it under a recover barrier: a panicking operator —
// at any intra-run offset — yields the quarantine error of query name (and
// the caller sends an aligned empty burst, or stops when inline) instead of
// killing the process or deadlocking the merger. The head is never driven
// again, so its monitor is stopped, letting go of the unusable operator.
func (w *shardWorker) processRunSafely(name string, items []shardItem, b *shardBurst) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			w.head.Stop()
			err = recoverPanic(name, "operator stage", rec)
		}
	}()
	for k := range items {
		w.process(items[k], b)
	}
	return nil
}

// process drives one item through the shard's head monitor, appending its
// outputs mapped through the stages after the head (and, when merged, their
// tags and the item's trace) to b. It is the worker loop's per-item body
// and the whole of the one-shard runtime (the critical-path benchmark also
// times a shard's full item sequence this way, without channel overhead).
func (w *shardWorker) process(it shardItem, b *shardBurst) {
	from := len(b.out.Evs)
	switch it.kind {
	case itemEvent:
		w.head.PushTaggedInto(0, it.ev, w.merged, &b.out)
	case itemSetSpec:
		w.head.SetSpecTaggedInto(it.spec, w.merged, &b.out)
	case itemFinish:
		w.head.FinishTaggedInto(w.merged, &b.out)
	case itemStop:
		w.head.Stop()
	case itemBarrier:
		// State is unchanged; the run round-trip is the synchronization.
	}
	w.mapFrom(from, &b.out)
	if !w.merged {
		return
	}
	st := w.head.CurState()
	if w.dropWindow {
		st -= w.head.Window()
	}
	b.states = append(b.states, int32(st))
}

// mapFrom maps the outputs out holds from index from on through the stages
// after the head: a data item is replaced by what the last stage makes of
// it, each output keeping the item's order tag, and punctuation passes
// unchanged. The stages are stateless, so no monitor aligns or repairs
// them: a changelog mapped item by item is the changelog of the mapped
// stream.
func (w *shardWorker) mapFrom(from int, out *consistency.Burst) {
	if len(w.stages) == 0 {
		return
	}
	in := &w.mapped
	in.Evs = append(in.Evs[:0], out.Evs[from:]...)
	out.Evs = out.Evs[:from]
	if w.merged {
		in.Tags = append(in.Tags[:0], out.Tags[from:]...)
		out.Tags = out.Tags[:from]
	}
	for k, e := range in.Evs {
		var tag []byte
		if w.merged {
			tag = in.Tags[k]
		}
		w.mapItem(0, e, tag, out)
	}
}

// mapItem appends what the stages from on make of e to out, each output
// tagged tag when merged. A stage's output buffer is read only while later
// stages run.
func (w *shardWorker) mapItem(from int, e event.Event, tag []byte, out *consistency.Burst) {
	if from == len(w.stages) || e.IsCTI() {
		out.Evs = append(out.Evs, e)
		if w.merged {
			out.Tags = append(out.Tags, tag)
		}
		return
	}
	for _, o := range w.stages[from].Process(0, e) {
		w.mapItem(from+1, o, tag, out)
	}
}

// mergeLoop gathers each run's bursts from all shards, merges them into
// the single-shard emission order, and delivers once per run.
func (s *sharded) mergeLoop() {
	var mg consistency.Merger
	var out []event.Event
	var failed error
	bs := make([]*shardBurst, s.n)
	outs := make([]*consistency.Burst, s.n)
	for {
		for i := range s.workers {
			b := <-s.workers[i].out
			bs[i], outs[i] = b, &b.out
			if b.fail != nil && failed == nil {
				// First failure wins; the query is quarantined before any
				// post-failure delivery could happen.
				failed = b.fail
				s.sink.quarantine(failed)
			}
		}
		out = out[:0]
		if failed == nil {
			for k := range bs[0].states {
				// Per-item cross-shard state trace (see shardBurst.states).
				sum := 0
				for _, b := range bs {
					sum += int(b.states[k])
				}
				s.maxState = max(s.maxState, sum)
			}
			out = mg.Merge(out, outs)
		}
		// Merged events are value copies; the run and the burst buffers can
		// cycle back before delivery runs.
		r := bs[0].run
		kind := r.items[len(r.items)-1].kind
		s.freeRuns <- r
		for i := range s.workers {
			s.workers[i].freeBursts <- bs[i]
			bs[i] = nil
		}
		if failed == nil && len(out) > 0 {
			s.sink.deliverMerged(out)
		}
		// A partial merge after a failure would be wrong output, not late
		// output: delivery stops once any shard failed. The barrier and
		// finish handshakes still complete — metrics, Finish, and engine
		// shutdown must not hang on a quarantined query. A run's output is
		// delivered before its handshake.
		switch kind {
		case itemBarrier:
			s.barrierCh <- struct{}{}
		case itemFinish, itemStop:
			close(s.done)
			return
		}
	}
}

// RouteByAttr routes events by the event.Key of a payload attribute — the
// key the matcher correlates on — so values it calls equal (int64(3) and
// float64(3)) share a shard, and every wild value (none, NaN, an exotic
// type) goes to one fixed shard — a payload-less retraction too, whatever
// shard its insert went to. A wild event meets there only the keys hashed
// to that shard, so where the matcher would correlate it with other keys
// the sharded output differs from one shard's. A grouped aggregate keys
// groups by rendering (operators.KeyString), which agrees whenever the
// attribute holds numbers only or strings only.
func RouteByAttr(attr string, shards int) func(event.Event) int {
	return func(ev event.Event) int {
		return int(event.KeyOf(ev.Payload[attr]).Hash() % uint64(shards))
	}
}

// RouteByID routes events by their fact ID; retractions share their
// insert's ID and follow it to the same shard.
func RouteByID(shards int) func(event.Event) int {
	return func(ev event.Event) int {
		return int(uint64(event.Pair(ev.ID)) % uint64(shards))
	}
}

// RunShardedOp executes one operator as an n-shard parallel pipeline over a
// finite physical stream and returns the merged output plus the combined
// metrics — the sharded counterpart of consistency.RunStreams. mk must
// return a fresh, independent *single-port* operator instance on every
// call (multi-port operators do not shard and are reported as an error);
// burst is the router's flush bound (0 = DefaultBurst, negative = flush
// only on punctuation/control); route maps each data event to its shard
// (see RouteByAttr, RouteByID). A worker panic during the run is recovered
// and returned as an error alongside the output merged up to the failure.
func RunShardedOp(mk func() operators.Op, spec consistency.Spec, n, burst int,
	route func(event.Event) int, in stream.Stream) (stream.Stream, consistency.Metrics, error) {
	var c collector
	sh, err := newSharded("RunShardedOp", n, burst,
		func(int) []operators.Op { return []operators.Op{mk()} },
		spec, route, &c)
	if err != nil {
		return nil, consistency.Metrics{}, err
	}
	for _, ev := range in {
		sh.push(ev)
	}
	// The merger reports a failure strictly before closing done, and
	// finish waits on done, so reading c.err after finish is race-free.
	sh.finish()
	if c.err != nil {
		return c.out, consistency.Metrics{}, c.err
	}
	return c.out, sh.metrics()[0], nil
}

// collector is a shardSink that keeps the merged output and the first
// failure.
type collector struct {
	out stream.Stream
	err error
}

func (c *collector) deliverMerged(items []event.Event) { c.out = append(c.out, items...) }
func (c *collector) quarantine(err error)              { c.err = err }
