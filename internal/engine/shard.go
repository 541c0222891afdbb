// Sharded execution: the key-partitioned parallel runtime.
//
// Only a plan's head stage (the matcher) is sharded. A sharded query runs
// N copies of the head's monitor, each owned by one worker goroutine. The
// router hashes every data event to its key's shard and broadcasts
// punctuation to all shards; every other shard receives an advance-only
// probe carrying the event's Sync, so all shards advance their operators
// at identical boundaries and each shard's output is byte-for-byte the
// key-restricted slice of what a single-shard head would emit (see
// Monitor.PushTaggedInto). Driven through the same calls, the sibling
// heads take the same steps for their whole life, so each worker tags its
// outputs with its own head's step count and the merger goroutine — one
// per query — sorts each run's aligned bursts once by those tags
// (consistency.Merger), reconstructing the exact single-shard head output.
// The stages after the head (a compiled plan's Slice and Project) are
// stateless, so they need no monitor: each worker maps every data item its
// head emits through them before the merge (shardWorker.mapFrom), an item
// dropped there taking its tag with it, and punctuation passes unchanged.
// The query's output is the one-shard head's output mapped item by item.
//
//	            ┌─ worker 0: head ─► map ─┐
//	router ──► ─┼─ worker 1: head ─► map ─┼─► merger ──► results + subscribers
//	 (hash key) └─ worker …: head ─► map ─┘  (order tags)
//
// Handoff is batched: the router accumulates per-shard *runs* of
// consecutive items and flushes a run to every worker at identical input
// boundaries — when the run reaches the burst size, on punctuation, on
// spec switches, and at barriers/finish. Workers process a whole run per
// channel receive into one aggregated burst (outputs, order tags in a
// shared arena, per-item state trace), and the merger merges the aligned
// bursts of a run in one pass. Run and burst buffers cycle through
// per-worker free lists, so steady-state handoff does not allocate and a
// slow consumer exerts backpressure on the router.
//
// With more than one shard the pipeline is asynchronous: Push enqueues and
// returns, Finish drains, and Results() exposes a deterministic prefix at
// any time. One shard runs inline: no goroutines, channels or free lists —
// every item goes through the same per-item body (shardWorker.process) on
// the caller's goroutine, under the same recover barrier, and its output
// is delivered before the call returns (merging one shard is the
// identity).
package engine

import (
	"fmt"
	"sync"

	"repro/internal/consistency"
	"repro/internal/event"
	"repro/internal/operators"
	"repro/internal/stream"
	"repro/internal/temporal"
)

// Shard item kinds. Every worker receives every input item exactly once
// (data on the owning shard, a probe elsewhere; control items are
// broadcast), which is what keeps the sibling heads in step and lets the
// merger align runs without extra bookkeeping.
const (
	itemData uint8 = iota
	itemProbe
	itemCTI
	itemSetSpec
	itemBarrier
	itemFinish
)

const (
	// DefaultBurst is the router's default flush bound: the number of
	// consecutive input items accumulated per shard run before handoff.
	// Large enough to amortize the channel round-trip and merge setup over
	// many events, small enough to keep latency and buffer footprint modest.
	DefaultBurst = 64
	// runBufs is the number of run and burst buffers cycling per worker:
	// one being filled by the router, up to two in flight, one being
	// consumed. The free lists double as backpressure — a router that gets
	// ahead of a worker (or a worker ahead of the merger) blocks on the
	// free list instead of growing a queue.
	runBufs = 4
)

type shardItem struct {
	kind uint8
	ev   event.Event
	spec consistency.Spec
}

// shardRun is one router→worker handoff unit: a run of consecutive input
// items. The router flushes all workers at identical boundaries, so the
// k-th item of every shard's run is the same input item (data on the
// owner, a probe elsewhere).
type shardRun struct {
	items []shardItem
}

// shardBurst is one worker→merger handoff unit: the aggregated tagged
// outputs of a whole shard run.
type shardBurst struct {
	kind uint8 // kind of the run's last item (the flush cause)
	// out accumulates the mapped head outputs and their order tags for the
	// whole run.
	out consistency.Burst
	// states[k] is the head monitor's state after item k, less the
	// guarantee markers in its log window on every shard but shard 0.
	// Broadcast punctuation is logged once per shard but contributes once
	// to the single-shard state, so the sum across shards reproduces the
	// single-shard head's per-push state samples exactly (probes are
	// already excluded from every shard's own count).
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

// clearOutputs drops the burst's outputs and traces but keeps its run
// header (kind) — the shape a failed worker's aligned empty response
// takes.
func (b *shardBurst) clearOutputs() {
	b.out.Reset()
	b.states = b.states[:0]
}

type shardWorker struct {
	head *consistency.Monitor
	// stages are the plan's stateless stages after the head, this worker's
	// own instances; mapFrom runs the head's data output through them.
	stages []operators.Op
	// mapped is mapFrom's scratch: the head's outputs of one item and
	// their tags, before mapping (its Arena is unused).
	mapped consistency.Burst
	// merged is set when a merger reads this worker's bursts (n > 1): only
	// then are outputs order-tagged and per-item state traced.
	// dropMarkers is set on every merged worker but shard 0 (see
	// shardBurst.states).
	merged, dropMarkers bool
	// Handoff channels and free lists for the run and burst buffers cycling
	// through this worker's pipeline (see runBufs); nil when n = 1.
	in         chan *shardRun
	out        chan *shardBurst
	freeRuns   chan *shardRun
	freeBursts chan *shardBurst
}

// sharded is the per-query runtime. The router methods (push, setSpec,
// finish, barrier) serialize on mu, so concurrent producers are safe.
// metrics additionally requires that no Push lands while it drains
// (Metrics reads are only exact between pushes).
type sharded struct {
	n       int
	burst   int // flush bound; <= 0 flushes only on control items
	route   func(event.Event) int
	workers []shardWorker
	w1      [1]shardWorker // workers' storage when n = 1
	sink    shardSink
	name    string // query name, for the quarantine error

	mu       sync.Mutex // serializes run handoff order
	finished bool
	// pending[i] is worker i's run being filled; all pending runs hold the
	// same pendLen items (the per-shard views of the same input items).
	pending []*shardRun
	pendLen int

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
// every shard runs its chain's head under a monitor and maps the head's
// output through the rest. name labels the quarantine error of a panicking
// operator. start fails on a multi-port head with more than one shard and
// on a stage after the head that is not operators.Stateless.
func (s *sharded) start(name string, n, burst int, stagesFor func(shard int) []operators.Op,
	spec consistency.Spec, route func(event.Event) int, sink shardSink) error {
	if n < 1 {
		n = 1
	}
	if burst == 0 {
		burst = DefaultBurst
	}
	*s = sharded{n: n, burst: burst, route: route, sink: sink, name: name}
	s.workers = s.w1[:]
	if n > 1 {
		s.workers = make([]shardWorker, n)
	}
	for i := range s.workers {
		stages := stagesFor(i)
		if n > 1 && stages[0].Arity() != 1 {
			return fmt.Errorf("engine: sharded execution requires a single-port head operator")
		}
		for _, op := range stages[1:] {
			if _, ok := op.(operators.Stateless); !ok {
				return fmt.Errorf("engine: stage %s after the head is not stateless", op.Name())
			}
		}
		s.workers[i].head = consistency.NewMonitor(stages[0], spec)
		s.workers[i].stages = stages[1:]
	}
	if n == 1 {
		return nil // inline: see runInline
	}
	s.done, s.barrierCh = make(chan struct{}), make(chan struct{})
	for i := range s.workers {
		w := &s.workers[i]
		w.merged, w.dropMarkers = true, i > 0
		w.in = make(chan *shardRun, runBufs)
		w.out = make(chan *shardBurst, runBufs)
		w.freeRuns = make(chan *shardRun, runBufs)
		w.freeBursts = make(chan *shardBurst, runBufs)
		// Run buffers start empty and grow on first use: the free lists
		// recycle them, so append growth is a warmup cost only and the
		// steady state stays allocation-free either way — while plans that
		// never see a full burst (or are registered and quickly finished)
		// skip the up-front burst-sized allocations entirely.
		for k := 0; k < runBufs-1; k++ {
			w.freeRuns <- new(shardRun)
		}
		for k := 0; k < runBufs; k++ {
			w.freeBursts <- new(shardBurst)
		}
		s.pending = append(s.pending, new(shardRun))
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

// push routes one physical item: punctuation broadcasts (and flushes —
// punctuation is a natural batch boundary), data goes to the key's shard
// with advance probes everywhere else. With one shard it runs the item
// inline and returns its output (see runInline); otherwise it returns nil.
func (s *sharded) push(ev event.Event) []event.Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.finished {
		return nil
	}
	if s.n == 1 {
		kind := itemData
		if ev.IsCTI() {
			kind = itemCTI
		}
		return s.runInline(shardItem{kind: kind, ev: ev})
	}
	if ev.IsCTI() {
		it := shardItem{kind: itemCTI, ev: ev}
		for _, r := range s.pending {
			r.items = append(r.items, it)
		}
		s.pendLen++
		s.flushLocked()
		return nil
	}
	owner := 0
	if s.route != nil {
		owner = s.route(ev)
	}
	// The probe mirrors the event's Sync and CEDR arrival time; sibling
	// monitors advance (and stamp output) exactly as the owner does.
	probe := event.Event{V: temporal.From(ev.Sync()), C: ev.C}
	for i, r := range s.pending {
		if i == owner {
			r.items = append(r.items, shardItem{kind: itemData, ev: ev})
		} else {
			r.items = append(r.items, shardItem{kind: itemProbe, ev: probe})
		}
	}
	s.pendLen++
	if s.burst > 0 && s.pendLen >= s.burst {
		s.flushLocked()
	}
	return nil
}

// control appends a broadcast control item and flushes the pending runs,
// so the control item is always the last item of its run; with one shard
// it runs the item inline. Caller holds mu.
func (s *sharded) control(kind uint8, spec consistency.Spec) {
	if s.n == 1 {
		s.runInline(shardItem{kind: kind, spec: spec})
		return
	}
	it := shardItem{kind: kind, spec: spec}
	for _, r := range s.pending {
		r.items = append(r.items, it)
	}
	s.pendLen++
	s.flushLocked()
}

// flushLocked hands the pending runs to the workers and refills the
// pending slots from the free lists (blocking there is the backpressure).
// Caller holds mu.
func (s *sharded) flushLocked() {
	if s.pendLen == 0 {
		return
	}
	for i := range s.workers {
		w := &s.workers[i]
		w.in <- s.pending[i]
		r := <-w.freeRuns
		r.items = r.items[:0]
		s.pending[i] = r
	}
	s.pendLen = 0
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
// run (any still-pending items plus the finish flush itself).
func (s *sharded) finish() {
	s.mu.Lock()
	if !s.finished {
		s.finished = true
		s.control(itemFinish, consistency.Spec{})
	}
	s.mu.Unlock()
	if s.n > 1 {
		<-s.done
	}
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
// run would report them — one entry, the head's. The head's per-shard
// metrics combine: partitioned counters sum, broadcast punctuation counts
// once, and with n > 1 MaxState comes from the merger's per-item
// cross-shard state trace, which reproduces the head's per-push samples
// exactly.
func (s *sharded) metrics() []consistency.Metrics {
	s.barrier()
	agg := s.workers[0].head.Metrics()
	for i := 1; i < s.n; i++ {
		w := &s.workers[i]
		m := w.head.Metrics()
		agg.InputEvents += m.InputEvents
		agg.OutputInserts += m.OutputInserts
		agg.OutputRetractions += m.OutputRetractions
		agg.Compensations += m.Compensations
		agg.Dropped += m.Dropped
		agg.Violations += m.Violations
		agg.Replays += m.Replays
		agg.BlockedEvents += m.BlockedEvents
		agg.TotalBlocking += m.TotalBlocking
		// Broadcast guarantee markers are logged per shard but count once
		// in the single-shard state.
		agg.CurState += m.CurState - w.head.WindowMarkers()
		// InputCTIs and OutputCTIs: punctuation is broadcast and every
		// shard counts the identical stream once — keep shard 0's.
	}
	if s.n > 1 {
		agg.MaxState = s.maxState
	}
	return []consistency.Metrics{agg}
}

func (w *shardWorker) run(name string) {
	var failed error
	for r := range w.in {
		b := <-w.freeBursts
		b.reset()
		last := r.items[len(r.items)-1]
		b.kind = last.kind
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
		w.freeRuns <- r
		w.out <- b
		if last.kind == itemFinish {
			return
		}
	}
}

// processRunSafely drives a run of items through the head monitor and the
// stages after it under a recover barrier: a panicking operator —
// at any intra-run offset — yields the quarantine error of query name (and
// the caller sends an aligned empty burst, or stops when inline) instead of
// killing the process or deadlocking the merger.
func (w *shardWorker) processRunSafely(name string, items []shardItem, b *shardBurst) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
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
	from := b.out.Len()
	switch it.kind {
	case itemData, itemProbe, itemCTI:
		w.head.PushTaggedInto(0, it.ev, w.merged, it.kind == itemProbe, &b.out)
	case itemSetSpec:
		w.head.SetSpecTaggedInto(it.spec, w.merged, &b.out)
	case itemFinish:
		w.head.FinishTaggedInto(w.merged, &b.out)
	case itemBarrier:
		// State is unchanged; the run round-trip is the synchronization.
	}
	w.mapFrom(from, &b.out)
	if !w.merged {
		return
	}
	st := w.head.CurState()
	if w.dropMarkers {
		st -= w.head.WindowMarkers()
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
		var kind uint8
		for i := range s.workers {
			b := <-s.workers[i].out
			bs[i], outs[i] = b, &b.out
			kind = b.kind
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
		// Merged events are value copies; the burst buffers can cycle back
		// to the workers before delivery runs.
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
		case itemFinish:
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
// route maps each data event to its shard (see RouteByAttr, RouteByID).
// A worker panic during the run is recovered and returned as an error
// alongside the output merged up to the failure.
func RunShardedOp(mk func() operators.Op, spec consistency.Spec, n int,
	route func(event.Event) int, in stream.Stream) (stream.Stream, consistency.Metrics, error) {
	return RunShardedOpBurst(mk, spec, n, 0, route, in)
}

// RunShardedOpBurst is RunShardedOp with an explicit router burst size
// (0 = DefaultBurst, negative = flush only on punctuation/control); the
// burst-grid differential tests sweep it to prove run boundaries are
// semantics-free.
func RunShardedOpBurst(mk func() operators.Op, spec consistency.Spec, n, burst int,
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
