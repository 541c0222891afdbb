// Sharded execution: the key-partitioned parallel runtime.
//
// A sharded query runs N copies of its monitor chain, each owned by one
// worker goroutine. The router hashes every data event to its key's shard
// and broadcasts punctuation to all shards; every other shard receives an
// advance-only probe carrying the event's Sync, so all shards advance
// their operators at identical boundaries and each shard's output is
// byte-for-byte the key-restricted slice of what a single-shard run would
// emit (see Monitor.PushTaggedInto). Workers tag their outputs with order
// keys and the merger goroutine — one per query — interleaves the per-item
// bursts with internal/delivery's merge stage, reconstructing the exact
// single-shard emission sequence:
//
//	            ┌─ worker 0: monitors ─┐
//	router ──► ─┼─ worker 1: monitors ─┼─► merger ──► results + subscribers
//	 (hash key) └─ worker …: monitors ─┘   (order tags)
//
// Handoff is batched: the router accumulates per-shard *runs* of
// consecutive items and flushes a run to every worker at identical global
// sequence boundaries — when the run reaches the burst size, on
// punctuation, on spec switches, and at barriers/finish. Workers process a
// whole run per channel receive into one aggregated burst (outputs, order
// tags in a shared arena, per-item state trace), and the merger
// reconstructs the per-event deterministic order by merging the aligned
// runs item by item. Run and burst buffers cycle through per-worker free
// lists, so steady-state handoff does not allocate and a slow consumer
// exerts backpressure on the router.
//
// With more than one shard the pipeline is asynchronous: Push enqueues and
// returns, Finish drains, and Results() exposes a deterministic prefix at
// any time. One shard runs inline: no goroutines, channels or free lists —
// every item goes through the same per-item body (shardWorker.process) on
// the caller's goroutine, under the same recover barrier, and its output is
// delivered before the call returns (merging one shard is the identity).
package engine

import (
	"fmt"
	"sync"

	"repro/internal/consistency"
	"repro/internal/delivery"
	"repro/internal/event"
	"repro/internal/operators"
	"repro/internal/ordkey"
	"repro/internal/stream"
	"repro/internal/temporal"
)

// Shard item kinds. Every worker receives every sequence number exactly
// once (data on the owning shard, a probe elsewhere; control items are
// broadcast), which is what lets the merger align runs without extra
// bookkeeping.
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
	// maxTracedStages bounds the per-stage state trace carried in each
	// burst (inline, allocation-free). Plans have at most three stages.
	maxTracedStages = 8
)

type shardItem struct {
	kind uint8
	ev   event.Event
	spec consistency.Spec
}

// shardRun is one router→worker handoff unit: a run of consecutive input
// items. items[k] has global sequence number first+k; the router flushes
// all workers at identical boundaries, so the k-th item of every shard's
// run is the same input item (data on the owner, a probe elsewhere).
type shardRun struct {
	first int
	items []shardItem
}

// stageState is one input item's per-stage monitor state sample (see
// shardBurst.states).
type stageState struct {
	state  [maxTracedStages]int32
	shared [maxTracedStages]int32
}

// shardBurst is one worker→merger handoff unit: the aggregated tagged
// outputs of a whole shard run.
type shardBurst struct {
	first int   // sequence number of the run's first input item
	n     int   // input items covered
	kind  uint8 // kind of the run's last item (the flush cause)
	// out accumulates the final stage's outputs and order tags for the
	// whole run; ends[k] is the exclusive end offset of item k's outputs,
	// so the merger can merge the aligned runs item by item (tags are only
	// globally ordered within one input item).
	out  consistency.Burst
	ends []int32
	// states[k] is the per-stage state sample after item k: state[j] is
	// stage j's monitor state minus the guarantee markers in its log
	// window; shared[j] is that marker count. Broadcast punctuation is
	// logged once per shard but contributes once to the single-shard
	// state, so the merger sums state across shards and adds one shard's
	// shared count — reproducing the single-shard monitor's per-push state
	// samples exactly (probes are already excluded from every shard's own
	// count).
	states []stageState
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
// header (first/n/kind) — the shape a failed worker's aligned empty
// response takes.
func (b *shardBurst) clearOutputs() {
	b.out.Reset()
	b.ends = b.ends[:0]
	b.states = b.states[:0]
}

type shardWorker struct {
	monitors []*consistency.Monitor
	// merged is set when a merger reads this worker's bursts (n > 1): only
	// then are outputs order-tagged and per-item ends and state traced.
	merged bool
	// Handoff channels and free lists for the run and burst buffers cycling
	// through this worker's pipeline (see runBufs); nil when n = 1.
	in         chan *shardRun
	out        chan *shardBurst
	freeRuns   chan *shardRun
	freeBursts chan *shardBurst

	arr  []byte // arrival-key scratch (stage 0)
	trig []byte // per-stage tag-prefix scratch (SetSpec/Finish)
	// mid[i] accumulates stage i's outputs while the cascade feeds them to
	// stage i+1; arrScratch[i] is stage i+1's arrival-key scratch.
	mid        []consistency.Burst
	arrScratch [][]byte
}

// sharded is the per-query runtime. The router methods (push, setSpec,
// finish, barrier) serialize on mu, so concurrent producers are safe.
// metrics additionally requires that no Push lands while it drains
// (Metrics reads are only exact between pushes).
type sharded struct {
	n       int
	stages  int
	burst   int // flush bound; <= 0 flushes only on control items
	route   func(event.Event) int
	workers []shardWorker
	w1      [1]shardWorker // workers' storage when n = 1
	sink    shardSink
	name    string // query name, for the quarantine error

	mu       sync.Mutex // serializes seq assignment and run handoff order
	seq      int
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
	finishOut []event.Event

	// merger-owned; read only after a barrier or done handshake.
	maxState [maxTracedStages]int
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
func newSharded(name string, n, burst int, stagesFor func(shard int) ([]operators.Op, error),
	spec consistency.Spec, route func(event.Event) int, sink shardSink) (*sharded, error) {
	s := new(sharded)
	return s, s.start(name, n, burst, stagesFor, spec, route, sink)
}

// start builds and starts the runtime in place (a chain embeds it). burst
// is the router's flush bound (0 = DefaultBurst, negative = unbounded:
// flush only on punctuation/control). stagesFor must return an
// independent, freshly instantiated operator chain per shard (operator
// Clones may share scratch and are not safe across goroutines). name
// labels the quarantine error of a panicking operator.
func (s *sharded) start(name string, n, burst int, stagesFor func(shard int) ([]operators.Op, error),
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
		stages, err := stagesFor(i)
		if err != nil {
			return err
		}
		if len(stages) == 0 {
			return fmt.Errorf("engine: shard %d has no stages", i)
		}
		if n > 1 && len(stages) > maxTracedStages {
			return fmt.Errorf("engine: sharded execution traces at most %d stages, plan has %d", maxTracedStages, len(stages))
		}
		if n > 1 && stages[0].Arity() != 1 {
			return fmt.Errorf("engine: sharded execution requires a single-port head operator")
		}
		w := &s.workers[i]
		w.monitors = make([]*consistency.Monitor, len(stages))
		w.mid = make([]consistency.Burst, len(stages)-1)
		w.arrScratch = make([][]byte, len(stages)-1)
		for j, op := range stages {
			w.monitors[j] = consistency.NewMonitor(op, spec)
		}
	}
	s.stages = len(s.workers[0].monitors)
	if n == 1 {
		return nil // inline: see runInline
	}
	s.done, s.barrierCh = make(chan struct{}), make(chan struct{})
	for i := range s.workers {
		w := &s.workers[i]
		w.merged = true
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
// shard's monitor chain on the caller's goroutine, under the worker's
// recover barrier, and delivers the output directly. It returns that
// output, valid until the next call. Caller holds mu.
func (s *sharded) runInline(it shardItem) []event.Event {
	if s.failed != nil {
		return nil
	}
	seq := s.seq
	s.seq++
	b := &s.one
	b.reset()
	one := [1]shardItem{it}
	if s.failed = s.workers[0].processRunSafely(s.name, seq, one[:], b); s.failed != nil {
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
	seq := s.seq
	s.seq++
	if s.pendLen == 0 {
		for _, r := range s.pending {
			r.first = seq
		}
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
// it runs the item inline and returns its output. Caller holds mu.
func (s *sharded) control(kind uint8, spec consistency.Spec) []event.Event {
	if s.n == 1 {
		return s.runInline(shardItem{kind: kind, spec: spec})
	}
	if s.pendLen == 0 {
		for _, r := range s.pending {
			r.first = s.seq
		}
	}
	it := shardItem{kind: kind, spec: spec}
	s.seq++
	for _, r := range s.pending {
		r.items = append(r.items, it)
	}
	s.pendLen++
	s.flushLocked()
	return nil
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

// finish flushes every shard, waits for the merger to drain, and returns
// the merged output of the final run (any still-pending items plus the
// finish flush itself).
func (s *sharded) finish() []event.Event {
	s.mu.Lock()
	if !s.finished {
		s.finished = true
		if out := s.control(itemFinish, consistency.Spec{}); len(out) > 0 {
			s.finishOut = append([]event.Event(nil), out...)
		}
	}
	s.mu.Unlock()
	if s.n > 1 {
		<-s.done
	}
	return s.finishOut
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

// metrics combines the per-shard monitor metrics into the metrics the
// single-shard run would report: partitioned counters sum, broadcast
// punctuation counts once, and with n > 1 MaxState comes from the merger's
// per-item cross-shard state trace. The trace samples once per input item,
// which reproduces the head stage's per-push samples exactly; downstream
// stages are pushed several times per input item by the cascade, so their
// MaxState may under-read momentary intra-item peaks. With one shard the
// monitors' own counters are returned as they are.
func (s *sharded) metrics() []consistency.Metrics {
	s.barrier()
	out := make([]consistency.Metrics, s.stages)
	for j := 0; j < s.stages; j++ {
		agg := s.workers[0].monitors[j].Metrics()
		for i := 1; i < s.n; i++ {
			w := &s.workers[i]
			m := w.monitors[j].Metrics()
			agg.InputEvents += m.InputEvents
			agg.OutputInserts += m.OutputInserts
			agg.OutputRetractions += m.OutputRetractions
			agg.Compensations += m.Compensations
			agg.Dropped += m.Dropped
			agg.Violations += m.Violations
			agg.Replays += m.Replays
			agg.BlockedEvents += m.BlockedEvents
			agg.TotalBlocking += m.TotalBlocking
			// Broadcast guarantee markers are logged per shard but count
			// once in the single-shard state.
			agg.CurState += m.CurState - w.monitors[j].WindowMarkers()
			// InputCTIs and OutputCTIs: punctuation is broadcast and every
			// shard counts the identical stream once — keep shard 0's.
		}
		if s.n > 1 {
			// start bounds a merged chain to maxTracedStages, so the
			// trace always covers every stage.
			agg.MaxState = s.maxState[j]
		}
		out[j] = agg
	}
	return out
}

func (w *shardWorker) run(name string) {
	var failed error
	for r := range w.in {
		b := <-w.freeBursts
		b.reset()
		last := r.items[len(r.items)-1].kind
		b.first, b.n, b.kind = r.first, len(r.items), last
		if failed == nil {
			failed = w.processRunSafely(name, r.first, r.items, b)
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
		if last == itemFinish {
			return
		}
	}
}

// processRunSafely drives a run of items (the first numbered first)
// through the monitor chain under a recover barrier: a panicking operator —
// at any intra-run offset — yields the quarantine error of query name (and
// the caller sends an aligned empty burst, or stops when inline) instead of
// killing the process or deadlocking the merger.
func (w *shardWorker) processRunSafely(name string, first int, items []shardItem, b *shardBurst) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = recoverPanic(name, "operator stage", rec)
		}
	}()
	for k := range items {
		w.process(first+k, items[k], b)
	}
	return nil
}

// process drives one item through the shard's monitor chain, appending its
// outputs (and, when merged, their tags and the item's trace) to b. It is
// the worker loop's per-item body and the whole of the one-shard runtime
// (the critical-path benchmark also times a shard's full item sequence this
// way, without channel overhead).
func (w *shardWorker) process(seq int, it shardItem, b *shardBurst) {
	switch it.kind {
	case itemData, itemProbe, itemCTI:
		arr := w.key(&w.arr, seq, nil)
		if len(w.monitors) == 1 {
			w.monitors[0].PushTaggedInto(0, it.ev, arr, nil, it.kind == itemProbe, &b.out)
		} else {
			mid := &w.mid[0]
			mid.Reset()
			w.monitors[0].PushTaggedInto(0, it.ev, arr, nil, it.kind == itemProbe, mid)
			w.cascade(1, seq, mid, b)
		}
	case itemSetSpec, itemFinish:
		// Each stage's released output flows through the remaining
		// stages, stage by stage, under a per-stage tag prefix.
		for i := range w.monitors {
			trig := w.key(&w.trig, i, nil)
			arr := w.key(&w.arr, seq, nil)
			last := i == len(w.monitors)-1
			sink := &b.out
			if !last {
				sink = &w.mid[i]
				sink.Reset()
			}
			if it.kind == itemSetSpec {
				w.monitors[i].SetSpecTaggedInto(it.spec, arr, trig, sink)
			} else {
				w.monitors[i].FinishTaggedInto(arr, trig, sink)
			}
			if !last {
				w.cascade(i+1, seq, sink, b)
			}
		}
	case itemBarrier:
		// State is unchanged; the run round-trip is the synchronization.
	}
	if !w.merged {
		return
	}
	b.ends = append(b.ends, int32(b.out.Len()))
	var st stageState
	for j, m := range w.monitors {
		if j >= maxTracedStages {
			break
		}
		mk := int32(m.WindowMarkers())
		st.state[j] = int32(m.CurState()) - mk
		st.shared[j] = mk
	}
	b.states = append(b.states, st)
}

// key rebuilds *scratch as the order key (n, suffix…) and returns it, or
// returns nil when unmerged — a nil arrival key tells a monitor not to tag.
func (w *shardWorker) key(scratch *[]byte, n int, suffix []byte) []byte {
	if !w.merged {
		return nil
	}
	*scratch = append(ordkey.AppendUint((*scratch)[:0], uint64(n)), suffix...)
	return *scratch
}

// cascade drives the outputs accumulated in src (stage from-1's burst)
// through the monitors from stage `from` on, appending the final stage's
// outputs to b. When merged each item's outputs nest under its tag, so the
// merged cross-shard order reproduces the one-shard stage-by-stage cascade
// exactly.
func (w *shardWorker) cascade(from, seq int, src *consistency.Burst, b *shardBurst) {
	last := from == len(w.monitors)-1
	var mid *consistency.Burst
	if !last {
		mid = &w.mid[from]
	}
	for k := range src.Evs {
		// The downstream arrival key is (input seq, upstream tag): globally
		// ordered across shards and runs, because upstream tags are ordered
		// within one input item.
		var up []byte
		if w.merged {
			up = src.Tags[k]
		}
		arr := w.key(&w.arrScratch[from-1], seq, up)
		if last {
			w.monitors[from].PushTaggedInto(0, src.Evs[k], arr, up, false, &b.out)
		} else {
			mid.Reset()
			w.monitors[from].PushTaggedInto(0, src.Evs[k], arr, up, false, mid)
			w.cascade(from+1, seq, mid, b)
		}
	}
}

// mergeLoop gathers each run's bursts from all shards, merges the aligned
// per-item output slices into the single-shard emission order, and
// delivers once per run.
func (s *sharded) mergeLoop() {
	var mg delivery.Merger
	var out []event.Event
	var failed error
	bs := make([]*shardBurst, s.n)
	evs := make([][]event.Event, s.n)
	tags := make([][][]byte, s.n)
	for {
		var kind uint8
		var n int
		for i := range s.workers {
			b := <-s.workers[i].out
			bs[i] = b
			kind = b.kind
			n = b.n
			if b.fail != nil && failed == nil {
				// First failure wins; the query is quarantined before any
				// post-failure delivery could happen.
				failed = b.fail
				s.sink.quarantine(failed)
			}
		}
		out = out[:0]
		if failed == nil {
			for k := 0; k < n; k++ {
				// Per-item cross-shard state trace (see shardBurst.states).
				var sum [maxTracedStages]int
				for i, b := range bs {
					if k >= len(b.states) {
						continue
					}
					st := &b.states[k]
					for j := 0; j < s.stages && j < maxTracedStages; j++ {
						sum[j] += int(st.state[j])
						if i == 0 {
							sum[j] += int(st.shared[j])
						}
					}
				}
				for j := 0; j < s.stages && j < maxTracedStages; j++ {
					if sum[j] > s.maxState[j] {
						s.maxState[j] = sum[j]
					}
				}
				// Tags are only globally ordered within one input item, so
				// merge the aligned runs item by item.
				for i, b := range bs {
					start, end := 0, 0
					if k < len(b.ends) {
						end = int(b.ends[k])
						if k > 0 {
							start = int(b.ends[k-1])
						}
					}
					evs[i] = b.out.Evs[start:end]
					tags[i] = b.out.Tags[start:end]
				}
				out = mg.MergeTagged(out, evs, tags)
			}
		}
		// Merged events are value copies; the burst buffers can cycle back
		// to the workers before delivery runs.
		for i := range s.workers {
			s.workers[i].freeBursts <- bs[i]
			bs[i] = nil
		}
		switch kind {
		case itemBarrier:
			// Deliver the run's output before the handshake, then keep
			// going. Barriers (and the finish handshake below) still
			// complete after a failure — metrics, Finish, and engine
			// shutdown must not hang on a quarantined query.
			if failed == nil && len(out) > 0 {
				s.sink.deliverMerged(out)
			}
			s.barrierCh <- struct{}{}
		case itemFinish:
			if failed == nil {
				s.finishOut = append([]event.Event(nil), out...)
				s.sink.deliverMerged(s.finishOut)
			}
			close(s.done)
			return
		default:
			// A partial merge after a failure would be wrong output, not
			// late output: skip delivery entirely once any shard failed.
			if failed == nil && len(out) > 0 {
				s.sink.deliverMerged(out)
			}
		}
	}
}

// RouteByAttr routes events by the event.Key of a payload attribute — the
// key the matcher correlates on — so values it calls equal (int64(3) and
// float64(3)) share a shard, and every wild value (none, NaN, an exotic
// type) goes to one fixed shard. Retractions must carry the attribute too
// (all in-repo workloads do). A grouped aggregate keys groups by rendering
// (operators.KeyString), which agrees whenever the attribute holds numbers
// only or strings only.
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
		func(int) ([]operators.Op, error) { return []operators.Op{mk()}, nil },
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
