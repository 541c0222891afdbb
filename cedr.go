// Package cedr is a Go implementation of CEDR (Complex Event Detection and
// Response), the event streaming system of Barga, Goldstein, Ali and Hong,
// "Consistent Streaming Through Time: A Vision for Event Stream
// Processing", CIDR 2007.
//
// CEDR unifies data streams, complex event processing and pub/sub on a
// temporal stream model with explicit consistency guarantees:
//
//   - Events carry validity intervals, not point timestamps; providers may
//     modify and retract them after the fact.
//   - Queries are written in a composable pattern language (SEQUENCE,
//     UNLESS, NOT, CANCEL-WHEN, ...) with value correlation, instance
//     selection/consumption, and temporal slicing.
//   - Every query runs at a point on the (B, M) consistency spectrum —
//     blocking time versus memory time — whose corners are the paper's
//     strong, middle and weak levels. Out-of-order delivery is absorbed by
//     blocking, or repaired with compensating retractions, or forgotten,
//     according to the level.
//
// Quick start:
//
//	sys := cedr.New()
//	q, err := sys.Register(`
//	    EVENT MissedRestart
//	    WHEN UNLESS(SEQUENCE(INSTALL x, SHUTDOWN AS y, 12 hours),
//	                RESTART AS z, 5 minutes)
//	    WHERE CorrelationKey(Machine_Id, EQUAL)
//	    CONSISTENCY middle`)
//	...
//	sys.Push(cedr.NewEvent(1, "INSTALL", at, cedr.Forever, cedr.Payload{"Machine_Id": "m1"}))
//	sys.Finish()
//	for _, alert := range q.Alerts() { ... }
//
// The implementation layers mirror the paper: internal/history holds the
// tritemporal model and canonical-form machinery of §2/§4; internal/algebra
// the pattern operators of §3; internal/operators the view-update run-time
// algebra of §6; internal/consistency the monitor and level spectrum of
// §4/§5.
package cedr

import (
	"io"
	"math"

	"repro/internal/consistency"
	"repro/internal/delivery"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/plan"
	"repro/internal/stream"
	"repro/internal/temporal"
	"repro/internal/wal"
)

// Re-exported core types. The library is organized as internal packages
// with this façade as the supported public surface.
type (
	// Event is a stream item: an insert, a retraction, or punctuation.
	Event = event.Event
	// Payload is an event's attribute map. A payload a query delivers, like
	// its lineage, is shared with the engine and other readers: read-only.
	Payload = event.Payload
	// ID identifies an event.
	ID = event.ID
	// Time is an instant of logical application time (milliseconds).
	Time = temporal.Time
	// Duration is a span of logical time.
	Duration = temporal.Duration
	// Stream is a finite physical event stream.
	Stream = stream.Stream
	// Spec is a consistency level: a point in the (B, M) spectrum.
	Spec = consistency.Spec
	// Metrics reports a monitor's blocking/state/output counters.
	Metrics = consistency.Metrics
	// DeliveryConfig controls the out-of-order delivery simulator.
	DeliveryConfig = delivery.Config
	// HistoryStats counts what a system's queries have kept of their output.
	HistoryStats = engine.HistoryStats
	// MatcherStats counts a system's matchers' composite lookups and what they hold.
	MatcherStats = engine.MatcherStats
)

// Forever is the infinite end time for events that remain valid until
// retracted.
const Forever = temporal.Infinity

// Kind values for Event.Kind.
const (
	// Insert introduces a fact.
	Insert = event.Insert
	// Retract shrinks a previously inserted fact's lifetime.
	Retract = event.Retract
)

// Named consistency levels (Section 4) and the spectrum constructor
// (Figure 9).
var (
	// Strong blocks until provider guarantees align input; output is final.
	Strong = consistency.Strong
	// Middle emits optimistically and repairs with retractions.
	Middle = consistency.Middle
	// Weak emits optimistically and repairs at most m time units back.
	Weak = consistency.Weak
	// Level picks an interior point (B = blocking bound, M = memory bound).
	Level = consistency.Level
)

// NewEvent builds an insert event valid over [vs, ve).
func NewEvent(id ID, typ string, vs, ve Time, p Payload) Event {
	return event.NewInsert(id, typ, vs, ve, p)
}

// NewRetraction builds a retraction shrinking event id's validity to
// newEnd. Retracting to the event's start removes it entirely.
func NewRetraction(id ID, typ string, vs, newEnd Time, p Payload) Event {
	return event.NewRetract(id, typ, vs, newEnd, p)
}

// NewCTI builds the punctuation promising no later event with Sync before t
// (a provider-declared sync point).
func NewCTI(t Time) Event { return event.NewCTI(t) }

// ParseDuration parses CEDR duration literals such as "12 hours".
var ParseDuration = temporal.ParseDuration

// Deliver runs a Sync-ordered logical stream through the simulated
// transport, producing a physical arrival stream (possibly out of order,
// punctuated with sync points).
var Deliver = delivery.Deliver

// OrderedDelivery returns a transport configuration with in-order delivery
// and a sync point every period ticks.
var OrderedDelivery = delivery.Ordered

// DisorderedDelivery returns a transport with a two-point latency mixture:
// stragglerProb of events arrive stragglerDelay late.
var DisorderedDelivery = delivery.Disordered

// System is a CEDR engine instance hosting standing queries.
type System struct {
	eng *engine.Engine
}

// Option configures a System (New, Open, Restore). WithShards also
// satisfies QueryOption, so the same constructor serves both scopes.
type Option interface {
	applySys(*sysConfig)
}

// QueryOption configures one registration (Register). Options: WithSpec,
// WithShards, WithTemplate, WithoutSharing. They fill in the registration
// record the write-ahead log stores.
type QueryOption interface {
	applyQuery(*wal.RegOpts)
}

type sysConfig struct {
	eopts []engine.Option
	wopts []wal.LogOption
}

// sysOption and queryOption adapt plain functions to the option
// interfaces; dualOption serves constructors valid in both scopes.
type sysOption func(*sysConfig)

func (o sysOption) applySys(c *sysConfig) { o(c) }

type queryOption func(*wal.RegOpts)

func (o queryOption) applyQuery(c *wal.RegOpts) { o(c) }

type dualOption struct {
	sys func(*sysConfig)
	qry func(*wal.RegOpts)
}

func (o dualOption) applySys(c *sysConfig)     { o.sys(c) }
func (o dualOption) applyQuery(c *wal.RegOpts) { o.qry(c) }

// WithShards makes a query whose plan is key-partitionable run as n
// parallel shards — one goroutine, operator chain and consistency monitor
// per key partition, behind a merge stage that reproduces the exact
// single-shard output sequence. Queries whose plans do not decompose by key
// (no grouping or EQUAL correlation key, multi-port heads, first/last
// selection) transparently run on one shard. Passed to New/Open/Restore it
// sets the default for every registration; passed to Register it applies to
// that query alone. Pass AutoShards to pick the count from the plan's
// estimated per-event cost and the cores available — cheap plans stay
// single-shard instead of paying more in handoff overhead than sharding
// returns.
func WithShards(n int) interface {
	Option
	QueryOption
} {
	return dualOption{
		sys: func(c *sysConfig) { c.eopts = append(c.eopts, engine.WithShards(n)) },
		qry: func(c *wal.RegOpts) { c.Shards = n },
	}
}

// AutoShards, passed to WithShards, selects the overhead-aware automatic
// shard count (see plan.AutoShards).
const AutoShards = plan.AutoShards

// WithRouting is accepted and ignored: every system routes each data event
// only to the queries that can react to it — by event TYPE, and for
// key-specialized queries by key value — and broadcasts punctuation.
//
// Deprecated: routing is always on. WithRouting stays only because
// bench/e2e passes it; the next benchmark change removes it.
func WithRouting() Option {
	return sysOption(func(*sysConfig) {})
}

// WithSyncEvery sets a durable system's fsync batching: the write-ahead
// log flushes and fsyncs once n appended records have accumulated (1 =
// every append; the default is 32). Larger batches trade a longer
// potentially-lost tail on crash for fewer fsyncs; recovery of a shorter
// durable prefix is still byte-identical to a run over exactly that
// prefix. Ignored by New (no log).
func WithSyncEvery(n int) Option {
	return sysOption(func(c *sysConfig) { c.wopts = append(c.wopts, wal.SyncEvery(n)) })
}

// WithSpec registers the query at an explicit consistency level,
// overriding any CONSISTENCY clause in its text.
func WithSpec(spec Spec) QueryOption {
	return queryOption(func(c *wal.RegOpts) { c.HasSpec, c.Spec = true, spec })
}

// WithTemplate registers the query as an instance of a parameterized
// template: every $name placeholder in the query text is bound to
// params["name"]. The template is parsed and analyzed once per binding
// set; instances that share a binding set (and the rest of the sharing
// identity) share one executing chain, so a fleet of per-user instances
// costs one compilation per template and one execution per distinct
// binding.
func WithTemplate(params Payload) QueryOption {
	return queryOption(func(c *wal.RegOpts) { c.Bindings = params })
}

// WithoutSharing gives the registration a private execution chain even if
// an identical query is already standing. Use it when the query must not
// be affected by a sibling's SetConsistency, or must observe output from
// its own registration point with chain-level isolation.
func WithoutSharing() QueryOption {
	return queryOption(func(c *wal.RegOpts) { c.Share = false })
}

// New creates an empty, non-durable system: nothing is persisted, and
// Snapshot refuses. Use Open for a crash-safe system.
func New(opts ...Option) *System {
	var cfg sysConfig
	for _, o := range opts {
		o.applySys(&cfg)
	}
	return &System{eng: engine.New(cfg.eopts...)}
}

// Open creates (or re-opens) a crash-safe system backed by the write-ahead
// log at path. Every registration, event, punctuation, consistency switch
// and flush is appended to the log before it is processed; if the file
// already holds records — say, from a run that crashed — they are replayed
// first, recovering queries, operator state, result histories and metrics
// byte-identical to the original run's durable prefix (a torn tail from a
// mid-write crash is truncated). Input that cannot be made durable is not
// processed: after a log failure Err reports it and the system drops
// further input. Close the system to release the log.
func Open(path string, opts ...Option) (*System, error) {
	return Restore(nil, path, opts...)
}

// Restore is Open plus a snapshot (written by System.Snapshot): the
// snapshot's records are replayed first, then the log's records past the
// snapshot watermark. The log at walPath may be the one the snapshot was
// cut from — or a fresh, empty file, which is how the WAL is rotated: take
// a snapshot, restore against an empty log, delete the old log.
func Restore(snapshot io.Reader, walPath string, opts ...Option) (*System, error) {
	var cfg sysConfig
	for _, o := range opts {
		o.applySys(&cfg)
	}
	log, err := wal.Open(walPath, cfg.wopts...)
	if err != nil {
		return nil, err
	}
	eng, err := engine.Restore(snapshot, log, cfg.eopts...)
	if err != nil {
		log.Close()
		return nil, err
	}
	return &System{eng: eng}, nil
}

// Register compiles CEDR query text and installs it as a standing query,
// configured by query options (WithSpec, WithShards, WithTemplate,
// WithoutSharing).
//
// Registrations share by default: when an identical query is already
// standing — same text, same resolved consistency level, same template
// bindings — the new registration does not build a second execution
// pipeline; it attaches to the standing one as an independent endpoint (own
// Results, Subscribe callbacks, Err) and observes output from its
// attachment point onward. A shard request does not split the identity:
// sharded output equals one shard's, so an attached registration runs on
// the standing pipeline's shard count. A registration-time
// SetConsistency or Finish issued through any endpoint applies to the whole
// shared group; WithoutSharing opts a registration out.
func (s *System) Register(src string, opts ...QueryOption) (*Query, error) {
	ro := wal.RegOpts{Share: true}
	for _, o := range opts {
		o.applyQuery(&ro)
	}
	q, err := s.eng.RegisterText(src, plan.WithRegOpts(ro))
	return (*Query)(q), err
}

// Queries returns every standing query in registration order, each the
// pointer Register returned for it. After Open recovers a crashed system
// this is how the caller re-acquires handles to the replayed queries
// (subscriptions are not persisted — re-Subscribe here).
func (s *System) Queries() []*Query {
	qs := s.eng.Queries()
	out := make([]*Query, len(qs))
	for i, q := range qs {
		out[i] = (*Query)(q)
	}
	return out
}

// Query returns the registered query whose WAL query id (Query.ID) is id,
// the pointer Register returned for it, or nil when no registration had
// that id or its query unregistered. Open replays registrations and
// unregistrations in log order, so an id names the same query after a
// crash and restart.
func (s *System) Query(id int) *Query { return (*Query)(s.eng.Query(id)) }

// Push delivers one physical item to every registered query. The event's
// CEDR arrival time is taken from its C interval (Deliver stamps it); for
// hand-built events an unset arrival time is acceptable and treated as
// monotone.
func (s *System) Push(e Event) { s.eng.Push(e) }

// Run pushes a whole physical stream and flushes.
func (s *System) Run(in Stream) { s.eng.Run(in) }

// Finish flushes all queries, completing their output histories.
func (s *System) Finish() { s.eng.Finish() }

// Drain waits until every sharded query has processed and delivered
// everything pushed so far (single-shard queries are synchronous). After
// Drain, Results and subscribers reflect every prior Push.
func (s *System) Drain() { s.eng.Drain() }

// Sync flushes and fsyncs the write-ahead log — the durability point for
// everything pushed so far. A no-op on a non-durable (New) system; on
// failure the system fails stop and Err reports it. The network server's
// sync verb calls this so a client can obtain an explicit durability
// guarantee mid-stream.
func (s *System) Sync() error { return s.eng.SyncWAL() }

// Snapshot writes the system's durable state — the watermarked records,
// read back from the log file — to w. Restore(snapshot, freshLog) resumes
// from it without the original log file: that rotates the WAL. It requires
// an open durable system (Open/Restore), must not run concurrently with
// Push, and fails only itself unless the log loses its end (then Err).
func (s *System) Snapshot(w io.Writer) error { return s.eng.Snapshot(w) }

// HistoryStats reads the counters of the output histories: data items and
// sync points appended (by recovery's replay too) and the bytes of the
// chunks allocated for them.
func (s *System) HistoryStats() HistoryStats { return s.eng.HistoryStats() }

// MatcherStats reads the queries' matcher counters: composites built and
// composite cache hits, by running queries and by those that finished,
// unregistered or were quarantined, and the running queries' live undo
// records and payload-table slots. It waits for sharded queries to drain.
func (s *System) MatcherStats() MatcherStats { return s.eng.MatcherStats() }

// Standing counts the registered queries (unregistered ones excluded) and
// the execution chains they run on: shared registrations run on one.
func (s *System) Standing() (queries, chains int) { return s.eng.Standing() }

// Err reports the system's durability failure, if any (WAL append, fsync,
// or close error). A failed system drops further input — fail-stop — so
// the caller can crash, rotate, or alert. Always nil on a New system.
func (s *System) Err() error { return s.eng.Err() }

// Close shuts the system down: input is dropped from here on, sharded
// queries' goroutines exit, and the write-ahead log (if any) is synced and
// closed. Close does not flush the queries — call Finish first if the
// output histories should complete; otherwise a later Open resumes exactly
// where the log ends. Idempotent.
func (s *System) Close() error { return s.eng.Close() }

// Query is a registered standing query. It is the engine's endpoint itself,
// not a wrapper around it: Register returns it and Queries returns that same
// pointer, so two handles to one registration compare equal.
type Query engine.Query

// Name returns the query's EVENT name.
func (q *Query) Name() string { return (*engine.Query)(q).Name() }

// ID returns the query's WAL query id: the number of registrations made on
// the system before it, unregistered ones included. System.Query resolves
// it while the query is registered.
func (q *Query) ID() int { return (*engine.Query)(q).ID() }

// Results returns everything emitted so far: inserts, retractions and
// punctuation, in emission order: a copy of the query's window of its
// chain's history, from registration to now (or quarantine or unregistration).
// The items' payloads and lineage are shared, not copied: never write them.
func (q *Query) Results() Stream { return (*engine.Query)(q).Results() }

// Len returns the number of items Results would return, without copying.
func (q *Query) Len() int { return (*engine.Query)(q).Len() }

// Alerts returns the net surviving detections: inserts that were not
// subsequently retracted (compensated).
func (q *Query) Alerts() []Event {
	live := map[ID]Event{}
	var order []ID
	for _, e := range (*engine.Query)(q).View() {
		if e.IsCTI() {
			continue
		}
		if e.Kind == event.Retract {
			if old, ok := live[e.ID]; ok && e.V.End <= old.V.Start {
				delete(live, e.ID)
			}
			continue
		}
		if _, seen := live[e.ID]; !seen {
			order = append(order, e.ID)
		}
		live[e.ID] = e
	}
	var out []Event
	for _, id := range order {
		if e, ok := live[id]; ok {
			out = append(out, e)
		}
	}
	return out
}

// Metrics returns the query's monitor metrics: one entry, the pattern's
// (the stages after it are stateless maps and run under no monitor).
func (q *Query) Metrics() []Metrics { return (*engine.Query)(q).Metrics() }

// Err returns the error that quarantined the query — the recovered panic
// of an operator, shard worker, or subscriber callback — or nil while the
// query is healthy. A quarantined query stops processing input and
// emitting output; its results up to the failure remain readable, and
// sibling queries on the same system are unaffected.
func (q *Query) Err() error { return (*engine.Query)(q).Err() }

// Subscribe registers a synchronous callback for every output item
// delivered to this query from now on.
//
// The callback runs on the delivering goroutine with the query's pipeline
// locked, and every read of a query (Results, Tags, Len, Alerts, Err,
// Subscribe) takes that lock: a callback that calls into this query or any
// query sharing its pipeline — by default, any query registered from the
// same text — deadlocks. Hand the item to another goroutine instead. Its
// payload and lineage are shared with every reader: never write them.
func (q *Query) Subscribe(fn func(Event)) {
	q.SubscribeTagged(math.MaxUint64, func(e Event, _ uint64) { fn(e) })
}

// SubscribeTagged registers a synchronous callback receiving every output
// item tagged from onward with its chain order tag (see Tags), until cancel
// is called. from is clamped into the query's output: 0 first replays it
// all, a tag at or past its end is Subscribe's "from now on". There is no
// gap or duplication against concurrent delivery. Subscribe's no-call-back
// rule applies, to cancel too: call it from outside the callback. After
// cancel returns the callback never runs again; calling it twice, or after
// Unregister, is a no-op. Items are read-only, as in Subscribe.
func (q *Query) SubscribeTagged(from uint64, fn func(Event, uint64)) (cancel func()) {
	return (*engine.Query)(q).SubscribeTagged(from, fn)
}

// Tags returns the chain output position of each Results item: Tags()[i]
// is the cumulative index the executing chain assigned to Results()[i].
// Endpoints attached at registration count from 0; an endpoint attached
// to a warm shared chain starts at the chain's position at attach time.
// An independent execution of the same plan over the same input assigns
// identical positions, so tags let a remote subscriber verify it observed
// exactly the in-process output sequence.
func (q *Query) Tags() []uint64 { return (*engine.Query)(q).Tags() }

// SetConsistency switches the query's consistency level at runtime. On a
// shared registration the switch applies to the whole group — every
// endpoint of the standing query observes the released output. On an
// unregistered query it does nothing.
func (q *Query) SetConsistency(spec Spec) { (*engine.Query)(q).SetSpec(spec) }

// Unregister removes the standing query: its Results up to this point stay
// readable, subscribers receive nothing further, and when it was the last
// registration of a shared group the underlying execution pipeline is torn
// down (goroutines exit, input is no longer delivered to it). On a durable
// system the unregistration is logged, so recovery reproduces it.
// Idempotent.
func (q *Query) Unregister() { (*engine.Query)(q).Unregister() }

// Shared reports whether the query runs on a joinable shared chain
// (registered without WithoutSharing and eligible for sharing).
func (q *Query) Shared() bool { return (*engine.Query)(q).Shared() }

// Shards returns the number of parallel shards the query runs on (1 unless
// sharding was requested and the plan is key-partitionable). A shared
// registration reports the shard count of the pipeline it attached to,
// whatever it requested.
func (q *Query) Shards() int { return (*engine.Query)(q).Shards() }

// Explain renders the compiled plan.
func (q *Query) Explain() string { return (*engine.Query)(q).Plan().Explain() }
