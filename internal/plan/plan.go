// Package plan compiles analyzed CEDR queries into executable physical
// plans: a chain of run-time operators — a matcher to be wrapped in a
// consistency monitor, then stateless maps — plus the query's consistency
// specification. It applies the
// logical-to-physical rewrites the paper attributes to the optimizer:
// correlation-key pushdown into the incremental matcher tree and
// stateless-stage reordering.
//
// Compile is Prepare, which resolves a registration's sharing identity
// (Key) and its cached analysis without building anything, then Plan,
// which builds the plan and its operators. The engine prepares every
// registration and builds a plan only for a chain it creates: attaching to
// a running one is a map lookup.
package plan

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/algebra/inc"
	"repro/internal/consistency"
	"repro/internal/event"
	"repro/internal/lang"
	"repro/internal/operators"
	"repro/internal/temporal"
	"repro/internal/wal"
)

// Plan is an executable query plan: a unary operator chain. Stage 0, the
// matcher, consumes the input stream under a consistency monitor; each
// later stage is stateless and maps every data item the stage before it
// emits. Plans come only from Prepared.Plan and Compile.
type Plan struct {
	Name string
	// Stages are the plan's operators; a running query's plan holds none.
	Stages []operators.Op
	Spec   consistency.Spec
	// Src is the CEDR query text the plan was compiled from.
	Src string
	// Rewrites records which optimizer rules fired, for Explain.
	Rewrites []string
	// Shards is the requested shard count for key-partitioned parallel
	// execution (0 or 1 = single-shard). The engine honors it only when
	// Part.OK(); otherwise the plan falls back to one shard.
	Shards int
	// Part is the partitionability verdict (see partition.go).
	Part Partition
	// MonitorOpts is vestigial (see consistency.MonitorOption): nothing sets
	// or reads it but bench/e2e; the next benchmark PR removes it.
	MonitorOpts []consistency.MonitorOption
	// RouteTypes / RouteKeyAttr / RouteKeyVal mirror the analysis's routing
	// metadata (lang.Analysis.InputTypes, RouteKeyAttr, RouteKeyVal) for
	// the engine's cross-query fabric: the plan sees only events of its
	// RouteTypes.
	RouteTypes   []string
	RouteKeyAttr string
	RouteKeyVal  event.Value

	// an is retained so Fresh can re-instantiate the operator chain.
	an *lang.Analysis
}

// Option adjusts plan construction: it fills in the registration record.
type Option func(*wal.RegOpts)

// WithRegOpts applies a whole registration record: a replayed log record,
// or a network request.
func WithRegOpts(o wal.RegOpts) Option {
	return func(c *wal.RegOpts) { *c = o }
}

// WithSpec overrides the query's consistency clause.
func WithSpec(s consistency.Spec) Option {
	return func(c *wal.RegOpts) { c.HasSpec, c.Spec = true, s }
}

// AutoShards, passed to WithShards (or the engine's default), asks the
// engine to pick the shard count at registration: it weighs the plan's
// estimated per-event operator cost (CostNs) against the sharded runtime's
// handoff tax and the cores actually available (GOMAXPROCS/NumCPU), and
// refuses to shard plans whose per-shard work could not amortize the
// overhead — cheap plans stay single-shard instead of regressing.
const AutoShards = -1

// WithShards requests key-partitioned execution over n parallel shards
// (or the engine-chosen count, for AutoShards). Plans whose
// partitionability analysis fails (Part) run single-shard regardless;
// Explain shows the verdict. Prepare refuses n above MaxShards.
func WithShards(n int) Option {
	return func(c *wal.RegOpts) { c.Shards = n }
}

// MaxShards bounds the shards (worker goroutines) one registration may
// request; every register surface and log replay goes through Prepare.
const MaxShards = 64

// ShardsError is Prepare's refusal of a request above MaxShards.
type ShardsError struct{ Shards int }

func (e *ShardsError) Error() string {
	return fmt.Sprintf("plan: %d shards requested, at most %d", e.Shards, MaxShards)
}

// WithSharing marks the registration shareable: when another registration
// with the same identity (Key — source text, bindings, spec) is already
// running on the engine, this registration attaches to its chain as an
// additional subscriber endpoint instead of building a plan, whatever
// shard count it requests: a shard count changes only speed, so the
// attached registration runs on the chain's. A late attach joins the
// shared execution in progress — it observes outputs from the attach point
// onward, over state the chain accumulated before it (pub/sub semantics).
func WithSharing() Option {
	return func(c *wal.RegOpts) { c.Share = true }
}

// WithBindings instantiates a query template: every $name placeholder in
// the source text is replaced by bindings[name] at compile time. The parsed
// template is cached by source text, so stamping out many instances costs
// one parse plus a per-instance semantic analysis. Bindings become part of
// the registration's durable record and sharing identity. The map is read,
// never kept: the caller may change it once registration returns.
func WithBindings(bindings map[string]event.Value) Option {
	return func(c *wal.RegOpts) { c.Bindings = bindings }
}

// Key is a registration's execution-sharing identity: two registrations
// whose keys are equal would build byte-identically behaving operator
// chains, so the engine may run them on one shared chain. It is the source
// text, the bindings' injective rendering (canonBindings, which keys the
// analysis cache too) and the resolved consistency spec — never the cached
// analysis, which the cache may drop and rebuild. The requested shard
// count is left out: sharded output is byte-identical to one shard's, so
// registrations that differ only in it share the first one's chain.
type Key struct {
	Src, Bindings string
	Spec          consistency.Spec
}

// Prepared is a registration resolved without building anything: its
// sharing identity, its registration record (Opts: what the engine logs)
// and the cached analysis a plan is built from.
type Prepared struct {
	Key  Key
	Opts wal.RegOpts
	an   *lang.Analysis
}

// Plan builds the registration's plan: a fresh operator chain, the
// optimizer's rewrites, the partition verdict and the routing metadata.
func (r Prepared) Plan() *Plan {
	an := r.an
	// Correlation-key pushdown: when the analysis proved an equality
	// attribute (CorrelationKey EQUAL or a spanning pairwise-equality
	// conjunction — see lang.Analysis.PushKeyAttr), the matcher tree keys
	// its join and negation stores by it; predicates outside that proof
	// remain in the residual filterNode unchanged.
	rewrites := make([]string, 0, 3)
	if an.PushKeyAttr != "" {
		rewrites = append(rewrites, "correlation-pushdown("+an.PushKeyAttr+")")
	}
	rewrites = append(rewrites, "incremental-pattern")
	if an.Slice != nil && an.OutputMap != nil {
		rewrites = append(rewrites, "slice-pushdown")
	}
	return &Plan{
		Name:         an.Query.Name,
		Stages:       stagesOf(an),
		Spec:         r.Key.Spec,
		Src:          r.Key.Src,
		Rewrites:     rewrites,
		Shards:       r.Opts.Shards,
		Part:         partitionOf(an),
		RouteTypes:   an.InputTypes,
		RouteKeyAttr: an.RouteKeyAttr,
		RouteKeyVal:  an.RouteKeyVal,
		an:           an,
	}
}

// stagesOf instantiates a prepared analysis's operator chain: the matcher
// tree, then slice before projection — both are stateless, and slicing
// first discards events the projection would otherwise transform.
func stagesOf(an *lang.Analysis) []operators.Op {
	var opOpts []inc.OpOption
	if an.PushKeyAttr != "" {
		opOpts = append(opOpts, inc.WithJoinKey(an.PushKeyAttr))
	}
	stages := []operators.Op{inc.NewOp(an.Expr, an.Mode, an.Query.Name, opOpts...)}
	if an.Slice != nil {
		stages = append(stages, operators.NewSlice(*an.Slice))
	}
	if an.OutputMap != nil {
		stages = append(stages, operators.NewProject(operators.Mapper(an.OutputMap)))
	}
	return stages
}

// canonBindings renders bindings injectively: in sorted name order, each
// name, its value's dynamic type and its text, every piece length-prefixed,
// so int64(1), float64(1), "1" and true are four identities and no value
// can forge the boundary of the next binding.
func canonBindings(b map[string]event.Value) string {
	if len(b) == 0 {
		return ""
	}
	names := make([]string, 0, 8)
	for k := range b {
		names = append(names, k)
	}
	slices.Sort(names)
	out := make([]byte, 0, 128)
	for _, k := range names {
		out = appendValue(appendPiece(out, k), b[k])
	}
	return string(out)
}

func appendPiece[S string | []byte](dst []byte, s S) []byte {
	return append(append(strconv.AppendInt(dst, int64(len(s)), 10), ':'), s...)
}

// appendValue appends v's dynamic type and text as two pieces; fmt renders
// only types outside the payload vocabulary.
func appendValue(dst []byte, v event.Value) []byte {
	var scratch [32]byte
	switch x := v.(type) {
	case string:
		return appendPiece(appendPiece(dst, "string"), x)
	case int:
		return appendPiece(appendPiece(dst, "int"), strconv.AppendInt(scratch[:0], int64(x), 10))
	case int64:
		return appendPiece(appendPiece(dst, "int64"), strconv.AppendInt(scratch[:0], x, 10))
	case float64:
		return appendPiece(appendPiece(dst, "float64"), strconv.AppendFloat(scratch[:0], x, 'g', -1, 64))
	case bool:
		return appendPiece(appendPiece(dst, "bool"), strconv.AppendBool(scratch[:0], x))
	}
	return appendPiece(appendPiece(dst, fmt.Sprintf("%T", v)), fmt.Sprint(v))
}

// Fresh re-instantiates the plan: a structurally identical plan whose
// operator chain is a brand-new set of instances with empty state. The
// sharded runtime builds one chain per shard this way — operator Clones may
// share scratch with their original and are only sequentially safe, whereas
// independently instantiated chains are safe to drive from concurrent
// shard workers.
func (p *Plan) Fresh() *Plan {
	fp := *p
	fp.Stages = stagesOf(p.an)
	return &fp
}

func resolveSpec(an *lang.Analysis, o *wal.RegOpts) consistency.Spec {
	if o.HasSpec {
		return o.Spec
	}
	c := an.Query.Consistency
	if c == nil {
		return consistency.Middle()
	}
	switch c.Level {
	case "strong":
		return consistency.Strong()
	case "middle":
		return consistency.Middle()
	case "weak":
		m := temporal.Duration(0)
		if c.HasM {
			m = c.M
		}
		return consistency.Weak(m)
	default:
		b, m := c.B, consistency.Unbounded
		if c.HasM {
			m = c.M
		}
		return consistency.Level(b, m)
	}
}

// CostNs estimates the plan's per-event processing cost in nanoseconds:
// the sum of its Stages' operator cost classes (operators.CostOf; 0 for a
// running query's plan). The engine's auto-shard heuristic compares it to
// the sharded runtime's per-event handoff tax before the chain starts.
func (p *Plan) CostNs() int {
	c := 0
	for _, op := range p.Stages {
		c += operators.CostOf(op)
	}
	return c
}

// Explain renders the plan. It names the stages the plan's analysis
// builds, so a running query's plan, which holds none, explains the same.
func (p *Plan) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan %s [%s]\n", p.Name, p.Spec.Name())
	for i, s := range stagesOf(p.an) {
		fmt.Fprintf(&b, "  %d: %s\n", i, s.Name())
	}
	if len(p.Rewrites) > 0 {
		fmt.Fprintf(&b, "  rewrites: %s\n", strings.Join(p.Rewrites, ", "))
	}
	fmt.Fprintf(&b, "  partition: %s", p.Part)
	if p.Shards > 1 {
		fmt.Fprintf(&b, " × %d shards", p.Shards)
	}
	b.WriteByte('\n')
	return b.String()
}

// The analysis cache: compiling the same query text repeatedly (standing
// queries re-registered per engine instance, benchmark loops, shard
// fan-out) skips the lexer/parser/binder and goes straight to preparing the
// plan. Analyses are immutable once built, so sharing one across concurrent
// compilations is safe. An analysis is keyed by the Key of its source text
// and bindings, with the zero Spec.
var (
	cacheMu       sync.RWMutex
	analysisCache = map[Key]*lang.Analysis{}
	templateCache = map[string]*lang.Query{}
)

// analysisCacheCap bounds each cache; pathological workloads that compile
// unbounded distinct sources (or bindings) reset it rather than growing
// without bound.
const analysisCacheCap = 512

// Compile is the front door: CEDR text to executable plan — Prepare, then
// Plan.
func Compile(src string, opts ...Option) (*Plan, error) {
	r, err := Prepare(src, opts...)
	if err != nil {
		return nil, err
	}
	return r.Plan(), nil
}

// Prepare is Compile without the plan: it accepts and refuses exactly what
// Compile does, and resolves the registration's sharing identity (Key) and
// record, building no plan and no operator. The semantic analysis is
// cached by source text and bindings, so a repeated registration costs no
// parse, and template instances additionally share one parse of the
// template text across all bindings.
func Prepare(src string, opts ...Option) (Prepared, error) {
	var o wal.RegOpts // the options write through a pointer: it lives on the heap either way
	for _, opt := range opts {
		opt(&o)
	}
	if o.Shards > MaxShards {
		return Prepared{}, &ShardsError{o.Shards}
	}
	key := Key{Src: src, Bindings: canonBindings(o.Bindings)}
	cacheMu.RLock()
	an := analysisCache[key]
	cacheMu.RUnlock()
	if an == nil {
		var err error
		if an, err = analyze(src, o.Bindings); err != nil {
			return Prepared{}, err
		}
		// Every pattern query runs on the incremental matcher tree
		// (internal/algebra/inc), which covers the full §3.3 grammar.
		if !inc.Supported(an.Expr) {
			return Prepared{}, fmt.Errorf("plan: %s: pattern expression %T is outside the incremental matcher's grammar", an.Query.Name, an.Expr)
		}
		cacheMu.Lock()
		if len(analysisCache) >= analysisCacheCap {
			clear(analysisCache)
		}
		analysisCache[key] = an
		cacheMu.Unlock()
	}
	key.Spec = resolveSpec(an, &o)
	return Prepared{Key: key, Opts: o, an: an}, nil
}

// analyze runs the language front end on a cache miss. Plain queries go
// through lang.Compile; template instances parse once (templateCache) and
// bind per instance.
func analyze(src string, bindings map[string]event.Value) (*lang.Analysis, error) {
	if len(bindings) == 0 {
		return lang.Compile(src)
	}
	cacheMu.RLock()
	q := templateCache[src]
	cacheMu.RUnlock()
	if q == nil {
		var err error
		if q, err = lang.Parse(src); err != nil {
			return nil, err
		}
		cacheMu.Lock()
		if len(templateCache) >= analysisCacheCap {
			clear(templateCache)
		}
		templateCache[src] = q
		cacheMu.Unlock()
	}
	return lang.AnalyzeBound(q, bindings)
}
