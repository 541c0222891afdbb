package operators

import (
	"fmt"
	"slices"

	"repro/internal/event"
	"repro/internal/ordkey"
	"repro/internal/temporal"
)

// AggKind selects the aggregate function. The paper lists max, min and avg
// explicitly and notes the rest follow view-update semantics like their
// relational counterparts.
type AggKind uint8

// Supported aggregates.
const (
	Count AggKind = iota
	Sum
	Min
	Max
	Avg
)

// String implements fmt.Stringer.
func (k AggKind) String() string {
	switch k {
	case Count:
		return "count"
	case Sum:
		return "sum"
	case Min:
		return "min"
	case Max:
		return "max"
	case Avg:
		return "avg"
	default:
		return fmt.Sprintf("agg(%d)", uint8(k))
	}
}

// Aggregate is grouped aggregation under view-update semantics: the output
// is the changing state of the view
//
//	SELECT group, agg(field) FROM S GROUP BY group
//
// as a piecewise-constant function of time — one output event per maximal
// interval over which the group's aggregate value is constant.
//
// Like Difference, aggregation over [a, b) is final only once the input
// guarantee passes b, so output is emitted on Advance.
type Aggregate struct {
	Kind AggKind
	// Field is the aggregated payload attribute (ignored by Count).
	Field string
	// GroupBy is the grouping attribute; empty means a single global group.
	GroupBy string
	// As names the output value attribute ("value" by default).
	As string

	name     string
	frontier temporal.Time
	// live holds the in-scope input events by pointer; entries are
	// immutable once stored (retractions replace the pointer), so Clone is
	// a pointer-sharing copy. live and frontier are the operator's whole
	// durable state, and every mutation of them goes through the journal.
	live map[event.ID]*event.Event
	mapJournal[*event.Event]

	// scratch holds per-Advance working storage, reused across calls so the
	// monitor's replay path does not allocate group maps per advance. It is
	// never shared between clones.
	scratch *aggScratch

	// payloads interns segment payloads by (group, value). Repeated
	// aggregate values — counts especially — then share one immutable map,
	// which both skips the allocation and lets the consistency monitor's
	// repair diff recognize re-derived segments by pointer. The cache is
	// shared with clones (checkpoints, snapshots) — all used sequentially
	// under one monitor.
	payloads map[payloadKey]event.Payload
}

type payloadKey struct {
	group string
	val   event.Value
}

// payloadCacheCap bounds the interning cache; pathological value streams
// (high-cardinality floats) reset it rather than growing without bound.
const payloadCacheCap = 4096

func (a *Aggregate) payloadFor(key string, val event.Value) event.Payload {
	pk := payloadKey{group: key, val: val}
	if p, ok := a.payloads[pk]; ok {
		return p
	}
	p := event.Payload{a.As: val}
	if a.GroupBy != "" {
		p[a.GroupBy] = key
	}
	if len(a.payloads) >= payloadCacheCap {
		clear(a.payloads)
	}
	a.payloads[pk] = p
	return p
}

// aggScratch is the reusable working set of Advance.
type aggScratch struct {
	buckets []aggBucket
	nb      int
	index   map[string]int
	bounds  []temporal.Time
	out     []event.Event
}

type aggBucket struct {
	key     string
	members []event.Event
}

// NewAggregate builds a grouped aggregation operator.
func NewAggregate(kind AggKind, field, groupBy string) *Aggregate {
	return &Aggregate{Kind: kind, Field: field, GroupBy: groupBy, As: "value",
		name:     "aggregate:" + kind.String(),
		frontier: temporal.MinTime,
		live:     map[event.ID]*event.Event{},
		payloads: make(map[payloadKey]event.Payload, 64)}
}

// Name implements Op.
func (a *Aggregate) Name() string { return a.name }

// Arity implements Op.
func (a *Aggregate) Arity() int { return 1 }

// Process implements Op. Stored events are shallow copies: the payload is
// shared (never mutated), and retractions rewrite the map value, not the
// shared backing.
func (a *Aggregate) Process(_ int, e event.Event) []event.Event {
	if e.Kind == event.Retract {
		if old, ok := a.live[e.ID]; ok {
			if e.V.Empty() {
				a.del(a.live, e.ID)
			} else {
				shrunk := *old // copy-on-write: old may be shared with clones
				shrunk.V.End = e.V.End
				a.set(a.live, e.ID, &shrunk)
			}
		}
		return nil
	}
	a.set(a.live, e.ID, &e)
	return nil
}

// groupKey renders the grouping value exactly as fmt's %v would (group IDs
// hash this string).
func (a *Aggregate) groupKey(p event.Payload) string {
	if a.GroupBy == "" {
		return ""
	}
	return KeyString(p[a.GroupBy])
}

// AppendAdvanceKey implements AdvanceOrdered: one Advance call emits its
// segments bucket-by-bucket in ascending group-key order, so the cross-key
// position of an output is its group key (segments of one group stay in
// shard-local order). The output payload carries the group key under the
// GroupBy attribute, already in rendered form.
func (a *Aggregate) AppendAdvanceKey(dst []byte, e event.Event) []byte {
	return ordkey.AppendString(dst, a.groupKey(e.Payload))
}

// Advance implements Op: emit the finalized aggregate segments over
// [frontier, t).
func (a *Aggregate) Advance(t temporal.Time) []event.Event {
	if t <= a.frontier {
		return nil
	}
	window := temporal.NewInterval(a.frontier, t)

	sc := a.scratch
	if sc == nil {
		sc = &aggScratch{index: map[string]int{}}
		a.scratch = sc
	}
	sc.nb = 0
	indexed := false
	for _, ep := range a.live {
		e := *ep
		if e.V.Intersect(window).Empty() {
			continue
		}
		k := a.groupKey(e.Payload)
		// Group counts are small in practice; a linear probe over the
		// buckets beats hashing. Past 16 groups the map index takes over.
		bi := -1
		if !indexed {
			for j := 0; j < sc.nb; j++ {
				if sc.buckets[j].key == k {
					bi = j
					break
				}
			}
			if bi < 0 && sc.nb == 16 {
				clear(sc.index)
				for j := 0; j < sc.nb; j++ {
					sc.index[sc.buckets[j].key] = j
				}
				indexed = true
			}
		}
		if indexed {
			if j, ok := sc.index[k]; ok {
				bi = j
			}
		}
		if bi < 0 {
			bi = sc.nb
			sc.nb++
			if bi < len(sc.buckets) {
				sc.buckets[bi].key = k
				sc.buckets[bi].members = sc.buckets[bi].members[:0]
			} else {
				sc.buckets = append(sc.buckets, aggBucket{key: k})
			}
			if indexed {
				sc.index[k] = bi
			}
		}
		sc.buckets[bi].members = append(sc.buckets[bi].members, e)
	}
	bs := sc.buckets[:sc.nb]
	slices.SortFunc(bs, func(x, y aggBucket) int {
		if x.key < y.key {
			return -1
		}
		if x.key > y.key {
			return 1
		}
		return 0
	})

	// The output buffer is reused across calls (see Op's buffer contract).
	out := sc.out[:0]
	for bi := range bs {
		members := bs[bi].members
		// Canonical member order keeps floating-point folds deterministic
		// across runs and across segment packagings.
		slices.SortFunc(members, func(x, y event.Event) int {
			if x.V.Start != y.V.Start {
				if x.V.Start < y.V.Start {
					return -1
				}
				return 1
			}
			if x.ID < y.ID {
				return -1
			}
			if x.ID > y.ID {
				return 1
			}
			return 0
		})
		out = a.segments(out, bs[bi].key, members, window)
	}
	a.setTime(&a.frontier, t)
	for id, e := range a.live {
		if e.V.End <= t {
			a.del(a.live, id)
		}
	}
	sc.out = out
	return out
}

// segments computes the piecewise-constant aggregate of one group over the
// window and appends one insert per maximal constant segment to out.
func (a *Aggregate) segments(out []event.Event, key string, members []event.Event, window temporal.Interval) []event.Event {
	bounds := append(a.scratch.bounds[:0], window.Start, window.End)
	for _, e := range members {
		iv := e.V.Intersect(window)
		bounds = append(bounds, iv.Start, iv.End)
	}
	slices.Sort(bounds)
	// Dedup in place (sorted).
	w := 1
	for i := 1; i < len(bounds); i++ {
		if bounds[i] != bounds[w-1] {
			bounds[w] = bounds[i]
			w++
		}
	}
	bounds = bounds[:w]
	a.scratch.bounds = bounds
	var open event.Event // current segment being coalesced
	haveOpen := false
	gid := event.ID(HashString(key))
	for i := 0; i+1 < len(bounds); i++ {
		seg := temporal.NewInterval(bounds[i], bounds[i+1])
		val, n := a.fold(members, seg)
		if n == 0 {
			if haveOpen {
				out = append(out, open)
				haveOpen = false
			}
			continue
		}
		if haveOpen && event.ValueEqual(open.Payload[a.As], val) {
			open.V.End = seg.End // coalesce equal adjacent segments
			continue
		}
		if haveOpen {
			out = append(out, open)
		}
		open = event.Event{
			ID:      event.Pair(gid, event.ID(seg.Start)),
			Kind:    event.Insert,
			Type:    a.Name(),
			V:       seg,
			O:       temporal.From(seg.Start),
			RT:      seg.Start,
			Payload: a.payloadFor(key, val),
		}
		haveOpen = true
	}
	if haveOpen {
		out = append(out, open)
	}
	return out
}

// fold computes the aggregate over the members active throughout seg.
func (a *Aggregate) fold(members []event.Event, seg temporal.Interval) (event.Value, int) {
	var sum float64
	var minV, maxV float64
	n := 0
	for _, e := range members {
		if e.V.Intersect(seg) != seg {
			continue
		}
		v := 0.0
		if a.Kind != Count {
			f, ok := event.Num(e.Payload[a.Field])
			if !ok {
				continue
			}
			v = f
		}
		if n == 0 {
			minV, maxV = v, v
		} else {
			if v < minV {
				minV = v
			}
			if v > maxV {
				maxV = v
			}
		}
		sum += v
		n++
	}
	if n == 0 {
		return nil, 0
	}
	switch a.Kind {
	case Count:
		return int64(n), n
	case Sum:
		return sum, n
	case Min:
		return minV, n
	case Max:
		return maxV, n
	case Avg:
		return sum / float64(n), n
	default:
		return nil, 0
	}
}

// HashString mixes a string with FNV-1a — the same function the event ID
// pairing uses. Grouped aggregation derives group IDs from it.
func HashString(s string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// OutputGuarantee implements Op.
func (a *Aggregate) OutputGuarantee(t temporal.Time) temporal.Time { return t }

// StateSize implements Op.
func (a *Aggregate) StateSize() int { return len(a.live) }

// Clone implements Op; the clone starts with its journal off. Live entries
// are immutable and shared by pointer, but the Advance scratch and the
// payload-interning cache are per-clone:
// the sharded runtime hands clones to concurrently running workers, so
// mutable working state must not be shared (the scratch reallocates
// lazily, the cache simply refills).
func (a *Aggregate) Clone() Op {
	c := &Aggregate{Kind: a.Kind, Field: a.Field, GroupBy: a.GroupBy, As: a.As,
		name:     a.name,
		frontier: a.frontier,
		live:     make(map[event.ID]*event.Event, len(a.live)),
		payloads: make(map[payloadKey]event.Payload, 64),
	}
	for id, e := range a.live {
		c.live[id] = e
	}
	return c
}
