package engine

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/consistency"
	"repro/internal/delivery"
	"repro/internal/event"
	"repro/internal/leakcheck"
	"repro/internal/plan"
	"repro/internal/stream"
	"repro/internal/temporal"
)

// payloadPatterns covers the pattern grammar of internal/lang; each is
// keyed by CorrelationKey(k, EQUAL), so the plans that partition run
// sharded.
var payloadPatterns = []string{
	`ANY(A a)`,
	`ANY(A a, B b)`,
	`SEQUENCE(A a, B b, 12)`,
	`SEQUENCE(A a, B b, C c, 16)`,
	`ATLEAST(2, A a, B b, C c, 14)`,
	`ALL(A a, B b, C c, 15)`,
	`ATMOST(1, SEQUENCE(A a, B b, 12), 10)`,
	`UNLESS(A a, B b, 9)`,
	`UNLESS(SEQUENCE(A a, B b, 12), C c, 6)`,
	`UNLESS(SEQUENCE(A a, B b, 10), C c, 2, 6)`,
	`NOT(C c, SEQUENCE(A a, B b, 9))`,
	`CANCEL-WHEN(SEQUENCE(A a, B b, 9), X x)`,
}

var payloadModes = []string{
	`SC(each, reuse)`, `SC(each, consume)`, `SC(first, reuse)`, `SC(last, consume)`,
}

// payloadTails are the stages a compiled plan may run after its matcher.
var payloadTails = []string{
	``,
	`WHERE {a.v = b.v}`,
	`OUTPUT a.k AS key, b.v, a.v AS av`,
	`# [40, 400)`,
	`@ [20, 300) OUTPUT b.v`,
}

func payloadQueries() []string {
	var qs []string
	for _, mode := range payloadModes {
		for i, pat := range payloadPatterns {
			qs = append(qs, fmt.Sprintf("EVENT P%d WHEN %s WHERE CorrelationKey(k, EQUAL) %s", i, pat, mode))
		}
		for i, tail := range payloadTails[1:] {
			qs = append(qs, fmt.Sprintf("EVENT T%d WHEN SEQUENCE(A a, B b, 12) WHERE CorrelationKey(k, EQUAL) %s %s",
				i, mode, tail))
		}
	}
	return qs
}

// payloadStream is a keyed stream over the zoo's types whose values repeat
// (so the matcher's table hits) and include NaN (which it never interns).
func payloadStream(rng *rand.Rand, n int) stream.Stream {
	types := []string{"A", "B", "C", "X"}
	vals := []event.Value{int64(1), int64(2), 1.5, "s", math.NaN()}
	var src stream.Stream
	at := temporal.Time(0)
	for i := 0; i < n; i++ {
		at = at.Add(temporal.Duration(rng.Intn(3)))
		p := event.Payload{"k": fmt.Sprintf("k%d", rng.Intn(4))}
		if rng.Intn(3) > 0 {
			p["v"] = vals[rng.Intn(len(vals))]
		}
		ve := temporal.Infinity
		if rng.Intn(4) == 0 {
			ve = at.Add(temporal.Duration(rng.Intn(20) + 1))
		}
		src = append(src, event.NewInsert(event.ID(i+1), types[rng.Intn(len(types))], at, ve, p))
	}
	return src.SortBySync()
}

// fingerprint renders a payload type-exactly, floats by their bits.
func fingerprint(p event.Payload) string {
	names := make([]string, 0, len(p))
	for k := range p {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, k := range names {
		fmt.Fprintf(&b, "%s=%s|", k, valueprint(p[k]))
	}
	return b.String()
}

func valueprint(v event.Value) string {
	if f, ok := v.(float64); ok {
		return fmt.Sprintf("float64:%x", math.Float64bits(f))
	}
	return fmt.Sprintf("%T:%v", v, v)
}

type seenPayload struct {
	where string
	p     event.Payload
	print string
}

// seenLineage is an output's lineage as delivered, and a copy of it.
type seenLineage struct {
	where     string
	cbt, copy []event.ID
}

// TestNoStageWritesAPayload: emitted payloads are shared, not copied — the
// matcher hands out the map it interned, Slice passes it on, the history
// keeps it and every subscriber receives it — which is sound only while no
// stage writes into a payload it was handed. The pattern grammar × every
// instance-selection/consumption mode, and plans with OUTPUT (Project) and
// slices (Slice), run through an engine at one and at four shards over a
// disordered stream, so the monitor repairs. Every input payload is
// fingerprinted before it is pushed and every output payload when it is
// delivered, and all are re-checked at the end. An output is checked
// against its lineage too, for a write made before it was delivered: each
// of its values must be a value of one of its contributors, and outputs of
// one ID must carry one content throughout. Every query's output at four
// shards must be byte-identical to its output at one. Lineage is shared
// the same way — the matcher hands out its own, and the history's copy is
// what subscribers receive, capped so no append reaches past it — so every
// delivered output's lineage is re-checked at the end too.
func TestNoStageWritesAPayload(t *testing.T) {
	defer leakcheck.Check(t)()
	in := delivery.Deliver(payloadStream(rand.New(rand.NewSource(5)), 400),
		delivery.Disordered(3, 10, 25, 0.2))
	prints := map[event.ID]string{} // every input as it is before any push
	for _, ev := range in {
		prints[ev.ID] = fingerprint(ev.Payload)
	}
	// fromLineage reports whether every value of ev's payload is a value of
	// one of its contributors, or nil (OUTPUT of an attribute the
	// contributor lacks).
	fromLineage := func(ev event.Event) bool {
		for _, v := range ev.Payload {
			found := v == nil
			for _, id := range ev.CBT {
				found = found || strings.Contains(prints[id], "="+valueprint(v)+"|")
			}
			if !found {
				return false
			}
		}
		return true
	}
	single := map[string]stream.Stream{}
	for _, shards := range []int{1, 4} {
		var seen []seenPayload
		var lineages []seenLineage
		look := func(where string, p event.Payload) {
			if p != nil {
				seen = append(seen, seenPayload{where, p, fingerprint(p)})
			}
		}
		e := New()
		sharded, outputs := 0, 0
		var mu sync.Mutex
		queries := map[string]*Query{}
		for _, src := range payloadQueries() {
			q, err := e.RegisterText(src, plan.WithSpec(consistency.Middle()), plan.WithShards(shards))
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			queries[src] = q
			if q.Shards() > 1 {
				sharded++
			}
			byID := map[event.ID]string{}
			subscribe(q, func(ev event.Event) {
				if ev.IsCTI() {
					return
				}
				mu.Lock() // sharded chains deliver from their own goroutines
				defer mu.Unlock()
				outputs++
				where := fmt.Sprintf("shards=%d %s: output %v", shards, src, ev)
				look(where, ev.Payload)
				lineages = append(lineages, seenLineage{where, ev.CBT, slices.Clone(ev.CBT)})
				if cap(ev.CBT) != len(ev.CBT) {
					t.Errorf("%s: lineage of %d IDs in room for %d", where, len(ev.CBT), cap(ev.CBT))
				}
				if !fromLineage(ev) {
					t.Errorf("%s: a value no contributor carries", where)
				}
				if was, ok := byID[ev.ID]; !ok {
					byID[ev.ID] = fingerprint(ev.Payload)
				} else if now := fingerprint(ev.Payload); now != was {
					t.Errorf("%s: carries %s; an earlier output of this ID carried %s", where, now, was)
				}
			})
		}
		for _, ev := range in {
			mu.Lock()
			look(fmt.Sprintf("shards=%d input %v", shards, ev), ev.Payload)
			mu.Unlock()
			e.Push(ev)
		}
		e.Finish()
		for _, s := range seen {
			if now := fingerprint(s.p); now != s.print {
				t.Fatalf("%s: payload changed after it was seen\n was %s\n now %s", s.where, s.print, now)
			}
		}
		for _, l := range lineages {
			if !slices.Equal(l.cbt, l.copy) {
				t.Fatalf("%s: lineage changed after it was delivered\n was %v\n now %v", l.where, l.copy, l.cbt)
			}
		}
		for src, q := range queries {
			if shards == 1 {
				single[src] = q.Results()
			} else {
				compareStreams(t, fmt.Sprintf("shards=%d %s", shards, src), q.Results(), single[src])
			}
		}
		if shards > 1 && sharded == 0 {
			t.Fatalf("shards=%d: no query ran sharded", shards)
		}
		if outputs < 1000 {
			t.Fatalf("shards=%d: only %d outputs; the stream no longer exercises the plans", shards, outputs)
		}
		t.Logf("shards=%d: %d queries (%d sharded), %d outputs, %d payloads and %d lineages checked",
			shards, len(payloadQueries()), sharded, outputs, len(seen), len(lineages))
	}
}
