// The standing-query fabric's routing index: a per-engine discrimination
// step from (event TYPE, routing-key value) to the chains that can possibly
// care, so one pushed event touches O(matching chains) instead of every
// registered query. Routing is an engine-level delivery semantics
// (WithRouting): a chain skipped for an event simply never receives it —
// exactly as if the event stream had been pre-filtered per query — so a
// routed fleet is byte-identical to routed independent engines (the
// differential suite proves it), while against unrouted execution only
// emission stamps and per-monitor input counters can differ, never the
// detected alert set (the skip conditions are the soundness claims of
// plan.RouteTypes and lang.Analysis.RouteKeyAttr).
//
// Index shape, per event TYPE:
//
//	plain  — chains that consume the type but proved no routing key:
//	         delivered every event of the type
//	fams   — chains keyed on some attribute, grouped per attribute
//	         ("family"); an event with a definite payload value for the
//	         attribute (event.KeyOf: the matcher's own key) reaches only
//	         the chains bound to that value, an event without one (wild:
//	         no value, NaN, an exotic type) reaches the whole family
//	always — chains with an unknown input alphabet (hand-built plans):
//	         delivered everything
//
// Retractions route conservatively to the whole family — the retraction's
// payload need not repeat the insert's key — and CTIs bypass the fabric
// entirely (punctuation must reach every chain; the engine broadcasts it).
package engine

import (
	"sync"

	"repro/internal/event"
)

type fabric struct {
	mu     sync.RWMutex
	always []*chain
	byType map[string]*typeEntry
}

type typeEntry struct {
	plain []*chain
	fams  []*famEntry
}

type famEntry struct {
	attr  string
	byVal map[event.Key][]*chain
	all   []*chain
}

func newFabric() *fabric {
	return &fabric{byType: map[string]*typeEntry{}}
}

// add indexes a freshly built chain by its plan's routing metadata.
func (f *fabric) add(ch *chain) {
	f.mu.Lock()
	defer f.mu.Unlock()
	types := ch.plan.RouteTypes
	if len(types) == 0 {
		f.always = append(f.always, ch)
		return
	}
	var keyVal event.Key
	if ch.plan.RouteKeyAttr != "" {
		keyVal = event.KeyOf(ch.plan.RouteKeyVal)
	}
	for _, t := range types {
		te := f.byType[t]
		if te == nil {
			te = &typeEntry{}
			f.byType[t] = te
		}
		if !keyVal.Def() {
			te.plain = append(te.plain, ch)
			continue
		}
		var fam *famEntry
		for _, fe := range te.fams {
			if fe.attr == ch.plan.RouteKeyAttr {
				fam = fe
				break
			}
		}
		if fam == nil {
			fam = &famEntry{attr: ch.plan.RouteKeyAttr, byVal: map[event.Key][]*chain{}}
			te.fams = append(te.fams, fam)
		}
		fam.byVal[keyVal] = append(fam.byVal[keyVal], ch)
		fam.all = append(fam.all, ch)
	}
}

// remove drops a torn-down chain from every bucket it appears in.
func (f *fabric) remove(ch *chain) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.always = without(f.always, ch)
	for t, te := range f.byType {
		te.plain = without(te.plain, ch)
		fams := te.fams[:0]
		for _, fam := range te.fams {
			fam.all = without(fam.all, ch)
			for v, chains := range fam.byVal {
				if pruned := without(chains, ch); len(pruned) == 0 {
					delete(fam.byVal, v)
				} else {
					fam.byVal[v] = pruned
				}
			}
			if len(fam.all) > 0 {
				fams = append(fams, fam)
			}
		}
		te.fams = fams
		if len(te.plain) == 0 && len(te.fams) == 0 {
			delete(f.byType, t)
		}
	}
}

func without(chains []*chain, ch *chain) []*chain {
	for i, c := range chains {
		if c == ch {
			return append(append([]*chain(nil), chains[:i]...), chains[i+1:]...)
		}
	}
	return chains
}

// route appends the chains that must see ev to buf and returns it. Callers
// pass a stack buffer so the steady-state routing step allocates nothing
// (pinned by an AllocsPerRun ceiling). CTIs never come here — the engine
// broadcasts punctuation to every chain.
func (f *fabric) route(ev event.Event, buf []*chain) []*chain {
	f.mu.RLock()
	defer f.mu.RUnlock()
	buf = append(buf, f.always...)
	te := f.byType[ev.Type]
	if te == nil {
		return buf
	}
	buf = append(buf, te.plain...)
	retract := ev.Kind == event.Retract
	for _, fam := range te.fams {
		if retract {
			buf = append(buf, fam.all...)
			continue
		}
		if k := event.KeyOf(ev.Payload[fam.attr]); k.Def() {
			buf = append(buf, fam.byVal[k]...)
		} else {
			buf = append(buf, fam.all...)
		}
	}
	return buf
}
