// The standing-query fabric's routing index: the engine's one data-delivery
// path. A per-engine discrimination step from (event TYPE, routing-key
// value) to the chains that can possibly care, so one pushed event touches
// O(matching chains) instead of every registered query. A chain skipped for
// an event simply never receives it — exactly as if the event stream had
// been pre-filtered to the events its plan can react to — so a chain's
// output is a function of that filtered stream, whatever else the engine
// hosts (the skip conditions are the soundness claims of plan.RouteTypes
// and lang.Analysis.RouteKeyAttr; the differential suite checks the
// identity against independent chains fed the pre-filtered stream).
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
//
// Every chain's plan is compiled from text, so every chain names its input
// TYPEs: an event of a TYPE no plan references reaches no chain.
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
	byType map[string]typeEntry // created by the first add
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

// add indexes a freshly built chain by its plan's routing metadata.
func (f *fabric) add(ch *chain) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var keyVal event.Key
	if ch.plan.RouteKeyAttr != "" {
		keyVal = event.KeyOf(ch.plan.RouteKeyVal)
	}
	if f.byType == nil {
		f.byType = map[string]typeEntry{}
	}
	for _, t := range ch.plan.RouteTypes {
		te := f.byType[t]
		if !keyVal.Def() {
			te.plain = append(te.plain, ch)
		} else {
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
		f.byType[t] = te
	}
}

// remove drops a torn-down chain from every bucket add put it in.
func (f *fabric) remove(ch *chain) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, t := range ch.plan.RouteTypes {
		te := f.byType[t]
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
		} else {
			f.byType[t] = te
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
	te := f.byType[ev.Type]
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
