package consistency

import "repro/internal/event"

// Fanout delivers one shared monitor chain's output to the endpoints that
// subscribed to it. Each delivered item carries a per-chain order tag (its
// position in the chain's cumulative output sequence, which the chain owns),
// so an endpoint that attaches mid-stream can still place every item it sees
// at the exact chain position an independently-run query would have
// assigned — the byte-identity the fabric's differential suite checks.
// Only endpoints with a callback are attached: a registration nobody
// subscribed to is, to its owner, a reference count and a window over the
// chain's one output history, so Deliver is O(batch + subscribers), not
// O(registrations). Endpoint failures are isolated: a delivery callback that
// panics quarantines only its own endpoint (OnFail fires, the endpoint is
// skipped from then on); siblings and the driving chain are undisturbed.
//
// Fanout is not internally synchronized — the owning chain serializes
// Attach, Detach, and Deliver under its own lock.
type Fanout struct {
	endpoints []*Endpoint
}

// Endpoint is one subscribed consumer of a Fanout.
type Endpoint struct {
	// Deliver receives an output batch plus the chain order tag of its
	// first item (item i in the batch has tag firstTag+i).
	Deliver func(items []event.Event, firstTag uint64)
	// OnFail is invoked with the recovered value when Deliver panics; the
	// endpoint is dead afterwards and receives nothing further.
	OnFail func(recovered any)
	dead   bool
}

// Attach subscribes an endpoint: it receives every batch delivered from now
// on, so one attached mid-stream starts at the current chain position.
func (f *Fanout) Attach(deliver func([]event.Event, uint64), onFail func(any)) *Endpoint {
	ep := &Endpoint{Deliver: deliver, OnFail: onFail}
	f.endpoints = append(f.endpoints, ep)
	return ep
}

// Detach removes an endpoint; it receives nothing further. Unknown
// endpoints are ignored.
func (f *Fanout) Detach(ep *Endpoint) {
	for i, e := range f.endpoints {
		if e == ep {
			f.endpoints = append(f.endpoints[:i], f.endpoints[i+1:]...)
			return
		}
	}
}

// Deliver hands one output batch, whose first item has chain order tag
// first, to every live subscribed endpoint. Panicking endpoints are
// quarantined individually; the batch still reaches every other endpoint.
func (f *Fanout) Deliver(items []event.Event, first uint64) {
	for _, ep := range f.endpoints {
		if !ep.dead {
			deliverOne(ep, items, first)
		}
	}
}

// deliverOne runs one endpoint's callback under a recover barrier.
func deliverOne(ep *Endpoint, items []event.Event, first uint64) {
	defer func() {
		if r := recover(); r != nil {
			ep.dead = true
			if ep.OnFail != nil {
				ep.OnFail(r)
			}
		}
	}()
	ep.Deliver(items, first)
}
