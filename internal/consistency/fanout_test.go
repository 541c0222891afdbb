package consistency

import (
	"testing"

	"repro/internal/event"
)

func batch(names ...string) []event.Event {
	out := make([]event.Event, len(names))
	for i, n := range names {
		out[i] = event.Event{Type: n}
	}
	return out
}

// numbered drives a Fanout the way its owning chain does: the chain keeps
// the output position and passes each batch's first tag in.
type numbered struct {
	Fanout
	pos uint64
}

func (n *numbered) deliver(items []event.Event) {
	first := n.pos
	n.pos += uint64(len(items))
	n.Deliver(items, first)
}

type sink struct {
	items []event.Event
	tags  []uint64
	fails []any
}

func (s *sink) attach(f *numbered) *Endpoint {
	return f.Attach(func(items []event.Event, first uint64) {
		for i, ev := range items {
			s.items = append(s.items, ev)
			s.tags = append(s.tags, first+uint64(i))
		}
	}, func(r any) { s.fails = append(s.fails, r) })
}

// TestFanoutOrderTags: every delivered item carries its position in the
// chain's cumulative output sequence, across batches and endpoints.
func TestFanoutOrderTags(t *testing.T) {
	var f numbered
	a, b := &sink{}, &sink{}
	a.attach(&f)
	b.attach(&f)

	f.deliver(batch("e0", "e1", "e2"))
	f.deliver(batch("e3"))

	for _, s := range []*sink{a, b} {
		if len(s.items) != 4 {
			t.Fatalf("endpoint saw %d items, want 4", len(s.items))
		}
		for i, tag := range s.tags {
			if tag != uint64(i) {
				t.Fatalf("tags = %v, want 0..3", s.tags)
			}
		}
	}
}

// TestFanoutLateAttach: endpoints attach when they subscribe, not when they
// register. The chain delivers whether or not anyone is attached, and an
// endpoint attached mid-stream starts at the chain's position at attach
// time.
func TestFanoutLateAttach(t *testing.T) {
	var f numbered
	f.deliver(batch("e0")) // nobody subscribed yet
	early := &sink{}
	early.attach(&f)
	f.deliver(batch("e1", "e2"))

	late := &sink{}
	late.attach(&f)
	f.deliver(batch("e3", "e4"))

	if len(early.items) != 4 || early.tags[0] != 1 {
		t.Fatalf("early endpoint tags = %v, want [1 2 3 4]", early.tags)
	}
	if len(late.items) != 2 || late.tags[0] != 3 || late.tags[1] != 4 {
		t.Fatalf("late endpoint tags = %v, want [3 4]", late.tags)
	}
	// The late endpoint's stream is the suffix of the early one's.
	if early.items[2].Type != late.items[0].Type || early.tags[2] != late.tags[0] {
		t.Fatal("late endpoint diverged from sibling suffix")
	}
}

// TestFanoutPanicIsolation: a panicking endpoint is quarantined alone —
// OnFail fires once, with the chain position already past the batch in
// flight (the owner closes the endpoint's window there), and siblings keep
// receiving, that batch included.
func TestFanoutPanicIsolation(t *testing.T) {
	var f numbered
	var fails []any
	var cut uint64
	f.Attach(func([]event.Event, uint64) { panic("boom") },
		func(r any) { fails, cut = append(fails, r), f.pos })
	good := &sink{}
	good.attach(&f)

	f.deliver(batch("e0", "e1"))
	f.deliver(batch("e2"))

	if len(fails) != 1 || fails[0] != "boom" {
		t.Fatalf("OnFail calls = %v, want one boom", fails)
	}
	if cut != 2 {
		t.Errorf("chain position inside OnFail = %d, want 2 (behind the batch in flight)", cut)
	}
	if len(good.items) != 3 || good.tags[2] != 2 {
		t.Fatalf("sibling disturbed: items=%d tags=%v", len(good.items), good.tags)
	}
}

// TestFanoutDetach: a detached endpoint receives nothing further;
// detaching an unknown endpoint is a no-op.
func TestFanoutDetach(t *testing.T) {
	var f numbered
	a, b := &sink{}, &sink{}
	epA := a.attach(&f)
	b.attach(&f)

	f.deliver(batch("e0"))
	f.Detach(epA)
	f.Detach(epA) // already gone — ignored
	f.Detach(nil) // never subscribed — ignored
	f.deliver(batch("e1"))

	if len(a.items) != 1 {
		t.Fatalf("detached endpoint still receiving: %d items", len(a.items))
	}
	if len(b.items) != 2 {
		t.Fatalf("survivor saw %d items, want 2", len(b.items))
	}
}

// TestFanoutCallsOnlyLiveSubscribers: one delivery invokes exactly as many
// endpoint callbacks as there are subscribed live endpoints — none for a
// detached one, none for a dead one — and allocates nothing.
func TestFanoutCallsOnlyLiveSubscribers(t *testing.T) {
	var f Fanout
	calls := 0
	count := func([]event.Event, uint64) { calls++ }
	eps := make([]*Endpoint, 5)
	for i := range eps {
		eps[i] = f.Attach(count, nil)
	}
	f.Attach(func([]event.Event, uint64) { calls++; panic("boom") }, nil)
	items := batch("e0", "e1")

	f.Deliver(items, 0)
	if calls != 6 {
		t.Fatalf("first delivery ran %d callbacks, want 6", calls)
	}
	f.Detach(eps[0])
	calls = 0
	f.Deliver(items, 2)
	if calls != 4 {
		t.Fatalf("delivery after one detach and one panic ran %d callbacks, want 4", calls)
	}
	if avg := testing.AllocsPerRun(100, func() { f.Deliver(items, 4) }); avg != 0 {
		t.Errorf("Deliver allocates %.1f per batch, want 0", avg)
	}
}
