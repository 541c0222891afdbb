package consistency

import "repro/internal/event"

// Burst is a caller-owned accumulator for the tagged push path:
// PushTaggedInto appends outputs and their order tags across many calls
// into one Burst, carving every tag's bytes out of the shared Arena. A
// shard worker processes a whole run of input items through its head
// monitor into a single Burst and ships that one buffer to the merger —
// steady-state handoff allocates nothing once the buffers have grown to
// the workload's high-water mark.
//
// Tags[i] aliases Arena (or a previous backing array of it after growth;
// tag bytes are immutable either way). Evs and Tags stay parallel after
// every *Into call. Reset keeps capacity.
type Burst struct {
	Evs   []event.Event
	Tags  [][]byte
	Arena []byte
}

// Reset empties the burst, retaining backing storage.
func (b *Burst) Reset() {
	b.Evs = b.Evs[:0]
	b.Tags = b.Tags[:0]
	b.Arena = b.Arena[:0]
}

// Len reports the number of accumulated outputs.
func (b *Burst) Len() int { return len(b.Evs) }
