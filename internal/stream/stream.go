// Package stream provides physical event streams: ordered sequences of
// events and punctuation moving between operators, plus sources, sinks, and
// disorder statistics. The logical content of a stream is what
// internal/history reasons about; this package is the plumbing.
package stream

import (
	"sort"

	"repro/internal/event"
	"repro/internal/temporal"
)

// Stream is a finite physical stream: items in arrival (CEDR time) order.
// Channel-based pipelines (internal/engine) convert to and from this
// representation at the edges.
type Stream []event.Event

// Clone deep-copies the stream.
func (s Stream) Clone() Stream {
	out := make(Stream, len(s))
	for i, e := range s {
		out[i] = e.Clone()
	}
	return out
}

// Events returns only the data items (inserts and retractions).
func (s Stream) Events() Stream {
	out := make(Stream, 0, len(s))
	for _, e := range s {
		if !e.IsCTI() {
			out = append(out, e)
		}
	}
	return out
}

// SortBySync orders items by (Sync, arrival order); this is what a strongly
// consistent operator sees after alignment. Sorting is stable so
// simultaneous items keep arrival order.
func (s Stream) SortBySync() Stream {
	out := s.Clone()
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].Sync() < out[j].Sync()
	})
	return out
}

// WithArrivalTimes stamps consecutive CEDR times 0,1,2,... onto the items in
// their current order, modelling perfectly in-order unit-latency delivery.
func (s Stream) WithArrivalTimes() Stream {
	out := s.Clone()
	for i := range out {
		out[i].C = temporal.From(temporal.Time(i))
	}
	return out
}

// Stats summarizes the orderliness of a physical stream.
type Stats struct {
	Events      int               // data items
	CTIs        int               // punctuation items
	Retractions int               // data items with Kind == Retract
	Inversions  int               // adjacent-free pair count i<j with Sync_i > Sync_j
	MaxLateness temporal.Duration // max (maxSyncSeen − Sync) over data items
	SumLateness temporal.Duration
}

// Disordered reports whether any item arrived after an item with a later
// Sync time.
func (st Stats) Disordered() bool { return st.Inversions > 0 }

// Measure computes disorder statistics over the stream in its physical
// (arrival) order. Inversions are counted pairwise against the running
// maximum, i.e. each late item contributes one inversion — a linear-time
// proxy for out-of-orderness that matches how the consistency monitor
// perceives lateness.
func Measure(s Stream) Stats {
	var st Stats
	maxSync := temporal.MinTime
	for _, e := range s {
		if e.IsCTI() {
			st.CTIs++
			continue
		}
		st.Events++
		if e.Kind == event.Retract {
			st.Retractions++
		}
		sync := e.Sync()
		if sync < maxSync {
			st.Inversions++
			late := maxSync.Sub(sync)
			st.SumLateness += late
			if late > st.MaxLateness {
				st.MaxLateness = late
			}
		} else {
			maxSync = sync
		}
	}
	return st
}
