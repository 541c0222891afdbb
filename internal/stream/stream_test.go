package stream

import (
	"testing"

	"repro/internal/event"
	"repro/internal/temporal"
)

func mk(id event.ID, vs, ve temporal.Time) event.Event {
	return event.NewInsert(id, "A", vs, ve, nil)
}

func TestEventsFiltersCTI(t *testing.T) {
	s := Stream{mk(1, 1, 5), event.NewCTI(3), mk(2, 4, 9)}
	ev := s.Events()
	if len(ev) != 2 {
		t.Fatalf("Events() = %d items", len(ev))
	}
}

func TestSortBySyncStable(t *testing.T) {
	s := Stream{mk(1, 5, 9), mk(2, 1, 3), mk(3, 5, 7)}
	sorted := s.SortBySync()
	if sorted[0].ID != 2 || sorted[1].ID != 1 || sorted[2].ID != 3 {
		t.Errorf("sort wrong: %v", sorted)
	}
	// Original untouched.
	if s[0].ID != 1 {
		t.Error("SortBySync mutated receiver")
	}
}

func TestWithArrivalTimes(t *testing.T) {
	s := Stream{mk(1, 5, 9), mk(2, 1, 3)}.WithArrivalTimes()
	if s[0].C.Start != 0 || s[1].C.Start != 1 {
		t.Errorf("arrival stamps wrong: %v %v", s[0].C, s[1].C)
	}
}

func TestChanCollectRoundTrip(t *testing.T) {
	s := Stream{mk(1, 1, 5), event.NewCTI(2), mk(2, 4, 9)}
	got := Collect(s.Chan(1))
	if len(got) != 3 {
		t.Fatalf("round trip lost items: %d", len(got))
	}
	for i := range s {
		if got[i].ID != s[i].ID || got[i].Kind != s[i].Kind {
			t.Errorf("item %d differs", i)
		}
	}
}

func TestMeasureOrdered(t *testing.T) {
	s := Stream{mk(1, 1, 5), mk(2, 2, 6), event.NewCTI(3), mk(3, 3, 7)}
	st := Measure(s)
	if st.Events != 3 || st.CTIs != 1 {
		t.Errorf("counts: %+v", st)
	}
	if st.Disordered() || st.Inversions != 0 || st.MaxLateness != 0 {
		t.Errorf("ordered stream misreported: %+v", st)
	}
}

func TestMeasureDisorder(t *testing.T) {
	s := Stream{mk(1, 10, 15), mk(2, 3, 6), mk(3, 11, 10)}
	st := Measure(s)
	if !st.Disordered() {
		t.Fatal("disorder not detected")
	}
	if st.Inversions != 1 {
		t.Errorf("inversions = %d, want 1", st.Inversions)
	}
	if st.MaxLateness != 7 {
		t.Errorf("max lateness = %v, want 7", st.MaxLateness)
	}
	if st.MeanLateness() != 7.0/3 {
		t.Errorf("mean lateness = %v", st.MeanLateness())
	}
}

func TestMeasureRetractions(t *testing.T) {
	s := Stream{mk(1, 1, 5), event.NewRetract(1, "A", 1, 3, nil)}
	st := Measure(s)
	if st.Retractions != 1 {
		t.Errorf("retractions = %d", st.Retractions)
	}
}

func TestCloneDeep(t *testing.T) {
	s := Stream{event.NewInsert(1, "A", 1, 5, event.Payload{"x": int64(1)})}
	c := s.Clone()
	c[0].Payload["x"] = int64(2)
	if s[0].Payload["x"] != int64(1) {
		t.Error("Clone not deep")
	}
}

// Chan sends the stream over a fresh channel, closing it at the end.
func (s Stream) Chan(buf int) <-chan event.Event {
	ch := make(chan event.Event, buf)
	go func() {
		defer close(ch)
		for _, e := range s {
			ch <- e
		}
	}()
	return ch
}

// Collect drains a channel into a Stream.
func Collect(ch <-chan event.Event) Stream {
	var out Stream
	for e := range ch {
		out = append(out, e)
	}
	return out
}

// MeanLateness is the average lateness over data items (0 if none).
func (st Stats) MeanLateness() float64 {
	if st.Events == 0 {
		return 0
	}
	return float64(st.SumLateness) / float64(st.Events)
}
