package faultinject_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/faultinject"
	"repro/internal/operators"
	"repro/internal/stream"
	"repro/internal/temporal"
)

func passthrough() operators.Op {
	return operators.NewSelect(func(event.Payload) bool { return true })
}

func TestPanicOpFiresOnce(t *testing.T) {
	op := faultinject.NewPanicOp(passthrough(), 3)
	ev := event.NewInsert(1, "X", 0, temporal.Infinity, nil)
	op.Process(0, ev)
	// The trigger counter is shared with clones: the armed call can land on
	// a clone, which is how monitor replays stay armed.
	clone := op.Clone()
	clone.Process(0, ev)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("third Process did not panic")
			}
		}()
		op.Process(0, ev)
	}()
	// Past the armed call, processing continues.
	if out := op.Process(0, ev); len(out) != 1 {
		t.Fatalf("post-panic Process returned %d events, want 1", len(out))
	}
}

func TestStallOpDelaysButCompletes(t *testing.T) {
	const stall = 50 * time.Millisecond
	op := faultinject.NewStallOp(passthrough(), 2, stall)
	ev := event.NewInsert(1, "X", 0, temporal.Infinity, nil)
	op.Process(0, ev)
	if n := op.Stalls(); n != 0 {
		t.Fatalf("first Process stalled (%d stalls)", n)
	}
	start := time.Now()
	if out := op.Process(0, ev); len(out) != 1 {
		t.Fatalf("stalled Process dropped output")
	}
	if d := time.Since(start); d < stall || op.Stalls() != 1 {
		t.Fatalf("armed Process returned in %v after %d stalls, want >= %v and 1", d, op.Stalls(), stall)
	}
	op.Process(0, ev)
	if n := op.Stalls(); n != 1 {
		t.Fatalf("the stall fired %d times, want once", n)
	}
}

func TestDuplicatePunctuation(t *testing.T) {
	s := stream.Stream{
		event.NewInsert(1, "X", 0, temporal.Infinity, nil),
		event.NewCTI(1),
		event.NewInsert(2, "X", 2, temporal.Infinity, nil),
		event.NewCTI(3),
	}
	out := faultinject.DuplicatePunctuation(s, 2)
	if len(out) != 5 {
		t.Fatalf("got %d items, want 5 (every 2nd CTI doubled)", len(out))
	}
	if !out[3].IsCTI() || !out[4].IsCTI() || out[3].Sync() != out[4].Sync() {
		t.Fatalf("expected duplicated trailing CTI, got %v / %v", out[3], out[4])
	}
}

// TestDelayDeliveryPreservesGuarantees: delayed delivery must never move a
// data item past a later CTI (the guarantee would be violated), and the
// output must be a permutation of the input.
func TestDelayDeliveryPreservesGuarantees(t *testing.T) {
	var s stream.Stream
	id := event.ID(1)
	for i := 0; i < 50; i++ {
		s = append(s, event.NewInsert(id, "X", temporal.Time(i), temporal.Infinity, nil))
		id++
		if i%5 == 4 {
			s = append(s, event.NewCTI(temporal.Time(i)))
		}
	}
	out := faultinject.DelayDelivery(s, 42, 0.4, 4)
	if len(out) != len(s) {
		t.Fatalf("delivery changed item count: %d -> %d", len(s), len(out))
	}
	// For each CTI boundary, the set of data IDs delivered before it must
	// match the input exactly.
	beforeByCTI := func(str stream.Stream) [][]bool {
		var sets [][]bool
		seen := make([]bool, int(id)+1)
		for _, e := range str {
			if e.IsCTI() {
				sets = append(sets, append([]bool(nil), seen...))
				continue
			}
			seen[e.ID] = true
		}
		return sets
	}
	wantSets := beforeByCTI(s)
	gotSets := beforeByCTI(out)
	if len(wantSets) != len(gotSets) {
		t.Fatalf("CTI count changed: %d -> %d", len(wantSets), len(gotSets))
	}
	for i := range wantSets {
		for idx := range wantSets[i] {
			if wantSets[i][idx] != gotSets[i][idx] {
				t.Fatalf("CTI %d: data item %d crossed the guarantee boundary", i, idx)
			}
		}
	}
}

func TestFileCrashAtByte(t *testing.T) {
	f, err := os.Create(filepath.Join(t.TempDir(), "f"))
	if err != nil {
		t.Fatal(err)
	}
	ff := faultinject.NewFile(f)
	ff.CrashAtByte = 10
	if n, err := ff.Write(make([]byte, 8)); n != 8 || err != nil {
		t.Fatalf("pre-crash write: %d, %v", n, err)
	}
	// This write crosses the crash point: only the torn prefix lands.
	n, err := ff.Write(make([]byte, 8))
	if !errors.Is(err, faultinject.ErrCrashed) || n != 2 {
		t.Fatalf("crash write: n=%d err=%v, want n=2 ErrCrashed", n, err)
	}
	if _, err := ff.Write([]byte{1}); !errors.Is(err, faultinject.ErrCrashed) {
		t.Fatal("post-crash write succeeded")
	}
	if err := ff.Sync(); !errors.Is(err, faultinject.ErrCrashed) {
		t.Fatal("post-crash sync succeeded")
	}
	st, err := os.Stat(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != 10 {
		t.Fatalf("file size %d after crash at byte 10", st.Size())
	}
}
