package cedr

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/delivery"
	"repro/internal/eventio"
	"repro/internal/temporal"
	"repro/internal/wal"
	"repro/internal/workload"
)

// TestSharedCSVPayloadsChangeNothing: ReadCSV hands events of equal payload
// content one read-only map. The 192-machine fleet stream, in order and
// with stragglers, is rendered as CSV and decoded by ReadCSV, so its
// payloads are shared; a twin of the decoded stream has every payload
// cloned. The §3.1 query at Middle, on 1 and 4 shards, must give both the
// same results — byte for byte in the WAL's event encoding, float bits and
// value types included — the same tags and the same Metrics, every field.
// A shared map that the engine wrote to, or whose identity changed a
// comparison, would differ.
func TestSharedCSVPayloadsChangeNothing(t *testing.T) {
	src, _ := workload.MachineEvents(workload.Machines{
		Seed: 1, Machines: 192, Cycles: 20,
		RestartDeadline: 5 * temporal.Minute, MissProb: 0.3,
		CycleGap: 30 * temporal.Minute,
	})
	for _, order := range []struct {
		name string
		cfg  delivery.Config
	}{
		{"ordered", delivery.Ordered(10 * temporal.Minute)},
		{"disordered", delivery.Disordered(3, 10*temporal.Minute, temporal.Minute, 0.05)},
	} {
		var csv []byte
		for _, e := range delivery.Deliver(src, order.cfg) {
			line, err := eventio.FormatCSVLine(e)
			if err != nil {
				t.Fatal(err)
			}
			csv = append(append(csv, line...), '\n')
		}
		shared, err := eventio.ReadCSV(bytes.NewReader(csv), "fleet")
		if err != nil {
			t.Fatal(err)
		}
		maps := map[unsafe.Pointer]bool{}
		for _, e := range shared {
			maps[reflect.ValueOf(e.Payload).UnsafePointer()] = true
		}
		if len(maps) > len(shared)/4 {
			t.Fatalf("%d items decoded into %d payload maps: ReadCSV does not share them", len(shared), len(maps))
		}
		t.Logf("%s: %d items, %d payload maps", order.name, len(shared), len(maps))
		cloned := make(Stream, len(shared))
		for i, e := range shared {
			cloned[i] = e.Clone()
		}
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", order.name, shards), func(t *testing.T) {
				a, b := runFleet(t, shared, shards), runFleet(t, cloned, shards)
				if len(a.Alerts()) == 0 {
					t.Fatal("no alerts: the stream does not exercise the query")
				}
				if x, y := encodeAll(t, a.Results()), encodeAll(t, b.Results()); !bytes.Equal(x, y) {
					t.Errorf("results differ: %d bytes from shared payloads, %d from cloned", len(x), len(y))
				}
				if !reflect.DeepEqual(a.Tags(), b.Tags()) {
					t.Error("tags differ")
				}
				if !reflect.DeepEqual(a.Metrics(), b.Metrics()) {
					t.Errorf("metrics differ:\nshared %+v\ncloned %+v", a.Metrics(), b.Metrics())
				}
			})
		}
	}
}

// runFleet runs the §3.1 query at Middle over in on the given shard count.
func runFleet(t *testing.T, in Stream, shards int) *Query {
	sys := New()
	t.Cleanup(func() { sys.Close() })
	q, err := sys.Register(missedRestart, WithSpec(Middle()), WithShards(shards))
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(in)
	if err := q.Err(); err != nil {
		t.Fatal(err)
	}
	return q
}

// encodeAll is s in the WAL's event encoding.
func encodeAll(t *testing.T, s Stream) []byte {
	var b []byte
	for _, e := range s {
		var err error
		if b, err = wal.AppendEvent(b, e); err != nil {
			t.Fatal(err)
		}
	}
	return b
}
