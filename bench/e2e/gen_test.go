package main

import (
	"bytes"
	"sort"
	"testing"

	cedr "repro"
	"repro/internal/eventio"
)

func mustGenerate(t *testing.T, seed int64, p genParams) *input {
	t.Helper()
	in, err := generate(seed, p)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestGenerateIsAFunctionOfTheSeed(t *testing.T) {
	for _, p := range []genParams{{Machines: 12, Cycles: 3}, {Machines: 12, Cycles: 3, Disordered: true}} {
		a, b, c := mustGenerate(t, 7, p), mustGenerate(t, 7, p), mustGenerate(t, 8, p)
		if !bytes.Equal(a.CSV, b.CSV) || a.SHA256 != b.SHA256 {
			t.Errorf("%+v: the same seed gave different bytes", p)
		}
		if bytes.Equal(a.CSV, c.CSV) || a.SHA256 == c.SHA256 {
			t.Errorf("%+v: different seeds gave the same bytes", p)
		}
	}
}

// The disordered rendering of a seed carries exactly the ordered
// rendering's events: only arrival order and sync-point placement differ.
func TestRenderingsShareTheLogicalStream(t *testing.T) {
	lines := func(in *input) []string {
		var out []string
		for _, e := range in.Items {
			line, err := eventio.FormatCSVLine(e)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, line)
		}
		sort.Strings(out)
		return out
	}
	ord := mustGenerate(t, 3, genParams{Machines: 16, Cycles: 4})
	dis := mustGenerate(t, 3, genParams{Machines: 16, Cycles: 4, Disordered: true})
	if !sameStrings(lines(ord), lines(dis)) {
		t.Fatal("ordered and disordered renderings differ in content")
	}
	if bytes.Equal(ord.CSV, dis.CSV) {
		t.Fatal("the disordered rendering arrives in order")
	}
	if ord.Expected != dis.Expected {
		t.Fatalf("expected alerts differ: %d ordered, %d disordered", ord.Expected, dis.Expected)
	}
}

func TestPunctuationIsNeverViolated(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		in := mustGenerate(t, seed, genParams{Machines: 24, Cycles: 4, Disordered: true})
		guarantee := cedr.Time(0)
		ctis := 0
		for i, e := range in.Items {
			if e.IsCTI() {
				ctis++
				if e.Sync() <= guarantee {
					t.Fatalf("seed %d item %d: sync point %d does not advance past %d", seed, i, e.Sync(), guarantee)
				}
				guarantee = e.Sync()
			} else if e.Sync() < guarantee {
				t.Fatalf("seed %d item %d: event at %d arrives after sync point %d", seed, i, e.Sync(), guarantee)
			}
		}
		if ctis != in.CTIs || len(in.Items) != in.Events+in.CTIs {
			t.Fatalf("seed %d: counts %d+%d do not describe %d items with %d sync points", seed, in.Events, in.CTIs, len(in.Items), ctis)
		}
		if last := in.Items[len(in.Items)-1]; !last.IsCTI() {
			t.Fatalf("seed %d: the stream does not end on a sync point", seed)
		}
	}
}

// The generator's expected-alert count is what a one-shard in-process run
// of the decoded CSV detects, in either arrival order.
func TestExpectedAlertsMatchTheEngine(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for _, disordered := range []bool{false, true} {
			in := mustGenerate(t, seed, genParams{Machines: 24, Cycles: 4, Disordered: disordered})
			items, err := eventio.ReadCSV(bytes.NewReader(in.CSV), "input")
			if err != nil {
				t.Fatal(err)
			}
			sys := cedr.New()
			q, err := sys.Register(fleetQuery, middle())
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range items {
				sys.Push(e)
			}
			sys.Finish()
			if got := len(q.Alerts()); got != in.Expected || in.Expected == 0 {
				t.Errorf("seed %d disordered=%v: engine detects %d alerts, generator expects %d", seed, disordered, got, in.Expected)
			}
			if v := q.Metrics()[0].Violations; v != 0 {
				t.Errorf("seed %d disordered=%v: %d punctuation violations", seed, disordered, v)
			}
		}
	}
}
