//go:build !race

package eventio

import (
	"bytes"
	"testing"

	"repro/internal/event"
)

// Allocation ceilings. (Skipped under -race: instrumentation changes
// allocation counts.)

// TestAllocsParseValueIdentifier: a string field that cannot be a number
// (every Machine_Id=m017 of a fleet stream) costs the one object its
// returned interface needs — not two failed strconv parses, each a
// *NumError plus a copy of the text.
func TestAllocsParseValueIdentifier(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() { ParseValue("m017") })
	const ceiling = 1.0
	t.Logf("ParseValue of an identifier: %.2f allocs (ceiling %.0f)", allocs, ceiling)
	if allocs > ceiling {
		t.Fatalf("ParseValue(\"m017\") allocates %.0f objects, above the pinned ceiling %.0f", allocs, ceiling)
	}
}

// TestAllocsReadCSV: what ReadCSV allocates per line of a 20,000-line fleet
// stream, through a fresh table — its worst case, as after a GC empties the
// pool. Without a table every line cost 4.0 objects: the line, its payload
// map (two objects) and a boxed value. Where the Machine_Id takes 192
// values, as on the fleet stream, a line now allocates its share of the
// stream's backing array, of the first two decodes of each payload, and of
// the maps of the few payloads whose slot another also hashes to (the hash
// is deterministic, so the count repeats exactly). Where every payload is
// distinct, each lookup misses and a line allocates what it did without a
// table — its map, its value and the value's box — plus, every ≈500 lines,
// a type or name that a value evicted copied again.
func TestAllocsReadCSV(t *testing.T) {
	const lines = 20000
	for _, c := range []struct {
		name    string
		values  int
		ceiling float64 // per line
	}{{"repeated", 192, 0.36}, {"distinct", lines, 4.01}} {
		in := csvStream(t, lines, c.values, fleetID, false)
		perLine := testing.AllocsPerRun(2, func() {
			if _, err := readCSV(bytes.NewReader(in), "allocs", event.NewTable()); err != nil {
				t.Fatal(err)
			}
		}) / lines
		t.Logf("ReadCSV of %d lines, %s payloads: %.4f allocs/line (ceiling %.2f)", lines, c.name, perLine, c.ceiling)
		if perLine > c.ceiling {
			t.Errorf("ReadCSV allocates %.4f objects a line on %s payloads, above the pinned ceiling %.2f", perLine, c.name, c.ceiling)
		}
	}
}

// TestAllocsReadJSON: what ReadJSONStream allocates per line of a 20,000-line
// fleet stream with 192 payloads, through a fresh table: what encoding/json
// allocates for the object, its raw payload text and its strings, and the
// line's share of the stream's backing array. A payload handed out again
// skips its json.Decoder and its map: without a table a line cost 31.0.
func TestAllocsReadJSON(t *testing.T) {
	const lines, ceiling = 20000, 23.04
	in := jsonStream(t, lines, 192, fleetID, false)
	perLine := testing.AllocsPerRun(2, func() {
		if _, err := readJSON(bytes.NewReader(in), "allocs", event.NewTable()); err != nil {
			t.Fatal(err)
		}
	}) / lines
	t.Logf("ReadJSONStream of %d lines, repeated payloads: %.4f allocs/line (ceiling %.2f)", lines, perLine, ceiling)
	if perLine > ceiling {
		t.Errorf("ReadJSONStream allocates %.4f objects a line on repeated payloads, above the pinned ceiling %.2f", perLine, ceiling)
	}
}
