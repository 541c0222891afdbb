//go:build !race

package eventio

import "testing"

// TestAllocsParseValueIdentifier: a string field that cannot be a number
// (every Machine_Id=m017 of a fleet stream) costs the one object its
// returned interface needs — not two failed strconv parses, each a
// *NumError plus a copy of the text. (Skipped under -race: instrumentation
// changes allocation counts.)
func TestAllocsParseValueIdentifier(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() { ParseValue("m017") })
	const ceiling = 1.0
	t.Logf("ParseValue of an identifier: %.2f allocs (ceiling %.0f)", allocs, ceiling)
	if allocs > ceiling {
		t.Fatalf("ParseValue(\"m017\") allocates %.0f objects, above the pinned ceiling %.0f", allocs, ceiling)
	}
}
