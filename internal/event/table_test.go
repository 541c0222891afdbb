package event

import (
	"fmt"
	"testing"
	"unsafe"
)

// keep decodes text twice through t as a codec would — the first miss is
// seen, the second kept — with a map that records which text it came from.
func keep(t *Table, text string) {
	for range 2 {
		if p, slot := t.Payload([]byte(text)); p == nil {
			slot.Keep(Payload{"text": text})
		}
	}
}

// handed is the map t hands out for text, or nil; a map kept for another
// text fails the test.
func handed(tb testing.TB, t *Table, text string) Payload {
	tb.Helper()
	p, _ := t.Payload([]byte(text))
	if p != nil && p["text"] != text {
		tb.Fatalf("the text %q was handed the map kept for %q", text, p["text"])
	}
	return p
}

// TestTablePayloadHitsOnlyItsText: a kept map is handed out for
// byte-for-byte its own text, and for no text that differs in one byte,
// stops short of it or runs past it — on a fresh table and on the zero
// one, whose one slot every text hashes to.
func TestTablePayloadHitsOnlyItsText(t *testing.T) {
	const text = "Machine_Id=m017,Seq=3"
	for _, c := range []struct {
		name string
		tab  *Table
	}{{"a fresh table", NewTable()}, {"the zero table", new(Table)}} {
		keep(c.tab, text)
		if handed(t, c.tab, text) == nil {
			t.Fatalf("%s: the kept text %q missed", c.name, text)
		}
		for _, other := range []string{
			"Machine_Id=m017,Seq=4", "machine_Id=m017,Seq=3", // one byte changed
			"Machine_Id=m017,Seq=", "Machine_Id=m017", "", // prefixes
			"Machine_Id=m017,Seq=33", text + ",", text + ",x=1", // extensions
		} {
			if p := handed(t, c.tab, other); p != nil {
				t.Fatalf("%s: %q was handed the map kept for %q", c.name, other, text)
			}
		}
	}
}

// TestTableArenaSpill: distinct kept texts past the inline arena's size
// move a table to its spill arena, after which each slot's last kept text
// is handed its map again — the table holds as many payloads as it has
// slots — and no map is ever handed out for another text: while the
// inline arena fills, across the move, and when a slot re-keeps a text
// longer or shorter than its region. The zero table's one slot never
// outgrows the inline arena.
func TestTableArenaSpill(t *testing.T) {
	for _, c := range []struct {
		name  string
		tab   *Table
		moves bool
	}{{"a fresh table", NewTable(), true}, {"the zero table", new(Table), false}} {
		var texts []string
		moved := 0 // the first text kept in the spill arena
		for i := 0; len(texts)*SharedMax < 3*len(c.tab.inline); i++ {
			text := fmt.Sprintf("id=%d,pad=%0*d", i, i%(SharedMax-16), 0)
			keep(c.tab, text)
			if handed(t, c.tab, text) == nil {
				t.Fatalf("%s: text %d, %q, just kept, missed", c.name, i, text)
			}
			if moved == 0 && c.tab.spill != nil {
				moved = i
			}
			texts = append(texts, text)
		}
		if (c.tab.spill != nil) != c.moves {
			t.Fatalf("%s: moved to the spill arena: %v, want %v", c.name, c.tab.spill != nil, c.moves)
		}
		last := map[uint64]string{} // each slot's last text kept since the move
		for _, text := range texts[moved:] {
			last[c.tab.index(hash([]byte(text)))] = text
		}
		hits := 0
		for _, text := range texts {
			want := last[c.tab.index(hash([]byte(text)))] == text
			if got := handed(t, c.tab, text) != nil; got != want {
				t.Fatalf("%s: %q hit: %v, want %v", c.name, text, got, want)
			} else if got {
				hits++
			}
		}
		t.Logf("%s: %d of %d kept texts hit, %d kept since the move", c.name, hits, len(texts), len(texts)-moved)
	}
}

// TestTableSpillClearsSlots: the move to the spill arena clears every slot,
// since their texts stay behind in the inline one. a is kept first, at
// inline[0:4]; distinct fillers "f=00…" in other slots fill the inline
// arena until one moves the table and is kept at the spill's start. z,
// "f=00", hashes to a's slot: a slot still reading a's text from [0:4)
// would hand z a's map.
func TestTableSpillClearsSlots(t *testing.T) {
	tab := NewTable()
	slot := func(text string) uint64 { return tab.index(hash([]byte(text))) }
	const z = "f=00"
	a := ""
	for i := 0; a == "" && i < 10_000; i++ {
		if c := fmt.Sprintf("%04d", i); slot(c) == slot(z) {
			a = c
		}
	}
	if a == "" {
		t.Fatal("no four-digit text shares z's slot")
	}
	keep(tab, a)
	for i := 0; tab.spill == nil; i++ {
		if f := fmt.Sprintf("f=%0*d", SharedMax-2, i); slot(f) != slot(z) {
			keep(tab, f)
		}
	}
	if string(tab.spill[:len(z)]) != z {
		t.Fatalf("the spill starts %q, not z", tab.spill[:len(z)])
	}
	if handed(t, tab, a) != nil || handed(t, tab, z) != nil {
		t.Fatalf("%q, kept before the move, or z, was handed a map after it", a)
	}
}

// TestTableRegionHoldsItsText: a region is never cut short by the end of
// the inline arena. With 2 bytes of it left, p (2 bytes) is kept; then t,
// 5 bytes that start with p and share its slot, is kept in p's region. Had
// p's region been the 2 bytes left, t's copy would stop after p and the
// slot would answer p with t's map.
func TestTableRegionHoldsItsText(t *testing.T) {
	tab := NewTable()
	slot := func(text string) uint64 { return tab.index(hash([]byte(text))) }
	const p = "pp"
	long := ""
	for i := 0; long == "" && i < 26*26*26; i++ {
		if c := p + string([]byte{'a' + byte(i%26), 'a' + byte(i/26%26), 'a' + byte(i/676)}); slot(c) == slot(p) {
			long = c
		}
	}
	if long == "" {
		t.Fatal("no 5-byte text starting with p shares its slot")
	}
	fill := func(text string) {
		if slot(text) != slot(p) {
			keep(tab, text)
		}
	}
	fill(fmt.Sprintf("f=%0*d", SharedMax-4, 0)) // 62 bytes
	for i := 1; tab.used+SharedMax <= len(tab.inline)-2; i++ {
		fill(fmt.Sprintf("f=%0*d", SharedMax-2, i))
	}
	if left := len(tab.inline) - tab.used; left != 2 || tab.spill != nil {
		t.Fatalf("%d bytes of the inline arena left (spill %v), want 2", left, tab.spill != nil)
	}
	keep(tab, p)
	keep(tab, long)
	if handed(t, tab, long) == nil || handed(t, tab, p) != nil {
		t.Fatalf("%q, kept over %q, missed, or %q was handed a map", long, p, p)
	}
}

// TestTableSize: one table is held per connection and per pooled reader;
// hit speed is not to be bought with a larger one. (A table whose kept
// texts outgrow its inline arena also holds a spill arena of TableSlots *
// SharedMax bytes; TestDecoderRetainsBoundedPayloads counts it.)
func TestTableSize(t *testing.T) {
	const ceiling = 57_608 // the table when a hit re-encoded the kept map
	size := unsafe.Sizeof(Table{})
	t.Logf("event.Table: %d B (ceiling %d B)", size, ceiling)
	if size > ceiling {
		t.Fatalf("event.Table is %d B, above the pinned ceiling %d B", size, ceiling)
	}
}
