package inc

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/algebra"
	"repro/internal/event"
	"repro/internal/operators"
	"repro/internal/temporal"
)

// FuzzIncVsOracle is the native fuzz harness over the differential
// step-checker: fuzzer bytes decode into an operator shape × SC mode × key
// domain × event script (inserts with controlled timestamps and keys,
// aligned full removals, advances — including far jumps that force scope
// pruning — mid-stream clone swaps, and checkpoint capture/rollback/compact
// over the undo journal), which is then driven through the incremental op
// and the frozen semi-naive oracle with byte-exact comparison at every
// step. Inserts may be stragglers — occurrences below the newest one, which
// the expiry queues file by binary insert instead of at their tails — or
// repeat an earlier payload exactly, so the payload table hits (payload.go),
// and a far advance may be Advance(∞), the wholesale reset, mid-script. Keyed
// shapes run with WithJoinKey, so the pushdown's bucket seams (definite,
// wild and missing-attribute matches) are fuzzed against the same oracle.
// Run it as a fuzzer with
//
//	go test -run '^$' -fuzz '^FuzzIncVsOracle$' -fuzztime 30s ./internal/algebra/inc
//
// (CI performs exactly that smoke run); under plain `go test` the seed
// corpus below executes as regression cases, one per operator shape.

// fuzzShape is one operator configuration the first script byte selects.
type fuzzShape struct {
	name    string
	expr    algebra.Expr
	joinKey string // "" = unkeyed
}

// fuzzShapes covers every operator kind, flat and nested, in both the
// unkeyed and the keyed (pushdown) configuration where predicates make
// keying sound.
func fuzzShapes() []fuzzShape {
	var shapes []fuzzShape
	for name, expr := range exprZoo() {
		shapes = append(shapes, fuzzShape{name: name, expr: expr})
	}
	for name, expr := range keyedZoo() {
		shapes = append(shapes, fuzzShape{name: name, expr: expr, joinKey: "k"})
	}
	// Deterministic selector order (map iteration is not).
	sort.Slice(shapes, func(i, j int) bool { return shapes[i].name < shapes[j].name })
	return shapes
}

// Script opcodes: each step consumes two bytes (c, a). c's low nibble
// selects the action, the rest parameterizes it — see decode below.
const (
	fuzzOpInsertMax = 9  // 0..9: insert (weighted toward inserts); c&0x80: a straggler; c&0x40: no unique "i"
	fuzzOpRemove    = 10 // 10,11: aligned full removal
	fuzzOpAdvance   = 12 // 12,13: small advance
	fuzzOpClone     = 14 // version/clone ops, sub-selected by a%4 (see decode)
	fuzzOpFarAdv    = 15 // far advance: forces scope pruning; a == 0xff: Advance(∞)
)

func FuzzIncVsOracle(f *testing.F) {
	shapes := fuzzShapes()

	// Seed corpus: every operator shape gets one script exercising all
	// opcodes — inserts across keys and types (with one missing-attribute
	// event), a removal, advances near and far, a clone swap, and the
	// checkpoint sub-opcodes (mark, rollback, compact).
	script := []byte{
		0x00, 0x05, 0x10, 0x09, 0x20, 0x0d, 0x30, 0x11, // 4 inserts, mixed types/keys
		0x0c, 0x02, // advance
		0x40, 0x3c, 0x50, 0x01, 0x90, 0x15, // inserts (incl. missing-attr patterns)
		0x0a, 0x03, // remove
		0x0e, 0x00, // clone swap
		0x60, 0x07, 0x70, 0x0b, // inserts
		0x0f, 0x20, // far advance
		0x80, 0x06, 0x10, 0x0a, // inserts after the prune
		0x0c, 0x04, // advance
		0x0e, 0x01, // mark #0
		0x20, 0x09, 0x30, 0x12, // inserts past the mark
		0x0c, 0x03, // advance past the mark
		0x0e, 0x02, // rollback to mark #0 (j = 0)
		0x40, 0x05, // re-insert along the new timeline
		0x0e, 0x05, // mark #1 (a%4 == 1)
		0x50, 0x0e, // insert
		0x0e, 0x06, // rollback to mark #1 (a%4 == 2, j = 1)
		0x0e, 0x07, // compact to mark #1 (a%4 == 3, j = 1)
		0x60, 0x0d, // insert
		0x0c, 0x05, // advance
	}
	for i, mode := 0, 0; i < len(shapes); i++ {
		seed := append([]byte{byte(i), byte(mode), byte(i % 4)}, script...)
		f.Add(seed)
		mode = (mode + 1) % 4
	}

	// One seed per payload shape on which a correlation key carried beside
	// the match could part from keyCfg.of (carriedkey_test.go has the same
	// five as plain tests): with one string key (keys selector 0) the key
	// codes are 0 = "k0", 1 = omitted, 2 = dotted, 3 = NaN, 4 = int64(3),
	// 5 = float64(3). Types: 0 = A, 1 = B, 2 = C.
	shapeIdx := func(name string) byte {
		for i, sh := range shapes {
			if sh.name == name {
				return byte(i)
			}
		}
		f.Fatalf("no fuzz shape %q", name)
		return 0
	}
	ins := func(typ, code int) []byte { return []byte{byte(typ << 4), byte(code<<2 | 1)} }
	tail := []byte{
		0x0c, 0x02, // advance
		0x0e, 0x01, // mark
		0x10, 0x01, // insert B "k0"
		0x0a, 0x00, // remove
		0x0f, 0x10, // far advance: prune
		0x0e, 0x02, // rollback: replay over the interning caches
		0x20, 0x01, // insert C "k0"
		0x0c, 0x05, // advance
	}
	for _, c := range []struct {
		shape string
		codes [][2]int // (type, key code) per insert
	}{
		{"kunless-dupneg", [][2]int{{0, 0}, {1, 0}, {1, 5}, {1, 0}}},  // b.k vs prime-renamed b.k'
		{"kcidr07", [][2]int{{0, 2}, {1, 0}, {2, 2}, {0, 0}}},         // dotted attribute
		{"kcidr07", [][2]int{{0, 1}, {1, 0}, {0, 0}, {1, 1}, {2, 1}}}, // absent value
		{"kcidr07", [][2]int{{0, 3}, {1, 3}, {0, 0}, {1, 3}, {2, 3}}}, // NaN
		{"kcidr07", [][2]int{{0, 4}, {1, 5}, {2, 4}, {0, 5}, {1, 0}}}, // int64(3) vs float64(3)
	} {
		seed := []byte{shapeIdx(c.shape), 1, 0}
		for _, tc := range c.codes {
			seed = append(seed, ins(tc[0], tc[1])...)
		}
		f.Add(append(seed, tail...))
	}

	// Scripts that straddle expiry (the scripted rollback differential,
	// driveAcrossExpiry, has the same seams as a plain test): a clone
	// taken while the queues have a popped prefix, stragglers below the
	// queues' tails, a retraction whose stale entry pops later, one version
	// rolled back to twice across a run of pops, and the Advance(∞) reset
	// between two versions, rewound one at a time.
	straddle := []byte{
		0x00, 0x05, 0x10, 0x06, 0x20, 0x07, 0x00, 0x09, 0x10, 0x0a, 0x20, 0x0b, // inserts
		0x0f, 0x00, // far advance: a run of pops
		0x0e, 0x00, // clone swap: the journal is still off
		0x00, 0x05, 0x10, 0x06, 0x20, 0x07, 0x00, 0x09, // inserts
		0x0e, 0x01, // mark #0
		0x80, 0x02, 0x90, 0x01, // stragglers
		0x0a, 0x02, // remove
		0x0f, 0x00, // far advance: pops, the removed event's stale entry among them
		0x00, 0x05, 0x10, 0x06, // inserts
		0x0e, 0x02, // rollback to #0
		0x0f, 0x08, // far advance: a different run
		0x20, 0x07, // insert
		0x0e, 0x02, // rollback to #0 again
		0x0e, 0x05, // mark #1
		0x0f, 0xff, // Advance(∞): the reset
		0x00, 0x05, 0x10, 0x06, // inserts
		0x0e, 0x09, // mark #2
		0x20, 0x07, // insert
		0x0e, 0x0a, // rollback to #2
		0x0e, 0x06, // rollback to #1, across the reset
		0x00, 0x05, 0xa0, 0x03, // insert, straggler
		0x0f, 0x10, // far advance
		0x0e, 0x07, // compact to #1
		0x10, 0x06, // insert
	}
	for i, name := range []string{"cidr07", "kcidr07", "seq3", "atmost2", "unless-prime", "katleast", "not", "kcancel"} {
		f.Add(append([]byte{shapeIdx(name), byte(i % 4), byte(i % 4)}, straddle...))
	}

	// Few keys, repeated payloads (no unique "i"): the payload table hits at
	// the leaves and for composites of interned parts, including equal numbers
	// of different types, across a rollback, a prune and the Advance(∞) reset.
	rep := func(typ, code int) []byte { return []byte{byte(0x40 | typ<<4), byte(code<<2 | 1)} }
	repeated := slices.Concat(
		rep(0, 0), rep(1, 0), rep(0, 0), rep(1, 0), rep(2, 0),
		rep(0, 4), rep(1, 5), rep(0, 5), rep(1, 4), rep(2, 4),
		[]byte{0x0c, 0x02, 0x0e, 0x01}, // advance, mark
		rep(1, 0), rep(0, 0), rep(1, 0),
		[]byte{0x0f, 0x08, 0x0e, 0x02}, // far advance, rollback
		rep(0, 0), rep(1, 0), rep(2, 0), rep(0, 4), rep(1, 4),
		[]byte{0x0e, 0x05, 0x0f, 0xff}, // mark, Advance(∞)
		rep(0, 0), rep(1, 0), rep(0, 5), rep(1, 5),
		[]byte{0x0e, 0x06, 0x0c, 0x03}, // rollback across the reset, advance
		rep(0, 0), rep(1, 0), rep(2, 1), rep(0, 0), rep(1, 0),
	)
	for i, name := range []string{"seq", "seq-dup", "kseq3", "kcidr07", "katleast", "kunless-dupneg", "atmost2", "unless-prime", "knot", "kcancel"} {
		f.Add(append([]byte{shapeIdx(name), byte(i % 4), byte(i % 2)}, repeated...))
	}

	// Duplicate ATLEAST positions (one composite, several derivations) and a
	// SEQUENCE re-headed by ATMOST, whose retractions re-enumerate: the
	// straggler C lands inside an A–B pair after X completed composites over
	// it, so the NOT position loses the pair on its own.
	redo := []byte{
		0x00, 0x05, 0x10, 0x05, 0x00, 0x01, 0x30, 0x05, // A, B, A (same instant), X
		0x0e, 0x01, // mark
		0xa0, 0x03, // straggler C
		0x10, 0x09, 0x30, 0x06, // B, X
		0x0a, 0x01, // remove
		0x0e, 0x02, // rollback
		0x0a, 0x04, 0x0b, 0x02, // removals
		0x0f, 0x04, // far advance: prune
		0x00, 0x05, 0x10, 0x05, // A, B
	}
	for i, name := range []string{"atleast-dup", "atleast-dup-not", "katleast-dup", "atmost-seq", "katmost-seq"} {
		f.Add(append([]byte{shapeIdx(name), byte(i % 4), byte(i % 4)}, redo...))
		f.Add(append([]byte{shapeIdx(name), byte(i+1) % 4, byte(i % 4)}, straddle...))
	}

	// A version a rollback invalidated stays dead after the next mark, though
	// the new timeline journals exactly what the dead one did.
	dead := []byte{
		0x00, 0x05, // insert A
		0x0e, 0x01, // mark #0
		0x10, 0x05, // insert B
		0x0e, 0x05, // mark #1
		0x0e, 0x02, // rollback to #0: #1 is dead
		0x10, 0x05, // insert B again
		0x0e, 0x01, // mark: #1 must stay refused
	}
	for _, name := range []string{"seq", "kcidr07"} {
		f.Add(append([]byte{shapeIdx(name), 0, 0}, dead...))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		shape := shapes[int(data[0])%len(shapes)]
		mode := scModes()[int(data[1])%len(scModes())]
		keys := []int{1, 2, 3, 8}[int(data[2])%4]

		oracle := algebra.NewPatternOp(shape.expr, mode, "out")
		var opts []OpOption
		if shape.joinKey != "" {
			opts = append(opts, WithJoinKey(shape.joinKey))
		}
		fast := NewOp(shape.expr, mode, "out", opts...)
		watchKeys(t, fast)

		types := []string{"A", "B", "C", "X"}
		vs := temporal.Time(0)
		lastAdvance := temporal.MinTime
		nextID := event.ID(1)
		var removable []event.Event

		// Retained checkpoint marks for the versioning sub-opcodes: the
		// version paired with a frozen oracle clone plus the driver state
		// needed to resume the script coherently after a rollback. Rolling
		// back to marks[j] invalidates every later mark and compacting to it
		// every earlier one: those move to dead, which must stay refused for
		// good, however many marks follow. A clone swap hands both sides
		// fresh state with an empty journal, so it clears both stacks.
		type fuzzMark struct {
			v   operators.Version
			o   *algebra.PatternOp
			rem []event.Event
			la  temporal.Time
			vs  temporal.Time
		}
		var marks, dead []fuzzMark

		body := data[3:]
		if len(body) > 512 {
			body = body[:512] // bound the per-input work
		}
		for i := 0; i+1 < len(body); i += 2 {
			c, a := body[i], body[i+1]
			label := fmt.Sprintf("%s %v keys=%d step=%d", shape.name, mode, keys, i)
			switch op := c & 0x0f; {
			case op <= fuzzOpInsertMax:
				at := vs
				if c&0x80 != 0 {
					// A straggler: below the newest occurrence (and the
					// expiry queues' tails), not below the last advance.
					at = max(vs-temporal.Time(a&0x03)-1, 0)
					if !lastAdvance.IsInfinite() {
						at = max(at, lastAdvance)
					}
				} else if a&0x03 != 0 { // 1 in 4 shares the previous timestamp
					vs += temporal.Time(a&0x03) + 1
					at = vs
				}
				p := event.Payload{}
				if c&0x40 == 0 {
					p["i"] = int64(nextID) // else the payload repeats: a payload-table hit
				}
				switch key := int(a>>2) % (keys + 5); {
				case key < keys:
					p["k"] = fmt.Sprintf("k%d", key)
				case key == keys:
					// attribute omitted — the wild path
				case key == keys+1:
					// dotted payload attribute: suffix-visible to the
					// CorrelationKey filters, invisible to exact lookups —
					// must route wild (TestKeyedPairwiseExactLookup).
					p["sub.k"] = "k0"
				case key == keys+2:
					p["k"] = math.NaN() // never self-equal: must route wild
				case key == keys+3:
					p["k"] = int64(3) // one bucket with the float64 below
				default:
					p["k"] = float64(3)
				}
				e := event.NewInsert(nextID, types[int(c>>4)%len(types)], at,
					temporal.Infinity, p)
				nextID++
				checkStep(t, label+" insert", oracle, fast,
					fast.Process(0, e), oracle.Process(0, e))
				removable = append(removable, e)
			case op < fuzzOpAdvance: // remove
				if len(removable) == 0 {
					continue
				}
				j := int(a) % len(removable)
				victim := removable[j]
				if victim.V.Start < lastAdvance {
					continue // stay inside the aligned-removal contract
				}
				removable = append(removable[:j], removable[j+1:]...)
				r := event.NewRetract(victim.ID, victim.Type, victim.V.Start, victim.V.Start, nil)
				checkStep(t, label+" remove", oracle, fast,
					fast.Process(0, r), oracle.Process(0, r))
			case op < fuzzOpClone: // advance
				adv := vs.Add(temporal.Duration(a & 0x07))
				if adv > lastAdvance {
					lastAdvance = adv
				}
				checkStep(t, label+" advance", oracle, fast,
					fast.Advance(adv), oracle.Advance(adv))
			case op == fuzzOpClone:
				switch a % 4 {
				case 0: // swap both ops for their clones
					oracle = oracle.Clone().(*algebra.PatternOp)
					fast = fast.Clone().(*Op)
					marks, dead = marks[:0], dead[:0]
				case 1: // checkpoint capture: journal mark + frozen oracle
					marks = append(marks, fuzzMark{
						v:   fast.Mark(),
						o:   oracle.Clone().(*algebra.PatternOp),
						rem: append([]event.Event(nil), removable...),
						la:  lastAdvance,
						vs:  vs,
					})
				case 2: // rollback to a retained mark
					if len(marks) == 0 {
						continue
					}
					j := int(a>>2) % len(marks)
					if !fast.Rollback(marks[j].v) {
						t.Fatalf("%s rollback: retained mark %d refused", label, j)
					}
					oracle = marks[j].o.Clone().(*algebra.PatternOp)
					removable = append(removable[:0], marks[j].rem...)
					lastAdvance, vs = marks[j].la, marks[j].vs
					dead = append(dead, marks[j+1:]...)
					marks = marks[:j+1]
					checkStep(t, label+" rollback", oracle, fast, nil, nil)
				default: // compact: drop undo history below a retained mark
					if len(marks) == 0 {
						continue
					}
					j := int(a>>2) % len(marks)
					fast.Compact(marks[j].v)
					dead = append(dead, marks[:j]...)
					marks = marks[j:]
					checkStep(t, label+" compact", oracle, fast, nil, nil)
				}
				for _, d := range dead {
					if fast.Rollback(d.v) {
						t.Fatalf("%s: rollback to invalidated version %v succeeded", label, d.v)
					}
				}
			default: // far advance: pushes the horizon past live state
				adv := vs.Add(temporal.Duration(a) + 64)
				if a == 0xff {
					adv = temporal.Infinity
				}
				if adv > lastAdvance {
					lastAdvance = adv
				}
				checkStep(t, label+" far-advance", oracle, fast,
					fast.Advance(adv), oracle.Advance(adv))
			}
		}
		checkStep(t, shape.name+" finish", oracle, fast,
			fast.Advance(temporal.Infinity), oracle.Advance(temporal.Infinity))
	})
}
