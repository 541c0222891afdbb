package inc

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/algebra"
	"repro/internal/event"
	"repro/internal/operators"
	"repro/internal/temporal"
)

// The rollback differential: Mark/Rollback/Compact (the undo journal behind
// operators.Versioned) must restore exactly the state a frozen clone taken at
// the same point holds. Each trial drives a random aligned script; at random
// points it pairs fast.Mark() with oracle.Clone(), and at later random points
// rewinds the incremental op while swapping the oracle back to the frozen
// clone — then keeps driving both with the same suffix, asserting the usual
// step-for-step byte identity. Compact validates that history below a kept
// version can be discarded without hurting it, and that rollback to a
// discarded or invalidated version is refused with state untouched. The
// random scripts rarely advance far enough to expire anything, so each
// (expression, mode) also runs driveAcrossExpiry (expiry_test.go): one fixed
// script that takes every expiry-queue seam across Mark/Rollback.

type rbMark struct {
	v operators.Version
	o operators.Op // frozen oracle state at the mark
}

func driveRollback(t *testing.T, name string, expr algebra.Expr, mode algebra.SCMode,
	seed int64, events []event.Event, rng *rand.Rand, opts ...OpOption) {
	t.Helper()
	oracle := algebra.NewPatternOp(expr, mode, "out")
	fast := NewOp(expr, mode, "out", opts...)
	watchKeys(t, fast)
	label := func(step string, i int) string {
		return fmt.Sprintf("%s %v seed=%d %s %d", name, mode, seed, step, i)
	}

	var marks []rbMark
	save := func() {
		marks = append(marks, rbMark{v: fast.Mark(), o: oracle.Clone()})
	}
	rollTo := func(j int, i int) {
		if !fast.Rollback(marks[j].v) {
			t.Fatalf("%s: rollback to live version %d refused", label("roll", i), j)
		}
		oracle = marks[j].o.Clone().(*algebra.PatternOp)
		marks = marks[:j+1] // later versions are invalidated
		checkStep(t, label("post-roll", i), oracle, fast, nil, nil)
	}
	save() // genesis mark: journaling on from the first event

	lastAdvance := temporal.MinTime
	var removable []event.Event
	for i, e := range events {
		og := oracle.Process(0, e)
		ig := fast.Process(0, e)
		checkStep(t, label("push", i), oracle, fast, ig, og)
		removable = append(removable, e)

		if rng.Intn(5) == 0 && len(removable) > 0 {
			j := rng.Intn(len(removable))
			victim := removable[j]
			if victim.V.Start >= lastAdvance {
				removable = append(removable[:j], removable[j+1:]...)
				r := event.NewRetract(victim.ID, victim.Type, victim.V.Start, victim.V.Start, nil)
				og = oracle.Process(0, r)
				ig = fast.Process(0, r)
				checkStep(t, label("remove", i), oracle, fast, ig, og)
			}
		}

		if rng.Intn(4) == 0 {
			adv := e.V.Start.Add(temporal.Duration(rng.Intn(8)))
			if adv > lastAdvance {
				lastAdvance = adv
			}
			og = oracle.Advance(adv)
			ig = fast.Advance(adv)
			checkStep(t, label("advance", i), oracle, fast, ig, og)
		}

		if rng.Intn(6) == 0 {
			save()
		}

		// Rewind to a random retained version, the way repair rewinds to the
		// newest snapshot at or below a straggler.
		if rng.Intn(8) == 0 {
			j := rng.Intn(len(marks))
			rollTo(j, i)
			if rng.Intn(2) == 0 {
				// A rollback keeps its version: the same version must accept a
				// second rollback (repeated repairs to one snapshot).
				rollTo(j, i)
			}
		}

		// Discard history below a retained version, the way checkpointing
		// compacts below the base; versions below it must then be refused
		// without disturbing state.
		if rng.Intn(16) == 0 && len(marks) > 1 {
			k := 1 + rng.Intn(len(marks)-1)
			fast.Compact(marks[k].v)
			dropped := marks[rng.Intn(k)]
			before := fast.StateSize()
			if fast.Rollback(dropped.v) {
				t.Fatalf("%s: rollback below compaction point succeeded", label("compact", i))
			}
			if fast.StateSize() != before {
				t.Fatalf("%s: refused rollback disturbed state", label("compact", i))
			}
			marks = marks[k:]
			rollTo(rng.Intn(len(marks)), i) // compacted-to versions stay usable
		}
	}

	// Rewind across the Advance(∞) terminal reset: drain both, roll the
	// incremental op back over the reset, and drive a fresh tail.
	preFin := len(marks) - 1
	og := oracle.Advance(temporal.Infinity)
	ig := fast.Advance(temporal.Infinity)
	checkStep(t, label("finish", 0), oracle, fast, ig, og)
	rollTo(preFin, len(events))
	tail := genEvents(rng, 10)
	for i, e := range tail {
		// Keep the tail aligned: only occurrences at/after the op's frontier.
		if e.V.Start < lastAdvance {
			continue
		}
		og := oracle.Process(0, e)
		ig := fast.Process(0, e)
		checkStep(t, label("tail", i), oracle, fast, ig, og)
	}
	og = oracle.Advance(temporal.Infinity)
	ig = fast.Advance(temporal.Infinity)
	checkStep(t, label("tail-finish", 0), oracle, fast, ig, og)
}

// TestRollbackDifferential runs the rollback differential across the full
// operator zoo and SC-mode grid.
func TestRollbackDifferential(t *testing.T) {
	for name, expr := range exprZoo() {
		for mi, mode := range scModes() {
			for trial := 0; trial < 4; trial++ {
				seed := int64(7000*mi + 10*trial + 3)
				rng := rand.New(rand.NewSource(seed))
				events := genEvents(rng, 40)
				driveRollback(t, name, expr, mode, seed, events, rng)
			}
			driveAcrossExpiry(t, name, expr, mode)
		}
	}
}

// TestRollbackDifferentialKeyed repeats the rollback differential with
// correlation-key pushdown enabled, across the key-distribution grid, so the
// keyed bucket journal records (insert/remove against buckets that are
// deleted when empty and recreated on demand) are exercised.
func TestRollbackDifferentialKeyed(t *testing.T) {
	for name, expr := range keyedZoo() {
		for _, d := range keyDists() {
			for trial := 0; trial < 2; trial++ {
				seed := int64(9000 + 10*trial + 5)
				rng := rand.New(rand.NewSource(seed))
				events := genDistEvents(rng, 40, d)
				driveRollback(t, name+"/"+d.name, expr, algebra.SCMode{}, seed, events, rng,
					WithJoinKey("k"))
			}
		}
		for _, mode := range scModes() {
			driveAcrossExpiry(t, name, expr, mode, WithJoinKey("k"))
		}
	}
}

// journalRecs reads the live records of u's journal, which keeps them
// unexported in chunks at absolute positions: oldest first.
func journalRecs(u *undoLog) []undoRec {
	j := reflect.ValueOf(&u.Journal).Elem()
	chunks, lo := j.FieldByName("chunks"), int(j.FieldByName("lo").Int())
	n := chunks.Type().Elem().Elem().Len()
	var out []undoRec
	for p := lo; p < int(j.FieldByName("end").Int()); p++ {
		c := chunks.Index(p/n - lo/n).Elem()
		out = append(out, *(*undoRec)(unsafe.Pointer(c.Index(p % n).UnsafeAddr())))
	}
	return out
}

// staleSlots counts the slots of slice s between its length and its
// capacity that are not zero: a vacated slot the journal failed to clear,
// still holding a record's node, match or reset payload reachable.
func staleSlots(s reflect.Value) int {
	n := 0
	full := s.Slice(0, s.Cap())
	for i := s.Len(); i < s.Cap(); i++ {
		if !full.Index(i).IsZero() {
			n++
		}
	}
	return n
}

// TestJournalKeepsNoStaleSlots: every shrink of the undo journal zeroes what
// it gives up. A random Mark/Process/remove/Advance/Rollback/Compact script
// over the zoo checks, after each step, that every slot of the journal's
// chunks outside its live records is zero, that every chunk it handed back
// to the pool is zero, and that no slot in [len, cap) of its marks is set:
// a rollback truncates the records and the marks past its version, a
// compaction drops them from the front. The script ends the way a finished
// monitor does — Advance(∞), then a compaction to a mark past it — after
// which the journal holds no reset record at all, so the pre-reset tree is
// unreachable.
func TestJournalKeepsNoStaleSlots(t *testing.T) {
	grown := map[string]int{}
	var held map[uintptr]reflect.Value // the chunks the journal held at the last check
	check := func(label string, u *undoLog) {
		t.Helper()
		j := reflect.ValueOf(&u.Journal).Elem()
		chunks := j.FieldByName("chunks")
		lo, end := int(j.FieldByName("lo").Int()), int(j.FieldByName("end").Int())
		n := chunks.Type().Elem().Elem().Len()
		now := map[uintptr]reflect.Value{}
		for k := range chunks.Len() {
			c := chunks.Index(k)
			now[c.Pointer()] = reflect.NewAt(c.Type().Elem(), c.UnsafePointer()) // not the slot, which a free clears
			for i := range n {
				if p := (lo/n+k)*n + i; (p < lo || p >= end) && !c.Elem().Index(i).IsZero() {
					t.Fatalf("%s: stale record at position %d, outside the live [%d, %d)", label, p, lo, end)
				}
			}
		}
		for p, c := range held {
			if _, ok := now[p]; !ok && !c.Elem().IsZero() {
				t.Fatalf("%s: a chunk handed back to the pool is not zero", label)
			}
		}
		held = now
		grown["records"] = max(grown["records"], chunks.Len())
		marks := j.FieldByName("marks")
		for _, s := range []struct {
			name string
			v    reflect.Value
		}{
			{"mark ids", marks.FieldByName("ids")},
			{"mark snapshots", marks.FieldByName("vals")},
		} {
			if bad := staleSlots(s.v); bad > 0 {
				t.Fatalf("%s: %d stale slots beyond the journal's %s (cap %d)", label, bad, s.name, s.v.Cap())
			}
			grown[s.name] = max(grown[s.name], s.v.Cap())
		}
	}
	for name, expr := range exprZoo() {
		for mi, mode := range scModes() {
			seed := int64(31*mi + 5)
			rng := rand.New(rand.NewSource(seed))
			label := func(step string, i int) string {
				return fmt.Sprintf("%s %v seed=%d %s %d", name, mode, seed, step, i)
			}
			op := NewOp(expr, mode, "out")
			u := op.sh.u
			held = nil
			vs := []operators.Version{op.Mark()}
			rollTo := func(j, i int) {
				if !op.Rollback(vs[j]) {
					t.Fatalf("%s: rollback to a live version refused", label("rollback", i))
				}
				vs = vs[:j+1]
				check(label("rollback truncates", i), u)
			}
			lastAdvance := temporal.MinTime
			events := genEvents(rng, 60)
			for i, e := range events {
				op.Process(0, e)
				check(label("process", i), u)
				if v := events[rng.Intn(i+1)]; rng.Intn(4) == 0 && v.V.Start >= lastAdvance {
					op.Process(0, event.NewRetract(v.ID, v.Type, v.V.Start, v.V.Start, nil))
					check(label("remove", i), u)
				}
				if rng.Intn(4) == 0 {
					lastAdvance = max(lastAdvance, e.V.Start.Add(temporal.Duration(rng.Intn(8))))
					op.Advance(lastAdvance)
					check(label("advance", i), u)
				}
				if rng.Intn(3) == 0 {
					vs = append(vs, op.Mark())
				}
				if rng.Intn(6) == 0 {
					rollTo(rng.Intn(len(vs)), i)
				}
				if rng.Intn(8) == 0 && len(vs) > 1 {
					k := 1 + rng.Intn(len(vs)-1)
					op.Compact(vs[k])
					vs = vs[k:]
					check(label("compact shift", i), u)
				}
			}
			// Roll back over the reset once (its record undone), then finish.
			vs = append(vs, op.Mark())
			op.Advance(temporal.Infinity)
			check(label("advance(∞)", 0), u)
			rollTo(len(vs)-1, len(events))
			op.Advance(temporal.Infinity)
			op.Compact(op.Mark())
			check(label("compact past advance(∞)", 0), u)
			for _, r := range journalRecs(u) {
				if r.kind == jReset {
					t.Fatalf("%s: the journal still holds a reset record", label("compact past advance(∞)", 0))
				}
			}
		}
	}
	// Every slice the script checks must have held something, or it checked
	// nothing there.
	for _, name := range []string{"records", "mark ids", "mark snapshots"} {
		if grown[name] == 0 {
			t.Errorf("the script never filled the journal's %s", name)
		}
	}
}
