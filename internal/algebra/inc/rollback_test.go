package inc

import (
	"fmt"
	"math/rand"
	"testing"

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
				// The barrier is peeked, not popped: the same version must
				// accept a second rollback (repeated repairs to one snapshot).
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
