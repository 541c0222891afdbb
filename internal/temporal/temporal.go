// Package temporal provides the logical time domain used throughout CEDR-Go.
//
// The paper separates three notions of time — valid time, occurrence time and
// CEDR (system) time — but all three are drawn from logical clocks. We model
// every clock as an int64 tick counter so that experiments are deterministic
// and independent of the wall clock. One tick is one millisecond of
// application time; duration literals in the CEDR language ("12 hours",
// "5 minutes") are converted to ticks with that base.
package temporal

import (
	"fmt"
	"math"
)

// Time is an instant on one of CEDR's logical clocks, measured in ticks.
// The zero value is the epoch.
type Time int64

// Duration is a span of logical time in ticks.
type Duration int64

// Infinity is the maximum representable instant. The paper writes it as ∞ and
// uses it for "valid forever" / "not yet retracted" interval endpoints.
const Infinity Time = math.MaxInt64

// MinTime is the minimum representable instant.
const MinTime Time = math.MinInt64

// Tick durations for the supported units. The base tick is one millisecond.
const (
	Millisecond Duration = 1
	Second               = 1000 * Millisecond
	Minute               = 60 * Second
	Hour                 = 60 * Minute
	Day                  = 24 * Hour
)

// IsInfinite reports whether t is the Infinity sentinel.
func (t Time) IsInfinite() bool { return t == Infinity }

// Add returns t shifted by d, saturating at Infinity and MinTime rather than
// wrapping. Adding anything to Infinity yields Infinity.
func (t Time) Add(d Duration) Time {
	if t == Infinity {
		return Infinity
	}
	if d >= 0 {
		if t > Infinity-Time(d) {
			return Infinity
		}
	} else {
		if t < MinTime-Time(d) {
			return MinTime
		}
	}
	return t + Time(d)
}

// Sub returns the duration from u to t (t minus u). If either operand is
// infinite the result saturates.
func (t Time) Sub(u Time) Duration {
	if t == Infinity || u == Infinity {
		if t == u {
			return 0
		}
		if t == Infinity {
			return Duration(math.MaxInt64)
		}
		return Duration(math.MinInt64)
	}
	return Duration(t - u)
}

// String renders the instant, using the paper's ∞ notation for Infinity.
func (t Time) String() string {
	if t == Infinity {
		return "∞"
	}
	return fmt.Sprintf("%d", int64(t))
}

// String renders the duration in ticks.
func (d Duration) String() string { return fmt.Sprintf("%dt", int64(d)) }

// Min returns the earlier of a and b.
func Min(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}

// Max returns the later of a and b.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// Interval is a half-open span of logical time [Start, End). All intervals in
// the CEDR model — validity intervals, occurrence intervals and CEDR-time
// intervals — use this shape, matching the paper's [Vs, Ve), [Os, Oe)
// conventions.
type Interval struct {
	Start Time
	End   Time
}

// NewInterval constructs [start, end).
func NewInterval(start, end Time) Interval { return Interval{Start: start, End: end} }

// Point returns the degenerate-looking interval [t, t+1) used when a fact
// holds for exactly one tick.
func Point(t Time) Interval { return Interval{Start: t, End: t.Add(1)} }

// From returns [t, ∞).
func From(t Time) Interval { return Interval{Start: t, End: Infinity} }

// Empty reports whether the interval contains no instants (End <= Start).
// The paper uses empty occurrence intervals (Oe set to Os) to remove an
// event from the system entirely.
func (i Interval) Empty() bool { return i.End <= i.Start }

// Contains reports whether t lies inside [Start, End).
func (i Interval) Contains(t Time) bool { return i.Start <= t && t < i.End }

// Overlaps reports whether i and o share at least one instant.
func (i Interval) Overlaps(o Interval) bool {
	return i.Start < o.End && o.Start < i.End && !i.Empty() && !o.Empty()
}

// Intersect returns the overlap of i and o. The result may be empty.
func (i Interval) Intersect(o Interval) Interval {
	return Interval{Start: Max(i.Start, o.Start), End: Min(i.End, o.End)}
}

// Duration returns the length of the interval, saturating for infinite
// endpoints. Empty intervals have duration zero.
func (i Interval) Duration() Duration {
	if i.Empty() {
		return 0
	}
	return i.End.Sub(i.Start)
}

// String renders the interval in the paper's [start, end) notation.
func (i Interval) String() string {
	return fmt.Sprintf("[%s, %s)", i.Start, i.End)
}
