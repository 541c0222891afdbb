package temporal

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTimeAddSaturates(t *testing.T) {
	cases := []struct {
		name string
		t    Time
		d    Duration
		want Time
	}{
		{"simple", 10, 5, 15},
		{"negative", 10, -5, 5},
		{"infinity stays", Infinity, 100, Infinity},
		{"infinity stays negative", Infinity, -100, Infinity},
		{"saturate high", Infinity - 1, 10, Infinity},
		{"saturate low", MinTime + 1, -10, MinTime},
		{"zero", 42, 0, 42},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.t.Add(c.d); got != c.want {
				t.Errorf("%v.Add(%v) = %v, want %v", c.t, c.d, got, c.want)
			}
		})
	}
}

func TestTimeSub(t *testing.T) {
	if got := Time(10).Sub(3); got != 7 {
		t.Errorf("10-3 = %v, want 7", got)
	}
	if got := Infinity.Sub(Infinity); got != 0 {
		t.Errorf("inf-inf = %v, want 0", got)
	}
	if got := Infinity.Sub(5); got != Duration(math.MaxInt64) {
		t.Errorf("inf-5 = %v, want max", got)
	}
	if got := Time(5).Sub(Infinity); got != Duration(math.MinInt64) {
		t.Errorf("5-inf = %v, want min", got)
	}
}

func TestTimeString(t *testing.T) {
	if Infinity.String() != "∞" {
		t.Errorf("Infinity.String() = %q", Infinity.String())
	}
	if Time(42).String() != "42" {
		t.Errorf("Time(42).String() = %q", Time(42).String())
	}
}

func TestMinMax(t *testing.T) {
	if Min(3, 5) != 3 || Min(5, 3) != 3 {
		t.Error("Min broken")
	}
	if Max(3, 5) != 5 || Max(5, 3) != 5 {
		t.Error("Max broken")
	}
	if Max(7, Infinity) != Infinity {
		t.Error("Max with Infinity broken")
	}
}

func TestIntervalBasics(t *testing.T) {
	i := NewInterval(1, 10)
	if i.Empty() {
		t.Error("[1,10) reported empty")
	}
	if !i.Contains(1) || !i.Contains(9) {
		t.Error("Contains endpoints wrong")
	}
	if i.Contains(10) || i.Contains(0) {
		t.Error("Contains out-of-range wrong")
	}
	if i.Duration() != 9 {
		t.Errorf("Duration = %v, want 9", i.Duration())
	}
	if i.String() != "[1, 10)" {
		t.Errorf("String = %q", i.String())
	}
}

func TestIntervalEmpty(t *testing.T) {
	for _, iv := range []Interval{NewInterval(5, 5), NewInterval(7, 3)} {
		if !iv.Empty() {
			t.Errorf("%v not reported empty", iv)
		}
		if iv.Duration() != 0 {
			t.Errorf("%v duration = %v, want 0", iv, iv.Duration())
		}
		if iv.Contains(iv.Start) {
			t.Errorf("empty %v contains its start", iv)
		}
	}
}

func TestIntervalOverlapsIntersect(t *testing.T) {
	a := NewInterval(1, 10)
	b := NewInterval(5, 15)
	c := NewInterval(10, 20)
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Error("a/b should overlap")
	}
	// Half-open: [1,10) and [10,20) share no instant.
	if a.Overlaps(c) {
		t.Error("a/c should not overlap")
	}
	got := a.Intersect(b)
	if got != NewInterval(5, 10) {
		t.Errorf("Intersect = %v", got)
	}
	if !a.Intersect(c).Empty() {
		t.Error("a∩c should be empty")
	}
}

func TestIntervalMeets(t *testing.T) {
	// Definition 10: [T1,T2) meets [T1',T2') iff T2 = T1'.
	if !NewInterval(1, 5).Meets(NewInterval(5, 9)) {
		t.Error("[1,5) should meet [5,9)")
	}
	if NewInterval(1, 5).Meets(NewInterval(6, 9)) {
		t.Error("[1,5) should not meet [6,9)")
	}
	if NewInterval(5, 9).Meets(NewInterval(1, 5)) {
		t.Error("meets is not symmetric")
	}
}

func TestPointAndFrom(t *testing.T) {
	p := Point(7)
	if p != NewInterval(7, 8) {
		t.Errorf("Point(7) = %v", p)
	}
	f := From(3)
	if f.Start != 3 || f.End != Infinity {
		t.Errorf("From(3) = %v", f)
	}
	if f.Duration() != Duration(math.MaxInt64) {
		t.Errorf("From(3).Duration() = %v", f.Duration())
	}
}

func TestClipEnd(t *testing.T) {
	i := NewInterval(1, Infinity)
	if got := i.ClipEnd(10); got != NewInterval(1, 10) {
		t.Errorf("ClipEnd = %v", got)
	}
	if got := NewInterval(1, 5).ClipEnd(10); got != NewInterval(1, 5) {
		t.Errorf("ClipEnd should not extend: %v", got)
	}
}

// Property: intersection is commutative and contained in both operands.
func TestIntersectProperties(t *testing.T) {
	f := func(a1, a2, b1, b2 int16) bool {
		a := NewInterval(Time(min16(a1, a2)), Time(max16(a1, a2)))
		b := NewInterval(Time(min16(b1, b2)), Time(max16(b1, b2)))
		x := a.Intersect(b)
		y := b.Intersect(a)
		if x.Empty() != y.Empty() {
			return false
		}
		if !x.Empty() && x != y {
			return false
		}
		if !x.Empty() && (x.Start < a.Start || x.End > a.End || x.Start < b.Start || x.End > b.End) {
			return false
		}
		// Overlaps must agree with non-empty intersection.
		return a.Overlaps(b) == !x.Empty()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func min16(a, b int16) int16 {
	if a < b {
		return a
	}
	return b
}

func max16(a, b int16) int16 {
	if a > b {
		return a
	}
	return b
}

func TestParseDuration(t *testing.T) {
	cases := []struct {
		in   string
		want Duration
		ok   bool
	}{
		{"12 hours", 12 * Hour, true},
		{"5 minutes", 5 * Minute, true},
		{"90s", 90 * Second, true},
		{"300", 300, true},
		{"1 day", Day, true},
		{"42 ticks", 42, true},
		{"7ms", 7, true},
		{"-3 seconds", -3 * Second, true},
		{"", 0, false},
		{"abc", 0, false},
		{"5 parsecs", 0, false},
		{"  10   mins ", 10 * Minute, true},
	}
	for _, c := range cases {
		got, err := ParseDuration(c.in)
		if c.ok && err != nil {
			t.Errorf("ParseDuration(%q) error: %v", c.in, err)
			continue
		}
		if !c.ok {
			if err == nil {
				t.Errorf("ParseDuration(%q) expected error, got %v", c.in, got)
			}
			continue
		}
		if got != c.want {
			t.Errorf("ParseDuration(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestMustParseDurationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParseDuration should panic on bad input")
		}
	}()
	MustParseDuration("not a duration")
}

// Meets reports whether i ends exactly where o starts (Definition 10 of the
// paper: two intervals [T1,T2), [T1',T2') meet iff T2 = T1').
func (i Interval) Meets(o Interval) bool { return i.End == o.Start }

// ClipEnd returns a copy of i whose end is at most end.
func (i Interval) ClipEnd(end Time) Interval {
	if i.End > end {
		i.End = end
	}
	return i
}

// MustParseDuration is ParseDuration that panics on error.
func MustParseDuration(s string) Duration {
	d, err := ParseDuration(s)
	if err != nil {
		panic(err)
	}
	return d
}
