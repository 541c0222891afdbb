package temporal

import (
	"fmt"
	"strconv"
	"strings"
)

// unitTicks maps every accepted duration-unit spelling to its tick length.
// The CEDR language accepts the spellings the paper uses ("12 hours",
// "5 minutes") plus conventional short forms.
var unitTicks = map[string]Duration{
	"tick": 1, "ticks": 1,
	"ms": Millisecond, "millisecond": Millisecond, "milliseconds": Millisecond,
	"s": Second, "sec": Second, "secs": Second, "second": Second, "seconds": Second,
	"m": Minute, "min": Minute, "mins": Minute, "minute": Minute, "minutes": Minute,
	"h": Hour, "hr": Hour, "hrs": Hour, "hour": Hour, "hours": Hour,
	"d": Day, "day": Day, "days": Day,
}

// ParseDuration converts a CEDR duration literal such as "12 hours",
// "5 minutes", "90s" or a bare tick count "300" into a Duration.
func ParseDuration(s string) (Duration, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, fmt.Errorf("temporal: empty duration")
	}
	// Split the leading number from the unit suffix.
	i := 0
	for i < len(s) && (s[i] >= '0' && s[i] <= '9' || s[i] == '-' || s[i] == '+') {
		i++
	}
	numPart := strings.TrimSpace(s[:i])
	unitPart := strings.ToLower(strings.TrimSpace(s[i:]))
	if numPart == "" {
		return 0, fmt.Errorf("temporal: duration %q has no numeric part", s)
	}
	n, err := strconv.ParseInt(numPart, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("temporal: duration %q: %v", s, err)
	}
	if unitPart == "" {
		return Duration(n), nil
	}
	ticks, ok := unitTicks[unitPart]
	if !ok {
		return 0, fmt.Errorf("temporal: unknown duration unit %q in %q", unitPart, s)
	}
	return Duration(n) * ticks, nil
}
