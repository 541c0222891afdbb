// Package eventio decodes and encodes CEDR events at the system's edges:
// the CSV line format of the cedr CLI and the JSON object format of the
// server's HTTP surface. Both front doors share these codecs, so a stream
// accepted by one round-trips through the other.
//
// CSV lines are
//
//	kind,id,type,vs,ve,field=value,...
//
// where kind is "insert", "retract" or "cti" (cti lines use only vs), ve
// may be "inf" or "∞", and values parse by ParseValue. Lines starting with
// '#' are comments.
//
// JSON events are objects like
//
//	{"kind":"insert","id":1,"type":"HOT","vs":1000,"ve":"inf",
//	 "payload":{"sensor":"A","armed":true}}
//
// with optional full tritemporal header fields (os, oe, cs, ce, rt, cbt)
// for clients that speak provider/occurrence time explicitly; omitted
// fields default exactly as cedr.NewEvent does (occurrence starts at vs,
// root time vs). Numbers without a fraction or exponent decode as int64,
// with one as float64; the two compare equal in CEDR's value domain either
// way.
package eventio

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/event"
	"repro/internal/stream"
	"repro/internal/temporal"
)

// MaxLine bounds one CSV line (the default bufio.Scanner limit of 64KB
// rejected legitimate wide events with "token too long").
const MaxLine = 1 << 20

// ParseValue converts CSV field text into a typed payload value:
// integers to int64, then floats to float64, then the literals "true" and
// "false" to bool; everything else stays a string. Surrounding single or
// double quotes force the string domain ('true' is the string "true",
// "17" the string "17") and are stripped.
func ParseValue(s string) event.Value {
	if n := len(s); n >= 2 &&
		((s[0] == '\'' && s[n-1] == '\'') || (s[0] == '"' && s[n-1] == '"')) {
		return s[1 : n-1]
	}
	// Every spelling strconv accepts as a decimal integer or a float starts
	// with a digit, a sign, a point, or the first letter of "inf"/"nan";
	// anything else (an identifier like m017) skips both parses, each of
	// whose failures would allocate a *NumError and a copy of s.
	if s != "" && (s[0]-'0' <= 9 || strings.IndexByte("+-.iInN", s[0]) >= 0) {
		if n, err := strconv.ParseInt(s, 10, 64); err == nil {
			return n
		}
		if f, err := strconv.ParseFloat(s, 64); err == nil {
			return f
		}
	}
	switch s {
	case "true":
		return true
	case "false":
		return false
	}
	return s
}

// FormatValue renders a payload value so ParseValue reproduces it: floats
// always carry a fraction or exponent marker, and strings that would parse
// as another domain (or carry surrounding quotes) are single-quoted.
func FormatValue(v event.Value) (string, error) {
	switch x := v.(type) {
	case int64:
		return strconv.FormatInt(x, 10), nil
	case int:
		return strconv.Itoa(x), nil
	case float64:
		s := strconv.FormatFloat(x, 'g', -1, 64)
		if !strings.ContainsAny(s, ".eEIN") {
			s += ".0" // distinguish 2.0 from the integer 2
		}
		return s, nil
	case bool:
		if x {
			return "true", nil
		}
		return "false", nil
	case string:
		if x == "" || quotedForm(x) || differentDomain(x) {
			if strings.ContainsAny(x, "'\n") {
				return "", fmt.Errorf("eventio: string %q needs quoting but contains a quote or newline (use the JSON format)", x)
			}
			return "'" + x + "'", nil
		}
		if strings.ContainsAny(x, ",=\n") {
			return "", fmt.Errorf("eventio: string %q contains CSV structure characters (use the JSON format)", x)
		}
		return x, nil
	default:
		return "", fmt.Errorf("eventio: unsupported payload value type %T", v)
	}
}

// quotedForm reports whether s would lose its surrounding quotes in
// ParseValue.
func quotedForm(s string) bool {
	n := len(s)
	return n >= 2 && ((s[0] == '\'' && s[n-1] == '\'') || (s[0] == '"' && s[n-1] == '"'))
}

// differentDomain reports whether bare s parses as a non-string value.
func differentDomain(s string) bool {
	_, ok := ParseValue(s).(string)
	return !ok
}

// ParseCSVLine decodes one event line (comments and blank lines are the
// caller's concern — see ReadCSV).
func ParseCSVLine(line string) (event.Event, error) {
	parts := strings.Split(line, ",")
	kind := strings.ToLower(strings.TrimSpace(parts[0]))
	if kind == "cti" {
		if len(parts) < 2 {
			return event.Event{}, fmt.Errorf("cti needs a timestamp")
		}
		t, err := strconv.ParseInt(strings.TrimSpace(parts[1]), 10, 64)
		if err != nil {
			return event.Event{}, fmt.Errorf("bad cti timestamp: %v", err)
		}
		return event.NewCTI(temporal.Time(t)), nil
	}
	if len(parts) < 5 {
		return event.Event{}, fmt.Errorf("need kind,id,type,vs,ve")
	}
	id, err := strconv.ParseUint(strings.TrimSpace(parts[1]), 10, 64)
	if err != nil {
		return event.Event{}, fmt.Errorf("bad id: %v", err)
	}
	typ := strings.TrimSpace(parts[2])
	vs, err := strconv.ParseInt(strings.TrimSpace(parts[3]), 10, 64)
	if err != nil {
		return event.Event{}, fmt.Errorf("bad vs: %v", err)
	}
	ve := temporal.Infinity
	if s := strings.TrimSpace(parts[4]); s != "inf" && s != "∞" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return event.Event{}, fmt.Errorf("bad ve: %v", err)
		}
		ve = temporal.Time(v)
	}
	payload := event.Payload{}
	for _, kv := range parts[5:] {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		i := strings.IndexByte(kv, '=')
		if i < 0 {
			return event.Event{}, fmt.Errorf("bad field %q", kv)
		}
		payload[kv[:i]] = ParseValue(kv[i+1:])
	}
	switch kind {
	case "insert":
		return event.NewInsert(event.ID(id), typ, temporal.Time(vs), ve, payload), nil
	case "retract":
		return event.NewRetract(event.ID(id), typ, temporal.Time(vs), ve, payload), nil
	}
	return event.Event{}, fmt.Errorf("unknown kind %q", kind)
}

// FormatCSVLine renders an event so ParseCSVLine reproduces its
// unitemporal content (payload keys sorted for determinism). Events whose
// payload does not survive the CSV form — structure characters in strings,
// unsupported value types — are rejected; the JSON codec has no such limits.
func FormatCSVLine(e event.Event) (string, error) {
	if e.IsCTI() {
		return fmt.Sprintf("cti,%d", int64(e.V.Start)), nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s,%d,%s,%d,", e.Kind, uint64(e.ID), e.Type, int64(e.V.Start))
	if e.V.End.IsInfinite() {
		b.WriteString("inf")
	} else {
		fmt.Fprintf(&b, "%d", int64(e.V.End))
	}
	for _, k := range sortedKeys(e.Payload) {
		if strings.ContainsAny(k, ",=\n") {
			return "", fmt.Errorf("eventio: payload key %q contains CSV structure characters", k)
		}
		v, err := FormatValue(e.Payload[k])
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, ",%s=%s", k, v)
	}
	return b.String(), nil
}

func sortedKeys(p event.Payload) []string {
	if len(p) == 0 {
		return nil
	}
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	// Insertion sort: payloads are small and this avoids importing sort for
	// one call site.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

// ReadCSV decodes an event stream from one-line-per-event CSV, skipping
// blank lines and '#' comments. Errors carry name and line number. Lines
// up to MaxLine (1MiB) are accepted — the previous default 64KB scanner
// limit failed wide events with an unlocated "token too long".
func ReadCSV(r io.Reader, name string) (stream.Stream, error) {
	var out stream.Stream
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), MaxLine)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		ev, err := ParseCSVLine(line)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %v", name, lineNo, err)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		if err == bufio.ErrTooLong {
			return nil, fmt.Errorf("%s:%d: line exceeds %d bytes", name, lineNo+1, MaxLine)
		}
		return nil, fmt.Errorf("%s:%d: %v", name, lineNo+1, err)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// JSON

// jsonEvent is the wire object. Times are int64 ticks, or the string "inf"
// for the infinite horizon; optional header fields default as the
// constructors do.
type jsonEvent struct {
	Kind    string          `json:"kind"`
	ID      uint64          `json:"id,omitempty"`
	Type    string          `json:"type,omitempty"`
	Vs      int64           `json:"vs"`
	Ve      *jsonTime       `json:"ve,omitempty"`
	Os      *jsonTime       `json:"os,omitempty"`
	Oe      *jsonTime       `json:"oe,omitempty"`
	Cs      *jsonTime       `json:"cs,omitempty"`
	Ce      *jsonTime       `json:"ce,omitempty"`
	Rt      *jsonTime       `json:"rt,omitempty"`
	Cbt     []uint64        `json:"cbt,omitempty"`
	Payload json.RawMessage `json:"payload,omitempty"`
}

// jsonTime marshals a temporal.Time as its integer tick count, with "inf"
// and "-inf" for the two sentinels.
type jsonTime temporal.Time

// MarshalJSON implements json.Marshaler.
func (t jsonTime) MarshalJSON() ([]byte, error) {
	switch temporal.Time(t) {
	case temporal.Infinity:
		return []byte(`"inf"`), nil
	case temporal.MinTime:
		return []byte(`"-inf"`), nil
	}
	return strconv.AppendInt(nil, int64(t), 10), nil
}

// UnmarshalJSON implements json.Unmarshaler.
func (t *jsonTime) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"inf"`, `"∞"`:
		*t = jsonTime(temporal.Infinity)
		return nil
	case `"-inf"`:
		*t = jsonTime(temporal.MinTime)
		return nil
	}
	n, err := strconv.ParseInt(string(b), 10, 64)
	if err != nil {
		return fmt.Errorf("eventio: bad time %s", b)
	}
	*t = jsonTime(n)
	return nil
}

func timePtr(t temporal.Time) *jsonTime {
	jt := jsonTime(t)
	return &jt
}

// MarshalJSON encodes one event as a JSON object. Header fields that match
// the constructor defaults (occurrence [vs, inf), root time vs, unset CEDR
// time) are omitted, so hand-built and decoder-built events marshal to the
// minimal form while engine outputs keep their full tritemporal header.
func MarshalJSON(e event.Event) ([]byte, error) {
	je := jsonEvent{Kind: e.Kind.String(), Vs: int64(e.V.Start)}
	if e.IsCTI() {
		return json.Marshal(je)
	}
	je.ID = uint64(e.ID)
	je.Type = e.Type
	je.Ve = timePtr(e.V.End)
	if e.O.Start != e.V.Start {
		je.Os = timePtr(e.O.Start)
	}
	if !e.O.End.IsInfinite() {
		je.Oe = timePtr(e.O.End)
	}
	if (e.C != temporal.Interval{}) {
		je.Cs = timePtr(e.C.Start)
		je.Ce = timePtr(e.C.End)
	}
	if e.RT != e.V.Start {
		je.Rt = timePtr(e.RT)
	}
	for _, id := range e.CBT {
		je.Cbt = append(je.Cbt, uint64(id))
	}
	if len(e.Payload) > 0 {
		raw, err := marshalPayload(e.Payload)
		if err != nil {
			return nil, err
		}
		je.Payload = raw
	}
	return json.Marshal(je)
}

// marshalPayload renders the payload with sorted keys and floats always
// carrying a fraction or exponent marker, so the int64/float64 distinction
// survives the round trip.
func marshalPayload(p event.Payload) (json.RawMessage, error) {
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range sortedKeys(p) {
		if i > 0 {
			b.WriteByte(',')
		}
		kb, _ := json.Marshal(k)
		b.Write(kb)
		b.WriteByte(':')
		switch x := p[k].(type) {
		case int64:
			b.WriteString(strconv.FormatInt(x, 10))
		case int:
			b.WriteString(strconv.Itoa(x))
		case float64:
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return nil, fmt.Errorf("eventio: non-finite float %v in payload key %q has no JSON form", x, k)
			}
			s := strconv.FormatFloat(x, 'g', -1, 64)
			if !strings.ContainsAny(s, ".eE") {
				s += ".0"
			}
			b.WriteString(s)
		case bool:
			b.WriteString(strconv.FormatBool(x))
		case string:
			sb, err := json.Marshal(x)
			if err != nil {
				return nil, err
			}
			b.Write(sb)
		default:
			return nil, fmt.Errorf("eventio: unsupported payload value type %T for key %q", p[k], k)
		}
	}
	b.WriteByte('}')
	return json.RawMessage(b.String()), nil
}

// UnmarshalJSON decodes one event object produced by MarshalJSON (or
// hand-written by a client). JSON numbers without fraction or exponent
// decode as int64, with one as float64.
func UnmarshalJSON(data []byte) (event.Event, error) {
	var je jsonEvent
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&je); err != nil {
		return event.Event{}, fmt.Errorf("eventio: %v", err)
	}
	vs := temporal.Time(je.Vs)
	switch je.Kind {
	case "cti":
		return event.NewCTI(vs), nil
	case "insert", "retract":
	default:
		return event.Event{}, fmt.Errorf("eventio: unknown kind %q", je.Kind)
	}
	if je.Type == "" {
		return event.Event{}, fmt.Errorf("eventio: %s event needs a type", je.Kind)
	}
	ve := temporal.Infinity
	if je.Ve != nil {
		ve = temporal.Time(*je.Ve)
	}
	var payload event.Payload
	if len(je.Payload) > 0 {
		var err error
		if payload, err = unmarshalPayload(je.Payload); err != nil {
			return event.Event{}, err
		}
	}
	var e event.Event
	if je.Kind == "insert" {
		e = event.NewInsert(event.ID(je.ID), je.Type, vs, ve, payload)
	} else {
		e = event.NewRetract(event.ID(je.ID), je.Type, vs, ve, payload)
	}
	if je.Os != nil {
		e.O.Start = temporal.Time(*je.Os)
	}
	if je.Oe != nil {
		e.O.End = temporal.Time(*je.Oe)
	}
	if je.Cs != nil {
		e.C.Start = temporal.Time(*je.Cs)
	}
	if je.Ce != nil {
		e.C.End = temporal.Time(*je.Ce)
	}
	if je.Rt != nil {
		e.RT = temporal.Time(*je.Rt)
	}
	for _, id := range je.Cbt {
		e.CBT = append(e.CBT, event.ID(id))
	}
	return e, nil
}

// unmarshalPayload decodes a payload object with json.Number preservation.
func unmarshalPayload(raw json.RawMessage) (event.Payload, error) {
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.UseNumber()
	var m map[string]any
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("eventio: payload: %v", err)
	}
	p := make(event.Payload, len(m))
	for k, v := range m {
		switch x := v.(type) {
		case json.Number:
			s := x.String()
			if !strings.ContainsAny(s, ".eE") {
				if n, err := strconv.ParseInt(s, 10, 64); err == nil {
					p[k] = n
					continue
				}
			}
			f, err := x.Float64()
			if err != nil {
				return nil, fmt.Errorf("eventio: payload key %q: bad number %s", k, s)
			}
			p[k] = f
		case bool, string:
			p[k] = x
		default:
			return nil, fmt.Errorf("eventio: payload key %q has unsupported JSON type %T (values must be numbers, strings, or booleans)", k, v)
		}
	}
	return p, nil
}

// ReadJSONStream decodes a sequence of JSON event objects (NDJSON, or any
// whitespace-separated concatenation; a top-level JSON array also works).
// Errors carry name and the 1-based index of the failing object.
func ReadJSONStream(r io.Reader, name string) (stream.Stream, error) {
	dec := json.NewDecoder(r)
	var out stream.Stream
	n := 0
	for {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return nil, fmt.Errorf("%s: event %d: %v", name, n+1, err)
		}
		// A top-level array: unpack its elements.
		if len(raw) > 0 && raw[0] == '[' {
			var arr []json.RawMessage
			if err := json.Unmarshal(raw, &arr); err != nil {
				return nil, fmt.Errorf("%s: %v", name, err)
			}
			for _, el := range arr {
				n++
				ev, err := UnmarshalJSON(el)
				if err != nil {
					return nil, fmt.Errorf("%s: event %d: %v", name, n, err)
				}
				out = append(out, ev)
			}
			continue
		}
		n++
		ev, err := UnmarshalJSON(raw)
		if err != nil {
			return nil, fmt.Errorf("%s: event %d: %v", name, n, err)
		}
		out = append(out, ev)
	}
}
