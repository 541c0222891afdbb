// Package eventio decodes and encodes CEDR events at the system's edges:
// the CSV line format of the cedr CLI and the JSON object format of the
// server's HTTP surface. Both front doors share these codecs, so a stream
// accepted by one round-trips through the other. ReadCSV and
// ReadJSONStream share one read-only payload map between events of equal
// payload text.
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
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/event"
	"repro/internal/stream"
	"repro/internal/temporal"
)

// MaxLine bounds one CSV line.
const MaxLine = 1 << 20

// ParseValue converts CSV field text into a typed payload value:
// integers to int64, then floats to float64, then the literals "true" and
// "false" to bool; everything else stays a string. Surrounding single or
// double quotes force the string domain ('true' is the string "true",
// "17" the string "17") and are stripped.
func ParseValue(s string) event.Value { return parseValue(s, nil) }

// parseValue is ParseValue over text or a line's bytes, a string value
// through tab (without one: text itself, a copy of bytes).
func parseValue[T string | []byte](s T, tab *event.Table) event.Value {
	if quotedForm(s) {
		s = s[1 : len(s)-1]
	} else if v, ok := scalar(s); ok {
		return v
	}
	if tab == nil {
		return string(s)
	}
	return tab.Value([]byte(s))
}

// scalar parses unquoted s as ParseValue's int64, float64 or bool. Every
// spelling strconv accepts as a decimal integer or a float starts with a
// digit, a sign, a point, or the first letter of "inf"/"nan"; anything else
// (an identifier like m017) skips both parses, each of whose failures would
// allocate a *NumError and a copy of s.
func scalar[T string | []byte](s T) (event.Value, bool) {
	if len(s) > 0 && (s[0]-'0' <= 9 || strings.IndexByte("+-.iInN", s[0]) >= 0) {
		if n, err := strconv.ParseInt(string(s), 10, 64); err == nil {
			return n, true
		}
		if f, err := strconv.ParseFloat(string(s), 64); err == nil {
			return f, true
		}
	}
	if string(s) == "true" || string(s) == "false" {
		return string(s) == "true", true
	}
	return nil, false
}

// quotedForm reports whether s would lose its surrounding quotes in
// ParseValue.
func quotedForm[T string | []byte](s T) bool {
	n := len(s)
	return n >= 2 && ((s[0] == '\'' && s[n-1] == '\'') || (s[0] == '"' && s[n-1] == '"'))
}

// appendValue appends text ParseValue reproduces v from — and ParseCSVLine,
// which trims each field: floats always carry a fraction or exponent
// marker, and strings that would parse as another domain, carry
// surrounding quotes or white space are single-quoted. It allocates
// nothing while b has room; false if v has no such text.
func appendValue(b []byte, v event.Value) ([]byte, bool) {
	switch x := v.(type) {
	case int64:
		return strconv.AppendInt(b, x, 10), true
	case int:
		return strconv.AppendInt(b, int64(x), 10), true
	case float64:
		n := len(b)
		if b = strconv.AppendFloat(b, x, 'g', -1, 64); !bytes.ContainsAny(b[n:], ".eEIN") {
			b = append(b, ".0"...) // distinguish 2.0 from the integer 2
		}
		return b, true
	case bool:
		return strconv.AppendBool(b, x), true
	case string:
		if _, other := scalar(x); other || x == "" || quotedForm(x) || strings.TrimSpace(x) != x {
			return append(append(append(b, '\''), x...), '\''), clean(x, '\'')
		}
		return append(b, x...), clean(x, ',') // a field's first '=' separates: a value may hold more
	}
	return b, false
}

// clean reports whether s holds neither ',' nor '\n', which end a field and
// a line, nor other: a name's '=', a quoted string's quote.
func clean(s string, other byte) bool {
	for i := range len(s) {
		if c := s[i]; c == ',' || c == '\n' || c == other {
			return false
		}
	}
	return true
}

// ParseCSVLine decodes one event line (comments and blank lines are the
// caller's concern — see ReadCSV), sharing nothing. Its errors, like
// UnmarshalJSON's, quote at most 32 runes of a field: a whole one, quoted
// and copied, would make rejecting input cost a multiple of its length.
func ParseCSVLine(line string) (event.Event, error) { return parseLine([]byte(line), nil) }

// parseLine is ParseCSVLine over a line's bytes, which it does not retain:
// strings, and a payload whose text (the line after ve) is short, come
// through tab.
func parseLine(line []byte, tab *event.Table) (event.Event, error) {
	// Fields are cut off one at a time: a line of commas costs no slice.
	kind, rest, more := bytes.Cut(line, comma)
	kind = bytes.TrimSpace(kind) // compared case-insensitively, never copied
	if bytes.EqualFold(kind, []byte("cti")) {
		if !more {
			return event.Event{}, fmt.Errorf("cti needs a timestamp")
		}
		ts, _, _ := bytes.Cut(rest, comma)
		t, err := strconv.ParseInt(string(bytes.TrimSpace(ts)), 10, 64)
		if err != nil {
			return event.Event{}, fmt.Errorf("bad cti timestamp %.32q: %v", ts, errors.Unwrap(err))
		}
		return event.NewCTI(temporal.Time(t)), nil
	}
	var head [4][]byte // id, type, vs, ve
	for i := range head {
		if !more {
			return event.Event{}, fmt.Errorf("need kind,id,type,vs,ve")
		}
		head[i], rest, more = bytes.Cut(rest, comma)
	}
	id, err := strconv.ParseUint(string(bytes.TrimSpace(head[0])), 10, 64)
	if err != nil {
		return event.Event{}, fmt.Errorf("bad id %.32q: %v", head[0], errors.Unwrap(err))
	}
	vs, err := strconv.ParseInt(string(bytes.TrimSpace(head[2])), 10, 64)
	if err != nil {
		return event.Event{}, fmt.Errorf("bad vs %.32q: %v", head[2], errors.Unwrap(err))
	}
	ve := temporal.Infinity
	if s := bytes.TrimSpace(head[3]); string(s) != "inf" && string(s) != "∞" {
		v, err := strconv.ParseInt(string(s), 10, 64)
		if err != nil {
			return event.Event{}, fmt.Errorf("bad ve %.32q: %v", s, errors.Unwrap(err))
		}
		ve = temporal.Time(v)
	}
	typ := tab.String(bytes.TrimSpace(head[1]))
	payload, slot := tab.Payload(rest)
	if payload == nil {
		payload = event.Payload{}
		for more {
			var kv []byte
			kv, rest, more = bytes.Cut(rest, comma)
			if kv = bytes.TrimSpace(kv); len(kv) == 0 {
				continue
			}
			i := bytes.IndexByte(kv, '=')
			if i < 0 {
				return event.Event{}, fmt.Errorf("bad field %.32q", kv)
			}
			payload[tab.String(kv[:i])] = parseValue(kv[i+1:], tab)
		}
		slot.Keep(payload)
	}
	switch {
	case bytes.EqualFold(kind, []byte("insert")):
		return event.NewInsert(event.ID(id), typ, temporal.Time(vs), ve, payload), nil
	case bytes.EqualFold(kind, []byte("retract")):
		return event.NewRetract(event.ID(id), typ, temporal.Time(vs), ve, payload), nil
	}
	return event.Event{}, fmt.Errorf("unknown kind %.32q", kind)
}

var comma = []byte(",")

// FormatCSVLine renders an event so ParseCSVLine reproduces its
// unitemporal content (payload keys sorted for determinism). Events whose
// payload does not survive the CSV form — structure characters in strings,
// unsupported value types — are rejected; the JSON codec has no such limits.
func FormatCSVLine(e event.Event) (string, error) {
	if e.IsCTI() {
		return fmt.Sprintf("cti,%d", int64(e.V.Start)), nil
	}
	ve := strconv.FormatInt(int64(e.V.End), 10)
	if e.V.End.IsInfinite() {
		ve = "inf"
	}
	b := fmt.Appendf(nil, "%s,%d,%s,%d,%s", e.Kind, uint64(e.ID), e.Type, int64(e.V.Start), ve)
	var names [8]string
	for _, k := range event.SortedNames(names[:0], e.Payload) {
		var ok bool
		if b, ok = appendValue(append(append(append(b, ','), k...), '='), e.Payload[k]); !ok || !clean(k, '=') {
			return "", fmt.Errorf("eventio: a payload field has no CSV form: %v (use the JSON format)", e.Payload)
		}
	}
	return string(b), nil
}

// ReadCSV decodes an event stream from one-line-per-event CSV, skipping
// blank lines and '#' comments. Errors carry name and line number. Lines
// up to MaxLine are accepted. Events of equal payload text may share one
// map, which is therefore read-only.
func ReadCSV(r io.Reader, name string) (stream.Stream, error) {
	tab := csvTables.Get().(*event.Table)
	defer csvTables.Put(tab)
	return readCSV(r, name, tab)
}

// csvTables and jsonTables recycle the readers' tables, so a one-line batch
// does not pay for one. A table serves one codec: a text both accept, such
// as {"a=b":1}, decodes to a different map in each.
var csvTables = sync.Pool{New: func() any { return event.NewTable() }}
var jsonTables = sync.Pool{New: func() any { return event.NewTable() }}

func readCSV(r io.Reader, name string, tab *event.Table) (stream.Stream, error) {
	var out stream.Stream
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, MaxLine)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		ev, err := parseLine(line, tab)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %v", name, lineNo, err)
		}
		if len(out) == cap(out) { // double: append grows a long stream by quarters
			out = slices.Grow(out, len(out)+1)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		if err == bufio.ErrTooLong {
			return nil, fmt.Errorf("%s:%d: line exceeds %d bytes", name, lineNo+1, MaxLine)
		}
		return nil, fmt.Errorf("%s:%d: %w", name, lineNo+1, err)
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
		return fmt.Errorf("eventio: bad time %.32s", b)
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
	b := []byte{'{'}
	var names [8]string
	for i, k := range event.SortedNames(names[:0], p) {
		if i > 0 {
			b = append(b, ',')
		}
		kb, _ := json.Marshal(k)
		b = append(append(b, kb...), ':')
		v := p[k]
		f, isFloat := v.(float64)
		if isFloat && (math.IsNaN(f) || math.IsInf(f, 0)) {
			return nil, fmt.Errorf("eventio: non-finite float %v in payload key %q has no JSON form", f, k)
		}
		ok := true
		if x, isString := v.(string); isString {
			kb, _ = json.Marshal(x) // a string always marshals
			b = append(b, kb...)
		} else { // a finite number's or a bool's CSV text is its JSON
			b, ok = appendValue(b, v)
		}
		if !ok {
			return nil, fmt.Errorf("eventio: unsupported payload value type %T for key %q", v, k)
		}
	}
	return append(b, '}'), nil
}

// UnmarshalJSON decodes one event object produced by MarshalJSON (or
// hand-written by a client), followed by nothing but white space. JSON
// numbers without fraction or exponent decode as int64, with one as
// float64.
func UnmarshalJSON(data []byte) (event.Event, error) { return unmarshalJSON(data, nil) }

// unmarshalJSON is UnmarshalJSON sharing a short payload text through tab.
func unmarshalJSON(data []byte, tab *event.Table) (event.Event, error) {
	var je jsonEvent
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&je); err != nil {
		return event.Event{}, fmt.Errorf("eventio: %v", err)
	}
	if rest := bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
		return event.Event{}, fmt.Errorf("eventio: %d bytes after the event object", len(rest))
	}
	vs := temporal.Time(je.Vs)
	switch je.Kind {
	case "cti":
		return event.NewCTI(vs), nil
	case "insert", "retract":
	default:
		return event.Event{}, fmt.Errorf("eventio: unknown kind %.32q", je.Kind)
	}
	if je.Type == "" {
		return event.Event{}, fmt.Errorf("eventio: %s event needs a type", je.Kind)
	}
	ve := temporal.Infinity
	if je.Ve != nil {
		ve = temporal.Time(*je.Ve)
	}
	payload, err := unmarshalPayload(je.Payload, tab)
	if err != nil {
		return event.Event{}, err
	}
	e := event.NewInsert(event.ID(je.ID), je.Type, vs, ve, payload)
	if je.Kind == "retract" {
		e.Kind = event.Retract
	}
	for _, f := range [...]struct {
		to   *temporal.Time
		from *jsonTime
	}{{&e.O.Start, je.Os}, {&e.O.End, je.Oe}, {&e.C.Start, je.Cs}, {&e.C.End, je.Ce}, {&e.RT, je.Rt}} {
		if f.from != nil {
			*f.to = temporal.Time(*f.from)
		}
	}
	for _, id := range je.Cbt {
		e.CBT = append(e.CBT, event.ID(id))
	}
	return e, nil
}

// unmarshalPayload decodes a payload object, if any, with json.Number
// preservation, then replaces each value by JSONValue's in place; a text
// tab kept is not decoded again.
func unmarshalPayload(raw json.RawMessage, tab *event.Table) (event.Payload, error) {
	if len(raw) == 0 {
		return nil, nil
	}
	p, slot := tab.Payload(raw)
	if p != nil {
		return p, nil
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("eventio: payload: %v", err)
	}
	for k, v := range p {
		var err error
		if p[k], err = JSONValue(v); err != nil {
			return nil, fmt.Errorf("eventio: payload key %.32q: %v", k, err)
		}
	}
	slot.Keep(p)
	return p, nil
}

// JSONValue maps a value decoded with json.Decoder.UseNumber onto the event
// value domain — the one rule for JSON payload values and query bindings:
// an integral number in int64's range becomes an int64, any other number a
// float64; strings and booleans stay; anything else is refused.
func JSONValue(v any) (event.Value, error) {
	switch x := v.(type) {
	case json.Number:
		if n, err := x.Int64(); err == nil {
			return n, nil
		}
		f, err := x.Float64()
		if err != nil {
			return nil, fmt.Errorf("bad number %.32s", x)
		}
		return f, nil
	case bool, string:
		return x, nil
	default:
		return nil, fmt.Errorf("unsupported JSON type %T (values must be numbers, strings, or booleans)", v)
	}
}

// ReadJSONStream decodes a sequence of JSON event objects (NDJSON, or any
// whitespace-separated concatenation; a top-level JSON array also works).
// Errors carry name and the 1-based index of the failing object. Events of
// equal payload text may share one map, which is therefore read-only.
func ReadJSONStream(r io.Reader, name string) (stream.Stream, error) {
	tab := jsonTables.Get().(*event.Table)
	defer jsonTables.Put(tab)
	return readJSON(r, name, tab)
}

func readJSON(r io.Reader, name string, tab *event.Table) (stream.Stream, error) {
	dec := json.NewDecoder(r)
	var out stream.Stream
	n := 0
	for {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return nil, fmt.Errorf("%s: event %d: %w", name, n+1, err)
		}
		objs := []json.RawMessage{raw}
		if len(raw) > 0 && raw[0] == '[' { // a top-level array: unpack its elements
			if err := json.Unmarshal(raw, &objs); err != nil {
				return nil, fmt.Errorf("%s: %v", name, err)
			}
		}
		for _, obj := range objs {
			n++
			ev, err := unmarshalJSON(obj, tab)
			if err != nil {
				return nil, fmt.Errorf("%s: event %d: %v", name, n, err)
			}
			out = append(out, ev)
		}
	}
}
