package eventio

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/event"
	"repro/internal/stream"
	"repro/internal/temporal"
)

func TestParseValueDomains(t *testing.T) {
	cases := []struct {
		in   string
		want event.Value
	}{
		{"17", int64(17)},
		{"-4", int64(-4)},
		{"2.5", 2.5},
		{"2.0", 2.0},
		{"1e3", 1000.0},
		{"+Inf", math.Inf(1)},
		{"-Inf", math.Inf(-1)},
		{"true", true},
		{"false", false},
		{"hello", "hello"},
		{"'true'", "true"}, // quoting forces the string domain
		{`"17"`, "17"},     // both quote styles
		{"''", ""},         // empty string
		{"True", "True"},   // bool literals are exact
		{"m003", "m003"},   // not numeric despite digits
		{"0x10", "0x10"},   // no hex integers
	}
	for _, c := range cases {
		got := ParseValue(c.in)
		if !event.ValueEqual(got, c.want) || gotType(got) != gotType(c.want) {
			t.Errorf("ParseValue(%q) = %#v (%T), want %#v (%T)", c.in, got, got, c.want, c.want)
		}
	}
}

// refParseNumber is ParseValue's number step without the first-byte gate:
// what strconv itself accepts.
func refParseNumber(s string) (event.Value, bool) {
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		return n, true
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return f, true
	}
	return nil, false
}

// TestParseValueNumberGate: skipping both strconv parses when the first
// byte cannot start a number never changes a verdict — every spelling
// strconv accepts still parses (to the same value and type), everything it
// rejects still falls through to bool/string.
func TestParseValueNumberGate(t *testing.T) {
	cases := []struct {
		in   string
		want event.Value
	}{
		{"inf", math.Inf(1)}, {"Inf", math.Inf(1)}, {"-inf", math.Inf(-1)}, {"infinity", math.Inf(1)},
		{"NaN", math.NaN()}, {"nan", math.NaN()},
		{"+1", int64(1)}, {".5", 0.5}, {"-.5", -0.5}, {"1e3", 1000.0}, {"0x1p-2", 0.25},
		{"1_0", 10.0}, {"_1", "_1"}, {"true", true}, {"'17'", "17"}, {"m017", "m017"}, {"e3", "e3"},
		{"info", "info"}, {"none", "none"}, {"-", "-"}, {".", "."}, {"", ""},
	}
	for _, c := range cases {
		got := ParseValue(c.in)
		wantNaN := false
		if f, ok := c.want.(float64); ok {
			wantNaN = math.IsNaN(f)
		}
		if gf, ok := got.(float64); wantNaN && ok && math.IsNaN(gf) {
			continue
		}
		if !event.ValueEqual(got, c.want) || gotType(got) != gotType(c.want) {
			t.Errorf("ParseValue(%q) = %#v (%T), want %#v (%T)", c.in, got, got, c.want, c.want)
		}
	}
	// Exhaustively over short strings of the bytes that matter: the gate
	// agrees with strconv on whether the text is a number at all.
	alphabet := "019+-.eEiInNxXpP_afty'"
	var walk func(prefix string, depth int)
	walk = func(prefix string, depth int) {
		if _, isNum := refParseNumber(prefix); isNum {
			if g := gotType(ParseValue(prefix)); g != "int64" && g != "float64" {
				t.Fatalf("ParseValue(%q) is a %s; strconv parses it as a number", prefix, g)
			}
		}
		if depth == 0 {
			return
		}
		for i := range alphabet {
			walk(prefix+alphabet[i:i+1], depth-1)
		}
	}
	walk("", 3)
}

func gotType(v event.Value) string {
	switch v.(type) {
	case int64:
		return "int64"
	case float64:
		return "float64"
	case bool:
		return "bool"
	case string:
		return "string"
	default:
		return "other"
	}
}

func TestValueRoundTrip(t *testing.T) {
	values := []event.Value{
		int64(0), int64(-42), int64(1 << 40),
		2.5, 2.0, -0.125, 1e300, math.Inf(1),
		true, false,
		"plain", "true", "17", "2.5", "", "m003",
	}
	for _, v := range values {
		b, ok := appendValue(nil, v)
		if !ok {
			t.Fatalf("appendValue(%#v) refused it", v)
		}
		s := string(b)
		got := ParseValue(s)
		if !event.ValueEqual(got, v) || gotType(got) != gotType(v) {
			t.Errorf("round trip %#v -> %q -> %#v (%T)", v, s, got, got)
		}
	}
}

// appendValue formats every payload value FormatCSVLine writes; it must
// refuse a value that has no CSV form.
func TestFormatValueRejectsUnrepresentable(t *testing.T) {
	for _, v := range []event.Value{
		"a,b",      // a comma ends the field
		"'quoted'", // in quoted form: cannot survive CSV (JSON handles it)
		" a,b",     // needs quoting, and a quoted comma still ends the field
		[]string{"x"},
	} {
		if _, ok := appendValue(nil, v); ok {
			t.Errorf("appendValue(%#v) accepted a value with no CSV form", v)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	events := []event.Event{
		event.NewInsert(1, "HOT", 1000, temporal.Infinity,
			event.Payload{"sensor": "A", "armed": true, "level": 2.5, "count": int64(7)}),
		event.NewInsert(2, "COOL", 2000, 5000, event.Payload{"rate": 2.0}),
		event.NewRetract(1, "HOT", 1000, 1500, event.Payload{"sensor": "A"}),
		event.NewRetract(3, "X", 10, 10, nil), // full removal (ve == vs)
		event.NewCTI(4200),
		event.NewInsert(5, "S", 0, temporal.Infinity, event.Payload{"name": "q", "num": "17"}),
	}
	for _, e := range events {
		line, err := FormatCSVLine(e)
		if err != nil {
			t.Fatalf("format %v: %v", e, err)
		}
		got, err := ParseCSVLine(line)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if !got.Identical(e) {
			t.Errorf("round trip %v -> %q -> %v", e, line, got)
		}
	}
}

func TestParseCSVLineErrors(t *testing.T) {
	bad := []string{
		"insert,1,HOT",            // too few fields
		"insert,x,HOT,1,inf",      // bad id
		"insert,1,HOT,x,inf",      // bad vs
		"insert,1,HOT,1,x",        // bad ve
		"insert,1,HOT,1,inf,noeq", // field without '='
		"mystery,1,HOT,1,inf",     // unknown kind
		"cti",                     // cti without timestamp
		"cti,xyz",                 // bad cti timestamp
	}
	for _, line := range bad {
		if _, err := ParseCSVLine(line); err == nil {
			t.Errorf("ParseCSVLine(%q) accepted bad input", line)
		}
	}
}

func TestReadCSV(t *testing.T) {
	in := `# comment
insert,1,HOT,1000,inf,sensor=A

cti,2000
retract,1,HOT,1000,1500,sensor=A
`
	s, err := ReadCSV(strings.NewReader(in), "test.csv")
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 3 {
		t.Fatalf("got %d events, want 3", len(s))
	}
	if s[0].Kind != event.Insert || s[1].Kind != event.CTI || s[2].Kind != event.Retract {
		t.Errorf("kinds = %v %v %v", s[0].Kind, s[1].Kind, s[2].Kind)
	}
}

func TestReadCSVErrorsCarryLineNumbers(t *testing.T) {
	in := "insert,1,HOT,1000,inf\n# fine\nbogus line here\n"
	_, err := ReadCSV(strings.NewReader(in), "events.csv")
	if err == nil || !strings.Contains(err.Error(), "events.csv:3") {
		t.Errorf("want line-numbered error mentioning events.csv:3, got %v", err)
	}
}

// TestReadCSVLongLines is the regression test for the 64KB scanner limit:
// a ~200KB event line must parse, and a line past MaxLine must fail with a
// located error instead of a bare "token too long".
func TestReadCSVLongLines(t *testing.T) {
	big := "insert,1,WIDE,0,inf,blob=" + strings.Repeat("x", 200*1024)
	s, err := ReadCSV(strings.NewReader(big+"\n"), "wide.csv")
	if err != nil {
		t.Fatalf("200KB line rejected: %v", err)
	}
	if got := s[0].Payload["blob"].(string); len(got) != 200*1024 {
		t.Fatalf("blob truncated to %d bytes", len(got))
	}

	huge := "insert,1,WIDE,0,inf,blob=" + strings.Repeat("x", MaxLine+1)
	_, err = ReadCSV(strings.NewReader("# one\n"+huge+"\n"), "huge.csv")
	if err == nil || !strings.Contains(err.Error(), "huge.csv:2") {
		t.Errorf("over-limit line should fail with location huge.csv:2, got %v", err)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	full := event.NewInsert(9, "TRADE", 100, 900,
		event.Payload{"sym": "MSFT", "px": 27.5, "qty": int64(100), "odd": true})
	full.O = temporal.NewInterval(90, 800)
	full.C = temporal.NewInterval(5, temporal.Infinity)
	full.RT = 42
	full.CBT = []event.ID{3, 4}

	events := []event.Event{
		event.NewInsert(1, "HOT", 1000, temporal.Infinity,
			event.Payload{"sensor": "A", "armed": true, "level": 2.5, "count": int64(7), "whole": 2.0}),
		event.NewRetract(1, "HOT", 1000, 1500, event.Payload{"sensor": "A"}),
		event.NewCTI(4200),
		full,
	}
	for _, e := range events {
		data, err := MarshalJSON(e)
		if err != nil {
			t.Fatalf("marshal %v: %v", e, err)
		}
		got, err := UnmarshalJSON(data)
		if err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
		if !got.Identical(e) {
			t.Errorf("round trip %v -> %s -> %v", e, data, got)
		}
	}
}

func TestJSONDefaults(t *testing.T) {
	got, err := UnmarshalJSON([]byte(`{"kind":"insert","id":3,"type":"HOT","vs":2000,"payload":{"sensor":"B"}}`))
	if err != nil {
		t.Fatal(err)
	}
	want := event.NewInsert(3, "HOT", 2000, temporal.Infinity, event.Payload{"sensor": "B"})
	if !got.Identical(want) {
		t.Errorf("defaults: got %v, want %v", got, want)
	}
}

func TestJSONErrors(t *testing.T) {
	bad := []string{
		`{"kind":"mystery","id":1,"type":"X","vs":0}`,
		`{"kind":"insert","id":1,"vs":0}`,                                 // missing type
		`{"kind":"insert","id":1,"type":"X","vs":0,"bogus":1}`,            // unknown field
		`{"kind":"insert","id":1,"type":"X","vs":0,"ve":"soon"}`,          // bad time
		`{"kind":"insert","id":1,"type":"X","vs":0,"payload":{"a":[1]}}`,  // unsupported value
		`{"kind":"insert","id":1,"type":"X","vs":0,"payload":{"a":null}}`, // unsupported value
		`{"kind":"cti","vs":1} garbage`,                                   // trailing bytes
		`{"kind":"cti","vs":1}{"kind":"cti","vs":2}`,                      // a second object
	}
	for _, in := range bad {
		if _, err := UnmarshalJSON([]byte(in)); err == nil {
			t.Errorf("UnmarshalJSON(%s) accepted bad input", in)
		}
	}
	if e, err := UnmarshalJSON([]byte("{\"kind\":\"cti\",\"vs\":1} \r\n\t")); err != nil || !e.Identical(event.NewCTI(1)) {
		t.Errorf("an object followed by white space: %v, %v", e, err)
	}
	if _, err := MarshalJSON(event.NewInsert(1, "X", 0, temporal.Infinity,
		event.Payload{"f": math.NaN()})); err == nil {
		t.Error("NaN payload float should be rejected by the JSON form")
	}
}

func TestReadJSONStream(t *testing.T) {
	nd := `{"kind":"insert","id":1,"type":"HOT","vs":1000}
{"kind":"cti","vs":2000}`
	s, err := ReadJSONStream(strings.NewReader(nd), "nd")
	if err != nil || len(s) != 2 {
		t.Fatalf("ndjson: %v, %d events", err, len(s))
	}
	arr := `[{"kind":"insert","id":1,"type":"HOT","vs":1000},{"kind":"cti","vs":2000}]`
	s, err = ReadJSONStream(strings.NewReader(arr), "arr")
	if err != nil || len(s) != 2 {
		t.Fatalf("array: %v, %d events", err, len(s))
	}
	_, err = ReadJSONStream(strings.NewReader(`{"kind":"insert","id":1,"type":"X","vs":0}
{"kind":"nope","vs":1}`), "mix")
	if err == nil || !strings.Contains(err.Error(), "event 2") {
		t.Errorf("want indexed error for event 2, got %v", err)
	}
}

// csvStream renders n fleet events as ReadCSV input: the Machine_Id takes
// values distinct values, and with seq each event also carries its own Seq.
func csvStream(tb testing.TB, n, values int, seq bool) []byte {
	var b []byte
	for i := range n {
		p := event.Payload{"Machine_Id": fmt.Sprintf("m%05d", i%values)}
		if seq {
			p["Seq"] = int64(i)
		}
		line, err := FormatCSVLine(event.NewInsert(event.ID(i), "INSTALL", temporal.Time(i), temporal.Infinity, p))
		if err != nil {
			tb.Fatal(err)
		}
		b = append(append(b, line...), '\n')
	}
	return b
}

// TestReadCSVConcurrent: ReadCSV calls running at once take their own
// tables from the pool, and the payload maps they hand out — kept by one
// call's table, handed out by a later call's — are only ever read. Each
// decode equals the table-less one. Run it under -race.
func TestReadCSVConcurrent(t *testing.T) {
	in := csvStream(t, 2000, 192, false)
	var want []event.Event
	for _, line := range strings.Split(strings.TrimSpace(string(in)), "\n") {
		e, err := ParseCSVLine(line)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, e)
	}
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 5 {
				got, err := ReadCSV(bytes.NewReader(in), "concurrent")
				if err != nil || !reflect.DeepEqual(got, stream.Stream(want)) {
					t.Errorf("a concurrent ReadCSV decoded %d events (%v), not the %d ParseCSVLine decodes", len(got), err, len(want))
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkReadCSV is ReadCSV's sharing guard, the CSV twin of the WAL's
// BenchmarkDecodeEvents: 20,000 fleet events per decode. In "repeated" the
// Machine_Id takes 192 values, as on the fleet stream, so most payloads are
// handed out again; in "distinct" every event has its own, so every string
// value and payload lookup misses and the table adds only its cost; in
// "mixed" the Machine_Id repeats but each event also carries its own Seq,
// so every payload misses while its strings hit; "one-line" is an
// HTTP-sized batch of one event. Compare allocs/op and ns/op with
// -benchmem -cpu 1.
func BenchmarkReadCSV(b *testing.B) {
	for _, c := range []struct {
		name      string
		n, values int
		seq       bool
	}{{"repeated", 20000, 192, false}, {"distinct", 20000, 20000, false}, {"mixed", 20000, 192, true}, {"one-line", 1, 1, false}} {
		b.Run(c.name, func(b *testing.B) {
			in := csvStream(b, c.n, c.values, c.seq)
			for b.Loop() {
				if _, err := ReadCSV(bytes.NewReader(in), "bench"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
