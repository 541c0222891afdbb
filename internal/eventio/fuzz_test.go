package eventio

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/event"
	"repro/internal/stream"
)

// FuzzParseEvent fuzzes the two decoders of untrusted bytes at the system's
// edges: a CSV line (the cedr CLI's input) and a JSON event object (the HTTP
// surface's). Whatever the input, neither may panic or allocate more than a
// constant times its length (see entryBytes), and an event either accepts
// must survive its own format's encoder (FormatCSVLine, MarshalJSON) and a
// second decode unchanged — value types exact, floats compared by their
// bits (NaN equal to NaN, −0 not equal to 0), a missing payload equal to an
// empty one. FormatCSVLine may refuse instead, as documented, a string the
// CSV form cannot carry (a comma, a newline, a quote in a string that needs
// quoting); it may never change one.
//
// An accepted CSV line ReadCSV would read as one line, and an accepted JSON
// object, are also decoded through a payload table by their stream reader
// (ReadCSV's, ReadJSONStream's), as a three-event stream: the first copy
// misses, the second misses again and is kept, the third is handed the kept
// map. The stream goes through a fresh table, one pre-filled with every
// seed of its format, and the zero table (one slot) holding each seed in
// turn; every event must be the table-less decoder's, bit for bit, no
// decode may change a payload handed out earlier, and a payload whose text
// fits the table must be shared from the third copy on. The hit rule —
// a kept map is handed out again only for the very text it was decoded
// from — rests on each codec decoding a text deterministically. The
// committed seeds cover both formats and texts the table must tell apart,
// and run under plain `go test`; CI fuzzes it with
//
//	go test -run '^$' -fuzz '^FuzzParseEvent$' -fuzztime 30s ./internal/eventio
func FuzzParseEvent(f *testing.F) {
	seeds := []string{
		"insert,1,HOT,1000,inf,sensor=A,t=71.5,n=-2,ok=true,q='17',w=2.0,nan=NaN",
		"retract,7,COOL,1000,2000,sensor=A",
		"cti,5000",
		"INSERT , 3 , X , -5 , ∞ ,  a = b , ,",
		`{"kind":"insert","id":1,"type":"HOT","vs":1000,"ve":"inf","payload":{"sensor":"A","armed":true,"t":71.5,"n":-2,"w":2.0}}`,
		`{"kind":"retract","id":2,"type":"COOL","vs":5,"ve":9,"os":3,"oe":"-inf","cs":1,"ce":2,"rt":4,"cbt":[1,2]}`,
		`{"kind":"cti","vs":7}`,
		`{"kind":"cti","vs":1} garbage`, // accepted, with the garbage ignored, before trailing bytes were refused
	}
	// Payload texts a table must tell apart: duplicate names, unsorted and
	// padded fields (not FormatCSVLine's form, so they must miss), a quoted
	// and a bare 17, −0 and 0 in four spellings, NaN, 2 beside 2.0, no
	// payload, and texts of 64 and 65 bytes on either side of the table's
	// bound.
	for _, text := range []string{
		"a=1,a=2", "b=1,a=1", " a=1", "a=1 ,b=2", "a= 1", "q='17'", "q=17",
		"f=-0", "f=-0.0", "f=0", "f=0.0", "f=NaN", "w=2", "w=2.0", "",
		"a=" + strings.Repeat("x", event.SharedMax-2), "a=" + strings.Repeat("x", event.SharedMax-1),
	} {
		seeds = append(seeds, strings.TrimSuffix("insert,9,T,0,inf,"+text, ","))
	}
	// JSON payload texts a table must tell apart: 1 beside 1.0 and "1",
	// duplicate and reordered names, white space, null, an empty object,
	// and texts on either side of the bound.
	var objects []string
	for _, text := range []string{
		`{"n":1}`, `{"n":1.0}`, `{"n":"1"}`, `{"a":1,"a":2}`, `{"b":1,"a":1}`, `{"a":1,"b":1}`,
		`{ "a":1}`, `{"f":-0}`, `{"f":0}`, `null`, `{}`,
		`{"a":"` + strings.Repeat("x", event.SharedMax-8) + `"}`, `{"a":"` + strings.Repeat("x", event.SharedMax-7) + `"}`,
	} {
		objects = append(objects, `{"kind":"insert","id":9,"type":"T","vs":0,"payload":`+text+`}`)
	}
	var csvSeeds, jsonSeeds []string // the seeds each stream reader reads as one event, for the pre-filled tables
	for _, s := range append(seeds, objects...) {
		if _, err := ParseCSVLine(s); err == nil {
			csvSeeds = append(csvSeeds, s)
		}
		if _, err := UnmarshalJSON([]byte(s)); err == nil {
			jsonSeeds = append(jsonSeeds, s)
		}
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	// A rejected field echoed whole in the error used to cost 35 times its
	// length (strconv's quoting, then fmt's copies).
	f.Add([]byte(",0,,0," + strings.Repeat("\x1c", 300)))
	// Neither a line nor an object: invalid UTF-8 the CSV kind used to be
	// lower-cased from, each byte becoming a three-byte U+FFFD.
	f.Add([]byte("\"\x80" + strings.Repeat("\xb6", 2000) + "\""))
	// A line of commas: splitting it into fields cost 16 bytes a comma.
	f.Add([]byte(",\xc20\xca\xc8\xc8" + strings.Repeat(",", 2572)))
	// The densest wide payload: distinct two-byte names, empty values.
	var wide strings.Builder
	wide.WriteString("insert,1,W,0,inf")
	for i := range 4000 {
		fmt.Fprintf(&wide, ",%c%c=", '!'+i%90, '!'+i/90)
	}
	f.Add([]byte(wide.String()))
	for _, s := range objects {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		line := string(data)
		entries := bytes.Count(data, []byte("=")) + bytes.Count(data, []byte(":"))
		if n, bound := parseBytes(line, data), 16*uint64(len(data))+4096+entryBytes*uint64(entries); n > bound {
			t.Fatalf("decoding %d bytes allocated %d (bound %d)", len(data), n, bound)
		}
		if e, err := ParseCSVLine(line); err == nil {
			if s, err := FormatCSVLine(e); err == nil {
				back, err := ParseCSVLine(s)
				if err != nil || !sameEvent(back, e) {
					t.Fatalf("CSV round trip %q -> %q changed the event\n got %#v (%v)\nwant %#v", line, s, back, err, e)
				}
			}
			if !strings.Contains(line, "\n") {
				checkShared(t, csvCodec, line, e, csvSeeds)
			}
		}
		if e, err := UnmarshalJSON(data); err == nil {
			b, err := MarshalJSON(e)
			if err != nil {
				t.Fatalf("accepted JSON %s (%v) does not re-encode: %v", data, e, err)
			}
			back, err := UnmarshalJSON(b)
			if err != nil || !sameEvent(back, e) {
				t.Fatalf("JSON round trip %s -> %s changed the event\n got %#v (%v)\nwant %#v", data, b, back, err, e)
			}
			checkShared(t, jsonCodec, line, e, jsonSeeds)
		}
	})
}

// A codec is one edge format as checkShared drives it: its stream reader
// through a given table, and the payload text of an input it accepts.
type codec struct {
	read func(io.Reader, string, *event.Table) (stream.Stream, error)
	text func(in string) string
}

var (
	csvCodec  = codec{readCSV, func(line string) string { return append(strings.SplitN(line, ",", 6), "")[5] }}
	jsonCodec = codec{readJSON, func(obj string) string {
		var je jsonEvent
		json.Unmarshal([]byte(obj), &je) // accepted, so it unmarshals
		return string(je.Payload)
	}}
)

// checkShared decodes in, which c's one-event decoder decodes to want, as
// a three-event stream through a fresh table, a table pre-filled with every
// input of prefill (each read twice, so kept), and the zero table after
// each prefill input in turn.
func checkShared(t *testing.T, c codec, in string, want event.Event, prefill []string) {
	var handed, copies []event.Event // every event handed out, and a copy taken when it was
	read := func(what string, tab *event.Table, ins ...string) []event.Event {
		s, err := c.read(strings.NewReader(strings.Join(ins, "\n")), "fuzz", tab)
		if err != nil {
			t.Fatalf("through %s: the stream reader refused an input the one-event decoder accepts: %v", what, err)
		}
		for _, e := range s {
			handed, copies = append(handed, e), append(copies, exact(e))
		}
		return s
	}
	check := func(what string, got []event.Event) {
		for i, e := range got[len(got)-3:] {
			if !sameEvent(e, want) {
				t.Fatalf("copy %d of %q through %s decoded\n %#v\nwant\n %#v", i, in, what, e, want)
			}
		}
	}
	fresh := read("a fresh table", event.NewTable(), in, in, in)
	check("a fresh table", fresh)
	if !want.IsCTI() && want.Payload != nil && len(c.text(in)) <= event.SharedMax &&
		reflect.ValueOf(fresh[1].Payload).UnsafePointer() != reflect.ValueOf(fresh[2].Payload).UnsafePointer() {
		t.Fatalf("%q, whose payload text fits the table, was not handed its kept payload at its third decode", in)
	}
	filled := event.NewTable()
	for _, p := range prefill {
		read("a pre-filled table", filled, p, p)
	}
	check("a pre-filled table", read("a pre-filled table", filled, in, in, in))
	var zero event.Table
	for _, p := range prefill {
		check(fmt.Sprintf("the zero table holding %q", p), read("the zero table", &zero, p, p, in, in, in))
	}
	for i, e := range handed {
		if !reflect.DeepEqual(exact(e), copies[i]) {
			t.Fatalf("a later decode changed event %d handed out:\n %#v\nwas\n %#v", i, exact(e), copies[i])
		}
	}
}

// entryBytes is what the allocation bound allows per '=' or ':' of the input,
// an upper bound on the payload entries either decoder builds. An entry is a
// Go map slot — up to ~75 B once the table rounds its size up, twice that
// while it grows — plus its strings and boxes: up to ~260 B, against a CSV
// field as short as 3 bytes (`k=,`) or a JSON member of 6, so 16 times the
// input cannot pay for a dense payload. What the bound still rules out is
// allocation no entry pays for, such as an error echoing its input.
const entryBytes = 320

// parseBytes is the heap bytes one decode of the input in each format
// allocates: the least of three measurements, since a fuzz worker's own
// goroutines allocate beside the decoders.
func parseBytes(line string, data []byte) uint64 {
	least := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for range 3 {
		runtime.ReadMemStats(&before)
		ParseCSVLine(line)
		UnmarshalJSON(data)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// sameEvent is reflect.DeepEqual — which compares payload values' dynamic
// types — with floats compared by their bits and a nil payload equal to an
// empty one.
func sameEvent(a, b event.Event) bool {
	return reflect.DeepEqual(exact(a), exact(b))
}

type bits uint64

// exact copies e with its payload's floats replaced by their bits; a nil
// payload for an empty one.
func exact(e event.Event) event.Event {
	p := e.Payload
	e.Payload = nil
	for k, v := range p {
		if e.Payload == nil {
			e.Payload = make(event.Payload, len(p))
		}
		if f, ok := v.(float64); ok {
			v = bits(math.Float64bits(f))
		}
		e.Payload[k] = v
	}
	return e
}
