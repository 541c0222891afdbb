// Package event defines the CEDR event model: the tritemporal event header
// from Section 2 of the paper — (ID, Vs, Ve, Os, Oe, Cs, Ce, Rt, cbt[];
// payload) — together with event kinds (inserts, retractions, CTI
// punctuations), payloads, and the idgen pairing function used by operators
// to mint output IDs.
package event

import (
	"fmt"
	"reflect"
	"slices"
	"strings"

	"repro/internal/temporal"
)

// ID identifies an event. Modifications of the same logical fact share an ID
// (Section 2); operators derive output IDs from input IDs via Pair.
type ID uint64

// Kind classifies stream items.
type Kind uint8

const (
	// Insert introduces a new fact (or, for a bitemporal modification
	// stream, a new version of a fact under an existing ID).
	Insert Kind = iota
	// Retract shortens the lifetime of a previously inserted fact — the
	// Section 6 unitemporal retraction whose Ve is reduced, or the Section 4
	// tritemporal retraction whose Oe is reduced.
	Retract
	// CTI (current-time-increment) is the punctuation carrying an
	// occurrence-time guarantee: no subsequent event on the stream will have
	// Sync() earlier than the CTI's timestamp. The paper calls these
	// "guarantees on input time" / provider-declared sync points.
	CTI
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Insert:
		return "insert"
	case Retract:
		return "retract"
	case CTI:
		return "cti"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is a stream item. The field names follow the conceptual schema of
// the paper: V is the validity interval [Vs, Ve), O the occurrence interval
// [Os, Oe), C the CEDR-time interval [Cs, Ce). Type carries the event type
// name used by the pattern language ("INSTALL", "SHUTDOWN", ...). RT is the
// root time and CBT the contributor lineage of composite events (§3.3.1).
//
// In the Section 6 unitemporal run-time setting, occurrence and valid time
// are merged: operators read and write V only, and retractions reduce V.End
// of the entry sharing the same ID.
type Event struct {
	ID   ID
	Kind Kind
	Type string

	V temporal.Interval // valid time [Vs, Ve)
	O temporal.Interval // occurrence time [Os, Oe)
	C temporal.Interval // CEDR (system) time [Cs, Ce)

	RT  temporal.Time // root time: min root time over contributors
	CBT []ID          // contributor lineage, ordered (nil for primitive events)

	Payload Payload
}

// NewInsert builds a unitemporal insert event: valid for [vs, ve), occurring
// at vs (the run-time setting of §6 merges occurrence into valid time).
func NewInsert(id ID, typ string, vs, ve temporal.Time, p Payload) Event {
	return Event{
		ID:      id,
		Kind:    Insert,
		Type:    typ,
		V:       temporal.NewInterval(vs, ve),
		O:       temporal.NewInterval(vs, temporal.Infinity),
		RT:      vs,
		Payload: p,
	}
}

// NewRetract builds a unitemporal retraction: the event identified by id has
// its valid end time reduced to newVE. A retraction with newVE == Vs removes
// the fact entirely.
func NewRetract(id ID, typ string, vs, newVE temporal.Time, p Payload) Event {
	return Event{
		ID:      id,
		Kind:    Retract,
		Type:    typ,
		V:       temporal.NewInterval(vs, newVE),
		O:       temporal.NewInterval(vs, temporal.Infinity),
		RT:      vs,
		Payload: p,
	}
}

// NewCTI builds a punctuation promising that no later item on this stream
// will carry a Sync time earlier than t.
func NewCTI(t temporal.Time) Event {
	return Event{Kind: CTI, V: temporal.From(t), O: temporal.From(t)}
}

// IsCTI reports whether the item is punctuation rather than data.
func (e Event) IsCTI() bool { return e.Kind == CTI }

// Sync is the annotated-history-table Sync attribute of Section 4: Os for
// insertions, Oe for retractions. In the unitemporal setting it degenerates
// to Vs for inserts and the (new) Ve for retractions. CTIs synchronize at
// their guarantee time.
func (e Event) Sync() temporal.Time {
	switch e.Kind {
	case Retract:
		return e.V.End
	case CTI:
		return e.V.Start
	default:
		return e.V.Start
	}
}

// Clone returns a deep copy of the event (lineage and payload included).
func (e Event) Clone() Event {
	out := e
	if e.CBT != nil {
		out.CBT = append([]ID(nil), e.CBT...)
	}
	if e.Payload != nil {
		out.Payload = e.Payload.Clone()
	}
	return out
}

// Identical reports whether two events are equal on every attribute,
// including CEDR time and lineage (payloads compared structurally, with a
// shared-backing short-circuit). The consistency monitor uses it to detect
// replay outputs that reproduce a previously emitted fact exactly.
func (e Event) Identical(o Event) bool {
	if e.ID != o.ID || e.Kind != o.Kind || e.Type != o.Type ||
		e.V != o.V || e.O != o.O || e.C != o.C || e.RT != o.RT ||
		len(e.CBT) != len(o.CBT) {
		return false
	}
	if len(e.CBT) > 0 && &e.CBT[0] != &o.CBT[0] {
		for i := range e.CBT {
			if e.CBT[i] != o.CBT[i] {
				return false
			}
		}
	}
	return e.Payload.Equal(o.Payload)
}

// SameFact reports whether two events describe the same logical content,
// ignoring CEDR time — the projection used by logical equivalence
// (Definition 1 projects out Cs and Ce).
func (e Event) SameFact(o Event) bool {
	return e.ID == o.ID && e.Kind == o.Kind && e.Type == o.Type &&
		e.V == o.V && e.O == o.O && e.Payload.Equal(o.Payload)
}

// String renders a compact single-line description.
func (e Event) String() string {
	if e.IsCTI() {
		return fmt.Sprintf("CTI(%s)", e.V.Start)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s#%d %s V=%s", e.Kind, e.ID, e.Type, e.V)
	if e.O.Start != e.V.Start || !e.O.End.IsInfinite() {
		fmt.Fprintf(&b, " O=%s", e.O)
	}
	if len(e.Payload) > 0 {
		fmt.Fprintf(&b, " %s", e.Payload)
	}
	return b.String()
}

// Payload is the event body: a bag of named values. The paper treats the
// payload as opaque to operator definitions; predicates from the WHERE
// clause and instance transformation in the OUTPUT clause read and write it.
type Payload map[string]Value

// Value is a payload attribute value. Supported dynamic types are int64,
// float64, string and bool; Equal and Less define cross-type comparison where
// it is meaningful (int64 vs float64).
type Value any

// Clone copies the payload.
func (p Payload) Clone() Payload {
	if p == nil {
		return nil
	}
	out := make(Payload, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}

// Equal reports content equality: the same names, values ValueEqual or both
// NaN, so a payload equals its copy whether or not they share a map.
// Predicates compare with ValueEqual, where NaN equals nothing.
func (p Payload) Equal(o Payload) bool {
	// Payloads are immutable by operator contract and widely shared by
	// shallow event copies, so identical backing means equal — an O(1)
	// fast path the consistency monitor's repair diff leans on.
	if p.shares(o) {
		return true
	}
	if len(p) != len(o) {
		return false
	}
	for k, v := range p {
		w, ok := o[k]
		if !ok || !ValueEqual(v, w) && !(isNaN(v) && isNaN(w)) {
			return false
		}
	}
	return true
}

func isNaN(v Value) bool { f, ok := v.(float64); return ok && f != f }

// shares reports whether two payloads use the same backing map — a word
// compare of the map pointers.
func (p Payload) shares(o Payload) bool {
	if p == nil || o == nil {
		return p == nil && o == nil
	}
	return reflect.ValueOf(p).Pointer() == reflect.ValueOf(o).Pointer()
}

// Key returns a deterministic canonical string for the payload, used to
// compare and hash payloads when checking logical equivalence and
// coalescing.
func (p Payload) Key() string {
	if len(p) == 0 {
		return ""
	}
	var names [8]string
	var b strings.Builder
	for i, k := range SortedNames(names[:0], p) {
		if i > 0 {
			b.WriteByte('|')
		}
		fmt.Fprintf(&b, "%s=%v", k, p[k])
	}
	return b.String()
}

// SortedNames appends p's names to dst in ascending order, the order every
// encoder writes a payload in. Pass a stack array's names[:0] to keep small
// payloads off the heap.
func SortedNames(dst []string, p Payload) []string {
	n := len(dst)
	for k := range p {
		dst = append(dst, k)
	}
	slices.Sort(dst[n:])
	return dst
}

// String renders the payload deterministically.
func (p Payload) String() string { return "{" + p.Key() + "}" }

// ValueEqual compares two payload values, treating int64 and float64 as the
// same numeric domain.
func ValueEqual(a, b Value) bool {
	af, aNum := asFloat(a)
	bf, bNum := asFloat(b)
	if aNum && bNum {
		return af == bf
	}
	return a == b
}

// ValueLess orders two payload values of the same (numeric or string)
// domain. It reports false for incomparable pairs.
func ValueLess(a, b Value) bool {
	af, aNum := asFloat(a)
	bf, bNum := asFloat(b)
	if aNum && bNum {
		return af < bf
	}
	as, aok := a.(string)
	bs, bok := b.(string)
	if aok && bok {
		return as < bs
	}
	return false
}

func asFloat(v Value) (float64, bool) {
	switch x := v.(type) {
	case int:
		return float64(x), true
	case int64:
		return float64(x), true
	case float64:
		return x, true
	default:
		return 0, false
	}
}

// Num converts a numeric payload value to float64; ok is false for
// non-numeric values.
func Num(v Value) (f float64, ok bool) { return asFloat(v) }
