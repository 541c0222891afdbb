package operators_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/algebra"
	"repro/internal/algebra/inc"
	"repro/internal/event"
	"repro/internal/operators"
	"repro/internal/temporal"
)

// The Versioned contract, checked the same way for every implementation:
// each trial drives a random aligned Process/Advance script through the
// operator under test and, in lock step, through a twin that is only ever
// cloned. Marks pair a Version with a frozen Clone of the twin; a Rollback
// must leave the operator indistinguishable — step for step, in output and
// StateSize — from a fresh Clone of the frozen copy. Versions invalidated by
// a deeper Rollback or dropped by Compact must be refused with state
// untouched — at every later step, however many versions were marked since
// — and a version at or above a Compact point must stay usable.

var seqEE = algebra.SequenceExpr{Kids: []algebra.Expr{
	algebra.TypeExpr{Type: "E", Alias: "a"},
	algebra.TypeExpr{Type: "E", Alias: "b"},
}, W: 25}

func sameG(l, r event.Payload) bool { return event.ValueEqual(l["g"], r["g"]) }

// foreign hides every method but Op's, so AsVersioned falls back to clones.
type foreign struct{ operators.Op }

func (f foreign) Clone() operators.Op { return foreign{f.Op.Clone()} }

func versionedImpls() map[string]func() operators.Op {
	return map[string]func() operators.Op{
		"inc":        func() operators.Op { return inc.NewOp(seqEE, algebra.SCMode{}, "out") },
		"count-by-g": func() operators.Op { return operators.NewAggregate(operators.Count, "", "g") },
		"avg":        func() operators.Op { return operators.NewAggregate(operators.Avg, "x", "") },
		"window":     func() operators.Op { return operators.Window(15) },
		"deletes":    func() operators.Op { return operators.Deletes() },
		"difference": func() operators.Op { return operators.NewDifference() },
		"join":       func() operators.Op { return operators.NewJoin(sameG) },
		"adapter-oracle": func() operators.Op {
			return algebra.NewPatternOp(seqEE, algebra.SCMode{}, "out")
		},
		"adapter-foreign-join": func() operators.Op { return foreign{operators.NewJoin(sameG)} },
	}
}

// vDriver generates an aligned script: every event's Sync is at or after
// the last Advance. Its fields are the whole generator state, so a mark can
// save it by value (live is copied) and a rollback can resume from there.
type vDriver struct {
	frontier temporal.Time
	nextID   event.ID
	live     []event.Event // inserts still retractable
}

func (d *vDriver) save() vDriver {
	c := *d
	c.live = append([]event.Event(nil), d.live...)
	return c
}

type vMark struct {
	v      operators.Version
	frozen operators.Op
	drv    vDriver
}

type vRun struct {
	t     *testing.T
	label string
	op    operators.Versioned
	twin  operators.Op
	marks []vMark
	dead  []vMark // every version a Rollback or Compact invalidated
	drv   vDriver
	step  int
}

func (r *vRun) check(what string, got, want []event.Event) {
	r.t.Helper()
	if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
		r.t.Fatalf("%s step %d %s: output diverges from the clone\n got: %v\nwant: %v",
			r.label, r.step, what, got, want)
	}
	if g, w := r.op.StateSize(), r.twin.StateSize(); g != w {
		r.t.Fatalf("%s step %d %s: StateSize %d, clone has %d", r.label, r.step, what, g, w)
	}
}

func (r *vRun) process(port int, e event.Event) {
	want := append([]event.Event(nil), r.twin.Process(port, e)...)
	r.check("process", r.op.Process(port, e), want)
}

func (r *vRun) rollTo(j int) {
	r.t.Helper()
	if !r.op.Rollback(r.marks[j].v) {
		r.t.Fatalf("%s step %d: rollback to live version %d of %d refused", r.label, r.step, j, len(r.marks))
	}
	r.dead = append(r.dead, r.marks[j+1:]...)
	r.marks = r.marks[:j+1]
	r.twin = r.marks[j].frozen.Clone()
	r.drv = r.marks[j].drv.save()
	r.check("rollback", nil, nil)
	r.refuse()
}

// refuse asserts that none of the invalidated versions can be rolled back
// to and that trying leaves the operator where it was.
func (r *vRun) refuse() {
	r.t.Helper()
	for _, d := range r.dead {
		if r.op.Rollback(d.v) {
			r.t.Fatalf("%s step %d: rollback to invalidated version %v succeeded", r.label, r.step, d.v)
		}
	}
	r.check("refused rollback", nil, nil)
}

func driveVersioned(t *testing.T, label string, mk func() operators.Op, rng *rand.Rand, steps int) {
	r := &vRun{t: t, label: label, op: operators.AsVersioned(mk()), twin: mk(),
		drv: vDriver{nextID: 1}}
	ports := r.op.Arity()
	mark := func() {
		r.marks = append(r.marks, vMark{v: r.op.Mark(), frozen: r.twin.Clone(), drv: r.drv.save()})
	}
	mark() // genesis: journaling is on from the first event
	for r.step = 0; r.step < steps; r.step++ {
		d := &r.drv
		switch k := rng.Intn(20); {
		case k < 9: // insert
			vs := d.frontier.Add(temporal.Duration(rng.Intn(5)))
			ve := vs.Add(temporal.Duration(rng.Intn(30) + 1))
			if rng.Intn(8) == 0 {
				ve = temporal.Infinity
			}
			e := event.NewInsert(d.nextID, "E", vs, ve, event.Payload{
				"g": int64(rng.Intn(3)), "x": float64(rng.Intn(40)) / 4})
			d.nextID++
			d.live = append(d.live, e)
			r.process(int(e.ID)%ports, e)
		case k < 12 && len(d.live) > 0: // retract: shrink, or remove outright
			j := rng.Intn(len(d.live))
			v := d.live[j]
			lo := temporal.Max(v.V.Start, d.frontier)
			if lo >= v.V.End {
				continue
			}
			end := lo
			if span := int64(v.V.End.Sub(lo)); !v.V.End.IsInfinite() && rng.Intn(2) == 0 {
				end = lo.Add(temporal.Duration(rng.Int63n(span)))
			}
			if end == v.V.Start {
				d.live = append(d.live[:j], d.live[j+1:]...)
			} else {
				d.live[j].V.End = end
			}
			r.process(int(v.ID)%ports, event.NewRetract(v.ID, "E", v.V.Start, end, v.Payload))
		case k < 15: // advance
			d.frontier = d.frontier.Add(temporal.Duration(rng.Intn(12)))
			want := append([]event.Event(nil), r.twin.Advance(d.frontier)...)
			r.check("advance", r.op.Advance(d.frontier), want)
		case k < 17:
			mark()
		case k < 19: // rewind, as repair does; the version must survive reuse
			j := rng.Intn(len(r.marks))
			r.rollTo(j)
			if rng.Intn(2) == 0 {
				r.rollTo(j)
			}
		default: // compact, as checkpointing does below its base
			j := rng.Intn(len(r.marks))
			r.op.Compact(r.marks[j].v)
			r.dead = append(r.dead, r.marks[:j]...)
			r.marks = r.marks[j:]
			if rng.Intn(2) == 0 {
				r.rollTo(rng.Intn(len(r.marks)))
			}
		}
		r.refuse()
	}
	r.rollTo(0)
}

func TestVersionedContract(t *testing.T) {
	for name, mk := range versionedImpls() {
		for trial := 0; trial < 6; trial++ {
			seed := int64(5100 + 17*trial)
			driveVersioned(t, fmt.Sprintf("%s seed=%d", name, seed), mk,
				rand.New(rand.NewSource(seed)), 500)
		}
	}
}
