package plan

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/consistency"
	"repro/internal/event"
)

const shareSrc = `
EVENT MissedRestart
WHEN UNLESS(SEQUENCE(INSTALL x, SHUTDOWN AS y, 12 hours),
            RESTART AS z, 5 minutes)
WHERE CorrelationKey(Machine_Id, EQUAL)
SC(each, consume)
`

const shareTmpl = `
EVENT MissedRestart
WHEN UNLESS(SEQUENCE(INSTALL x, SHUTDOWN AS y, 12 hours),
            RESTART AS z, 5 minutes)
WHERE CorrelationKey(Machine_Id, EQUAL) AND [Machine_Id Equal $m]
SC(each, consume)
`

func shareKey(t *testing.T, src string, opts ...Option) Key {
	t.Helper()
	r, err := Prepare(src, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return r.Key
}

func bindings(id string) Option {
	return WithBindings(map[string]event.Value{"m": id})
}

// TestShareKeyIdentity: the sharing identity must separate every
// configuration that changes execution — source, spec, bindings — and
// nothing else; a shard count changes only speed, so it shares.
func TestShareKeyIdentity(t *testing.T) {
	base := shareKey(t, shareSrc)
	if again := shareKey(t, shareSrc); again != base {
		t.Error("identical compile produced a different share key")
	}
	if shareKey(t, shareSrc, WithSpec(consistency.Strong())) == base {
		t.Error("spec variant shares the base identity")
	}
	if shareKey(t, shareSrc, WithShards(4)) != base {
		t.Error("shards variant has its own identity; a shard count must share")
	}
	b0 := shareKey(t, shareTmpl, bindings("m000"))
	b0again := shareKey(t, shareTmpl, bindings("m000"))
	b1 := shareKey(t, shareTmpl, bindings("m001"))
	if b0 != b0again {
		t.Error("same bindings produced different share keys")
	}
	if b0 == b1 {
		t.Error("different bindings share an identity")
	}
	if b0 == base {
		t.Error("bound template shares the unbound query's identity")
	}
	// The dynamic type is part of the identity: values event.ValueEqual
	// calls equal still build different chains.
	typed := map[Key]string{}
	for _, v := range []event.Value{int64(1), int(1), float64(1), "1", true} {
		k := shareKey(t, shareTmpl, WithBindings(map[string]event.Value{"m": v}))
		if prev, dup := typed[k]; dup {
			t.Errorf("%T(%v) shares an identity with %s", v, v, prev)
		}
		typed[k] = fmt.Sprintf("%T(%v)", v, v)
	}
}

// TestShareKeyCollidingBindings: two binding sets whose values spell out
// each other's boundaries (both once rendered "a=string:m1;b=string:z;
// b=string:q") are two identities, and each gets its own analysis — its
// own route key — from the compile cache.
func TestShareKeyCollidingBindings(t *testing.T) {
	const tmpl = `EVENT E WHEN SEQUENCE(A x, B y, 10) WHERE [m Equal $a] AND {y.n = $b}`
	sets := []map[string]event.Value{
		{"a": "m1;b=string:z", "b": "q"},
		{"a": "m1", "b": "z;b=string:q"},
	}
	var keys []Key
	for _, b := range sets {
		r, err := Prepare(tmpl, WithBindings(b))
		if err != nil {
			t.Fatal(err)
		}
		if p := r.Plan(); p.RouteKeyAttr != "m" || p.RouteKeyVal != b["a"] {
			t.Errorf("bindings %v: route key (%s, %v), want (m, %v)", b, p.RouteKeyAttr, p.RouteKeyVal, b["a"])
		}
		keys = append(keys, r.Key)
	}
	if keys[0] == keys[1] {
		t.Error("colliding binding sets share an identity")
	}
}

// TestPrepareIsCompileWithoutStages: Prepare builds no plan, and its Plan
// is the compiled plan — same identity, spec, rewrites, verdict, routing
// metadata and stage chain — as is Fresh of either.
func TestPrepareIsCompileWithoutStages(t *testing.T) {
	for _, c := range []struct {
		src  string
		opts []Option
	}{
		{shareSrc, nil},
		{shareSrc, []Option{WithSpec(consistency.Strong()), WithShards(4), WithSharing()}},
		{shareTmpl, []Option{bindings("m007"), WithSharing()}},
		{`EVENT E WHEN SEQUENCE(A a, B b, 10) WHERE CorrelationKey(m, EQUAL) OUTPUT a.x # [0, 100)`, nil},
	} {
		want, err := Compile(c.src, c.opts...)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Prepare(c.src, c.opts...)
		if err != nil {
			t.Fatal(err)
		}
		if r.Key.Src != want.Src || r.Key.Spec != want.Spec || r.Opts.Shards != want.Shards {
			t.Errorf("%q: prepared %+v, %+v; compiled %q %+v, %d shards", c.src, r.Key, r.Opts, want.Src, want.Spec, want.Shards)
		}
		p := r.Plan()
		stageNames := func(q *Plan) (names []string) {
			for _, s := range q.Stages {
				names = append(names, fmt.Sprintf("%T %s", s, s.Name()))
			}
			return names
		}
		for _, q := range append([]*Plan(nil), p, p.Fresh(), want.Fresh()) {
			if !reflect.DeepEqual(stageNames(q), stageNames(want)) {
				t.Errorf("a prepared registration built %v, Compile %v", stageNames(q), stageNames(want))
			}
		}
		p.Stages, want.Stages = nil, nil
		if !reflect.DeepEqual(p, want) {
			t.Errorf("%q: prepared plan\n%+v\nwant the compiled one\n%+v", c.src, p, want)
		}
	}
	if _, err := Prepare(`EVENT broken WHEN`); err == nil {
		t.Error("Prepare accepted what Compile refuses")
	}
}

// TestTemplateCompileCache: instances of one template share one parse and
// analysis per binding set, and the plan carries the routing metadata.
func TestTemplateCompileCache(t *testing.T) {
	p1, err := Compile(shareTmpl, bindings("m042"), WithSharing())
	if err != nil {
		t.Fatal(err)
	}
	r, err := Prepare(shareTmpl, bindings("m042"), WithSharing())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Opts.Share {
		t.Error("WithSharing not recorded")
	}
	if p1.RouteKeyAttr != "Machine_Id" || p1.RouteKeyVal != "m042" {
		t.Errorf("route key = (%s, %v), want (Machine_Id, m042)", p1.RouteKeyAttr, p1.RouteKeyVal)
	}
	if len(p1.RouteTypes) != 3 {
		t.Errorf("route types = %v, want INSTALL/SHUTDOWN/RESTART", p1.RouteTypes)
	}
	if _, err := Compile(shareTmpl); err == nil {
		t.Error("template compiled without bindings")
	}

	d := r.Opts
	if !d.Share || d.Bindings["m"] != "m042" {
		t.Errorf("durable form lost sharing/bindings: %+v", d)
	}
	if shareKey(t, p1.Src, WithRegOpts(d)) != shareKey(t, shareTmpl, bindings("m042"), WithSharing()) {
		t.Error("durable round trip changed the share key")
	}
}
