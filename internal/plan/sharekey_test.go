package plan

import (
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

func shareKey(t *testing.T, src string, opts ...Option) string {
	t.Helper()
	p, err := Compile(src, opts...)
	if err != nil {
		t.Fatal(err)
	}
	k, ok := p.ShareKey()
	if !ok {
		t.Fatalf("no share key for %q", src)
	}
	return k
}

func bindings(id string) Option {
	return WithBindings(map[string]event.Value{"m": id})
}

// TestShareKeyIdentity: the sharing identity must separate every
// configuration that changes execution — source, spec, shards, bindings —
// and nothing else.
func TestShareKeyIdentity(t *testing.T) {
	base := shareKey(t, shareSrc)
	if again := shareKey(t, shareSrc); again != base {
		t.Error("identical compile produced a different share key")
	}
	distinct := map[string]string{
		"spec":   shareKey(t, shareSrc, WithSpec(consistency.Strong())),
		"shards": shareKey(t, shareSrc, WithShards(4)),
	}
	for label, k := range distinct {
		if k == base {
			t.Errorf("%s variant shares the base identity", label)
		}
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
}

// TestShareKeyRefusesHandBuilt: a plan without source text has no durable
// identity and must never share.
func TestShareKeyRefusesHandBuilt(t *testing.T) {
	p, err := Compile(shareSrc)
	if err != nil {
		t.Fatal(err)
	}
	bare := &Plan{Name: "bare", Stages: p.Stages, Spec: p.Spec, Share: true}
	if k, ok := bare.ShareKey(); ok {
		t.Errorf("hand-built plan got share key %q", k)
	}
}

// TestTemplateCompileCache: instances of one template share one parse and
// analysis per binding set, and the plan carries the routing metadata.
func TestTemplateCompileCache(t *testing.T) {
	p1, err := Compile(shareTmpl, bindings("m042"), WithSharing())
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Compile(shareTmpl, bindings("m042"), WithSharing())
	if err != nil {
		t.Fatal(err)
	}
	if !p1.Share || !p2.Share {
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

	d, ok := p1.Durable()
	if !ok {
		t.Fatal("template plan not durable")
	}
	if !d.Share || d.Bindings["m"] != "m042" {
		t.Errorf("durable form lost sharing/bindings: %+v", d)
	}
	p3, err := Compile(d.Src, d.Options()...)
	if err != nil {
		t.Fatal(err)
	}
	k1, _ := p1.ShareKey()
	k3, _ := p3.ShareKey()
	if k1 != k3 {
		t.Error("durable round trip changed the share key")
	}
}
