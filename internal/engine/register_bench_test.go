package engine

import (
	"testing"

	"repro/internal/plan"
)

// BenchmarkRegisterShared times a registration that attaches to a running
// chain, the fabric's common case, for a plain query and a template
// instance. Each engine takes 1024 attaches and is replaced outside the
// timer, so its registration list stays small whatever b.N is.
func BenchmarkRegisterShared(b *testing.B) {
	for _, c := range []struct {
		name, src string
		opts      []plan.Option
	}{
		{"plain", monitorQuery, []plan.Option{plan.WithSharing()}},
		{"template", keyedTemplate, []plan.Option{bindM("m042"), plan.WithSharing()}},
	} {
		b.Run(c.name, func(b *testing.B) {
			register := func(e *Engine) {
				if _, err := e.RegisterText(c.src, c.opts...); err != nil {
					b.Fatal(err)
				}
			}
			var e *Engine
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				if i%1024 == 0 {
					b.StopTimer()
					e = New()
					register(e)
					b.StartTimer()
				}
				register(e)
			}
		})
	}
}
