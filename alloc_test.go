//go:build !race

package cedr

import "testing"

// TestAllocsRegisterFacade pins what the facade adds to a registration
// that attaches to a running chain. The engine's share is its own ceiling
// (internal/engine's TestAllocsRegisterShared: 2 for a plain registration,
// 3 for a template instance); the facade adds one, the closure
// plan.WithRegOpts makes around the translated registration record. Query
// is the engine's endpoint, not a wrapper around it (4 and 5 while it was
// one), so Queries hands back the very pointers Register returned.
// (Skipped under -race.)
func TestAllocsRegisterFacade(t *testing.T) {
	for _, c := range []struct {
		name    string
		src     string
		opts    []QueryOption
		ceiling float64
	}{
		{"plain", missedRestart, nil, 2 + 1},                                                      // measured 3
		{"template", missedRestartTmpl, []QueryOption{WithTemplate(Payload{"m": "m042"})}, 3 + 1}, // measured 4
	} {
		sys := New()
		qs := make([]*Query, 0, 128)
		register := func() {
			q, err := sys.Register(c.src, c.opts...)
			if err != nil {
				t.Fatal(err)
			}
			qs = append(qs, q)
		}
		register()
		allocs := testing.AllocsPerRun(100, register)
		t.Logf("shared %s System.Register: measured %.0f allocs (ceiling %.0f)", c.name, allocs, c.ceiling)
		if allocs > c.ceiling {
			t.Errorf("shared %s System.Register allocates %.0f, above the pinned ceiling %.0f", c.name, allocs, c.ceiling)
		}
		all := sys.Queries()
		if len(all) != len(qs) {
			t.Fatalf("%s: Queries lists %d of %d registrations", c.name, len(all), len(qs))
		}
		for i, q := range qs {
			if all[i] != q {
				t.Fatalf("%s: Queries()[%d] is not the pointer Register returned", c.name, i)
			}
		}
	}
}
