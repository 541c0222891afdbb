package telemetry

import (
	"strings"
	"sync"
	"testing"
)

// TestMaxConcurrent: under concurrent updates the mark ends at the largest
// value observed, and an update does not allocate.
func TestMaxConcurrent(t *testing.T) {
	var m Max
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 1000 {
				m.Observe(uint64(g*1000 + i))
			}
		}()
	}
	wg.Wait()
	if m.Load() != 3999 {
		t.Fatalf("max %d, want 3999", m.Load())
	}
	if allocs := testing.AllocsPerRun(100, func() { m.Observe(5000) }); allocs != 0 {
		t.Fatalf("an update allocates %.0f objects", allocs)
	}
}

// TestText: families in the order added, each with its HELP and TYPE lines.
func TestText(t *testing.T) {
	var txt Text
	txt.Counter("a_total", "As.", 3)
	txt.Gauge("b", "Bs.", 18446744073709551615)
	txt.GCCPU("gc_seconds_total")
	var sb strings.Builder
	if _, err := txt.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	want := "# HELP a_total As.\n# TYPE a_total counter\na_total 3\n" +
		"# HELP b Bs.\n# TYPE b gauge\nb 18446744073709551615\n" +
		"# HELP gc_seconds_total CPU seconds spent in garbage collection, by class.\n# TYPE gc_seconds_total counter\n"
	if !strings.HasPrefix(got, want) {
		t.Fatalf("text:\n%s\nwant prefix:\n%s", got, want)
	}
	for _, class := range []string{"mark_assist", "mark_dedicated", "mark_idle", "pause"} {
		if !strings.Contains(got, "\ngc_seconds_total{class=\""+class+"\"} ") {
			t.Errorf("no %s sample in:\n%s", class, got)
		}
	}
}
