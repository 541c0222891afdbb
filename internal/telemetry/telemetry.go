// Package telemetry holds live counters that the code they count updates
// without locks or allocation and that a reader takes without stopping it,
// and writes them in the Prometheus text exposition format.
package telemetry

import (
	"fmt"
	"io"
	"runtime/metrics"
	"sync/atomic"
)

// Max is a high-water mark. The zero value is ready; it is safe for
// concurrent use.
type Max struct{ v atomic.Uint64 }

// Observe raises the mark to n if n is above it.
func (m *Max) Observe(n uint64) {
	for cur := m.v.Load(); n > cur && !m.v.CompareAndSwap(cur, n); cur = m.v.Load() {
	}
}

// Load reads the mark.
func (m *Max) Load() uint64 { return m.v.Load() }

// Text accumulates metrics in the Prometheus text format; WriteTo sends
// them. Names and help texts are the caller's constants: nothing is
// escaped.
type Text struct{ buf []byte }

// Counter adds a counter family of one sample.
func (t *Text) Counter(name, help string, v uint64) { t.family(name, "counter", help, v) }

// Gauge adds a gauge family of one sample.
func (t *Text) Gauge(name, help string, v uint64) { t.family(name, "gauge", help, v) }

func (t *Text) family(name, typ, help string, v uint64) {
	t.header(name, typ, help)
	t.buf = fmt.Appendf(t.buf, "%s %d\n", name, v)
}

func (t *Text) header(name, typ, help string) {
	t.buf = fmt.Appendf(t.buf, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// gcClasses are the runtime's GC CPU classes GCCPU reports, by label.
var gcClasses = [...]struct{ label, metric string }{
	{"mark_assist", "/cpu/classes/gc/mark/assist:cpu-seconds"},
	{"mark_dedicated", "/cpu/classes/gc/mark/dedicated:cpu-seconds"},
	{"mark_idle", "/cpu/classes/gc/mark/idle:cpu-seconds"},
	{"pause", "/cpu/classes/gc/pause:cpu-seconds"},
}

// GCCPU adds the process's garbage-collector CPU time split by class —
// the mutator's assists, the dedicated and idle-priority mark workers,
// and the stop-the-world pauses — as one counter family, name, labelled
// class.
func (t *Text) GCCPU(name string) {
	var samples [len(gcClasses)]metrics.Sample
	for i, c := range gcClasses {
		samples[i].Name = c.metric
	}
	metrics.Read(samples[:])
	t.header(name, "counter", "CPU seconds spent in garbage collection, by class.")
	for i, c := range gcClasses {
		v := 0.0
		if samples[i].Value.Kind() == metrics.KindFloat64 {
			v = samples[i].Value.Float64()
		}
		t.buf = fmt.Appendf(t.buf, "%s{class=%q} %g\n", name, c.label, v)
	}
}

// WriteTo writes the accumulated text to w.
func (t *Text) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(t.buf)
	return int64(n), err
}
