package main

import (
	"bufio"
	"encoding/json"
	"math/bits"
	"os"
	"path/filepath"
	"time"
)

// span is one traced interval: name, start and end in nanoseconds since
// the run began, the span that caused it, and the pass it belongs to.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Pass   int    `json:"pass"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// hist folds per-call durations into power-of-two buckets: bucket k counts
// calls that took [2^k, 2^(k+1)) ns.
type hist struct {
	Count   int64     `json:"count"`
	SumNs   int64     `json:"sum_ns"`
	Buckets [40]int64 `json:"log2_ns_buckets"`
}

func (h *hist) add(ns int64) {
	h.Count++
	h.SumNs += ns
	h.Buckets[min(bits.Len64(uint64(max(ns, 1)))-1, len(h.Buckets)-1)]++
}

// tracer keeps spans and per-call histograms in memory; write puts them in
// a file when the run ends. Spans are recorded from the benchmark's side of
// each layer's public functions, never from inside the program.
type tracer struct {
	t0    time.Time
	spans []span
	hists map[string]*hist
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), hists: map[string]*hist{}}
}

// begin opens a span and returns its id; a nil tracer records nothing.
func (t *tracer) begin(name string, parent, pass int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Pass: pass,
		Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = time.Since(t.t0).Nanoseconds()
}

// calls records the per-call durations of one pass of one rung: as child
// spans of the pass's ingest span when spans is set (one pass per rung),
// folded into the rung's histogram otherwise.
type calls struct {
	t      *tracer
	h      *hist
	parent int
	pass   int
	spans  bool
}

func (t *tracer) calls(rung string, parent, pass int, spans bool) *calls {
	if t == nil {
		return nil
	}
	h := t.hists[rung]
	if h == nil {
		h = &hist{}
		t.hists[rung] = h
	}
	return &calls{t: t, h: h, parent: parent, pass: pass, spans: spans}
}

// under hangs the calls that follow below the span parent.
func (c *calls) under(parent int) {
	if c != nil {
		c.parent = parent
	}
}

// add records one call that started at start and has just returned; it
// returns the call's duration.
func (c *calls) add(name string, start time.Time) int64 {
	ns := time.Since(start).Nanoseconds()
	if c == nil {
		return ns
	}
	if c.spans {
		s := start.Sub(c.t.t0).Nanoseconds()
		c.t.spans = append(c.t.spans, span{ID: len(c.t.spans) + 1, Parent: c.parent, Name: name,
			Pass: c.pass, Start: s, End: s + ns})
	} else {
		c.h.add(ns)
	}
	return ns
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	err = enc.Encode(map[string]any{"histograms": t.hists, "spans": len(t.spans)})
	for i := 0; err == nil && i < len(t.spans); i++ {
		err = enc.Encode(&t.spans[i])
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
