package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	cedr "repro"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is a run's result; its JSON form is the last line of output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// limits bounds a run: passes repeat until the budget is spent, within
// [MinPasses, MaxPasses]. The untimed warm-up pass counts against the
// budget, so a run lasts about as long as it was told to measure for.
type limits struct {
	Budget    time.Duration
	MinPasses int
	MaxPasses int
}

// config is what a run is given besides its workload.
type config struct {
	seed    int64
	lim     limits
	scratch string    // directory for write-ahead logs
	log     io.Writer // the human-readable lines
}

// bench is one run of one workload.
type bench struct {
	p   params
	in  *input
	tr  *tracer   // nil unless tracing
	tmp string    // directory for write-ahead logs
	log io.Writer // the human-readable lines

	attempted int
	failed    int

	// The reference output, recorded by the warm-up pass.
	refHash    string
	refChecked int
	// fleet-disordered: the net alert set of the ordered delivery.
	orderedAlerts []string
}

func (b *bench) failf(format string, args ...any) {
	b.failed++
	fmt.Fprintf(b.log, "FAILED: "+format+"\n", args...)
}

// endToEnd is one pass of the workload as a user runs it, verified.
func (b *bench) endToEnd(o passOpts) (passResult, error) {
	var res passResult
	var err error
	switch {
	case b.p.Serve:
		res, err = b.served(b.in, serveOpts{passOpts: o, wal: true, subscribe: true, rtts: b.p.RTTs, restart: true})
	case b.p.Queries > 0:
		var l live
		sy := fabricSystem(b.p, b.p.Queries, cedr.WithRouting())
		if res, l, err = b.inproc(sy, b.in, o); err == nil {
			b.verifyFabric(l, sy, b.p, b.in, &res)
			l.sys.Close()
		}
	default:
		var l live
		if res, l, err = b.inproc(fleetSystem(), b.in, o); err == nil {
			alerts := b.verifyFleet(b.p.Name, l.qs[0], b.in, &res)
			// The paper's claim: at Middle the net alert set of a disordered
			// delivery equals that of the ordered delivery of the same stream.
			if b.orderedAlerts != nil && !sameStrings(alertSet(alerts), b.orderedAlerts) {
				b.failf("pass %d: the disordered delivery's net alert set differs from the ordered delivery's", o.pass)
			}
			l.sys.Close()
		}
	}
	if err != nil {
		return res, err
	}
	b.attempted += res.Items + res.Checked
	if b.refHash == "" {
		b.refHash, b.refChecked = res.Hash, res.Checked
	} else if res.Hash != b.refHash || res.Checked != b.refChecked {
		b.failf("pass %d: output differs from the reference pass (%d items checked, reference %d)",
			o.pass, res.Checked, b.refChecked)
	}
	return res, nil
}

// warmUp is pass 0: untimed, it fills caches, records the reference output
// and makes the cross-system checks that need a second system.
func (b *bench) warmUp(seed int64) error {
	switch {
	case b.p.Serve:
		hash, n, err := b.echoReference(b.in, b.p.RTTs)
		if err != nil {
			return err
		}
		b.refHash, b.refChecked = hash, 2*n // received live, and again after the restart
	case b.p.Gen.Disordered:
		ordered := b.p.Gen
		ordered.Disordered = false
		oin, err := generate(seed, ordered)
		if err != nil {
			return err
		}
		_, l, err := b.inproc(fleetSystem(), oin, passOpts{})
		if err != nil {
			return err
		}
		b.orderedAlerts = alertSet(l.qs[0].Alerts())
		b.attempted += len(b.orderedAlerts)
		l.sys.Close()
	}
	_, err := b.endToEnd(passOpts{})
	return err
}

// passes runs fn until the limits are reached. fn's pass numbers start at
// 1; pass 0 is the warm-up.
func (l limits) passes(start time.Time, fn func(pass int) error) (int, error) {
	n := 0
	var spent time.Duration
	for n < l.MaxPasses {
		if n >= max(l.MinPasses, 1) && time.Since(start)+spent/time.Duration(n) > l.Budget {
			break
		}
		t0 := time.Now()
		if err := fn(n + 1); err != nil {
			return n, err
		}
		spent += time.Since(t0)
		n++
	}
	return n, nil
}

func newBench(p params, c config) (*bench, func(), error) {
	runtime.GOMAXPROCS(p.Procs)
	seed, log := c.seed, c.log
	in, err := generate(seed, p.Gen)
	if err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(c.scratch, 0o755); err != nil {
		return nil, nil, err
	}
	tmp, err := os.MkdirTemp(c.scratch, "run-")
	if err != nil {
		return nil, nil, err
	}
	b := &bench{p: p, in: in, tmp: tmp, log: log}
	fmt.Fprintf(log, "workload %s seed %d: %d machines x %d cycles, disordered=%v: %d events + %d sync points, %d expected alerts\n",
		p.Name, seed, p.Gen.Machines, p.Gen.Cycles, p.Gen.Disordered, in.Events, in.CTIs, in.Expected)
	fmt.Fprintf(log, "input_sha256 %s\n", in.SHA256)
	return b, func() { os.RemoveAll(tmp) }, nil
}

// run measures the end-to-end metrics of one workload.
func run(p params, c config) (*report, error) {
	start := time.Now()
	b, cleanup, err := newBench(p, c)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	if err := b.warmUp(c.seed); err != nil {
		return nil, err
	}
	var setup, heap, alloc, mallocs, outputs, state []float64 // gated
	var eps, detect, all []float64                            // timings: reported, not gated
	n, err := c.lim.passes(start, func(pass int) error {
		var samples []float64
		res, err := b.endToEnd(passOpts{pass: pass, heap: true, detect: &samples})
		if err != nil {
			return err
		}
		items := float64(res.Items)
		setup = append(setup, res.SetupS)
		heap = append(heap, float64(res.LiveHeap)/(1<<20))
		alloc = append(alloc, float64(res.Sec.Alloc)/1024/items)
		mallocs = append(mallocs, float64(res.Sec.Mallocs)/items)
		outputs = append(outputs, float64(res.Outputs)/items*1000)
		state = append(state, float64(res.StateMax))
		eps = append(eps, items/(float64(res.Sec.WallNs)/1e9))
		if len(samples) > 0 {
			all = append(all, samples...)
			detect = append(detect, median(samples))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(c.log, "timed passes %d\n", n)
	fmt.Fprintf(c.log, "ungated timings: ingest_eps %.6g items/s, detect_p50_ms %.6g ms (n=%d: p10 %.4f p90 %.4f p99 %.4f)\n",
		median(eps), median(detect), len(all), quantile(all, 0.1), quantile(all, 0.9), quantile(all, 0.99))
	return b.report(map[string]metric{
		"setup_s":         {median(setup), "s"},
		"live_heap_mb":    {median(heap), "MB"},
		"alloc_kb_per_ev": {median(alloc), "KB"},
		"mallocs_per_ev":  {median(mallocs), "count"},
		"output_per_kev":  {median(outputs), "count"},
		"state_max":       {median(state), "count"},
	}), nil
}

func (b *bench) report(m map[string]metric) *report {
	fmt.Fprintf(b.log, "operations attempted %d, failed %d\n", b.attempted, b.failed)
	return &report{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: m}
}
