package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	cedr "repro"
	"repro/internal/consistency"
	"repro/internal/eventio"
	"repro/internal/operators"
	"repro/internal/plan"
	"repro/internal/wal"
)

// A rung is one entry point of the ladder: a function that drives one
// layer boundary over an input and returns what it measured, by name. A
// layer's self time is its rung minus the rung below, taken within one
// round so that both saw the same stretch of host weather.
type rung struct {
	name string
	run  func(o passOpts) (map[string]float64, error)
}

// ladder holds the rounds' measurements: ladder[key][round].
type ladder map[string][]float64

func (l ladder) med(key string) float64 {
	return median(l[key])
}

// diff is the median over rounds of a-b, scaled.
func (l ladder) diff(a, b string, scale float64) float64 {
	va, vb := l[a], l[b]
	d := make([]float64, min(len(va), len(vb)))
	for i := range d {
		d[i] = (va[i] - vb[i]) * scale
	}
	return median(d)
}

func perItem(res passResult) float64 { return float64(res.Sec.WallNs) / float64(res.Items) }

// decodeInput is the untimed set-up of a rung that drives a layer below
// the facade: the same decoded stream the facade path pushes.
func decodeInput(in *input) (cedr.Stream, error) {
	return eventio.ReadCSV(bytes.NewReader(in.CSV), "input")
}

// countInserts returns the insert items in outs.
func countInserts(outs []cedr.Event) int {
	n := 0
	for _, e := range outs {
		if e.Kind == cedr.Insert {
			n++
		}
	}
	return n
}

// fleetRungs is the ladder on a fleet stream: R1 the matcher driven
// directly with the sync-ordered rendering, R2 the monitor over the
// delivered rendering, R2d the monitor over the disordered rendering (the
// repair counters), R3 the facade, R4 the facade on two shards.
func (b *bench) fleetRungs(delivered, ordered, disordered *input) []rung {
	compile := func() (*plan.Plan, error) {
		return plan.Compile(fleetQuery, plan.WithSpec(consistency.Middle()))
	}
	monitor := func(in *input, prefix string, o passOpts) (map[string]float64, error) {
		repair := in == disordered
		items, err := decodeInput(in)
		if err != nil {
			return nil, err
		}
		pl, err := compile()
		if err != nil {
			return nil, err
		}
		mon := consistency.NewMonitor(pl.Stages[0].Clone(), pl.Spec, pl.MonitorOpts...)
		sp := b.tr.begin("ingest", o.parent, o.pass)
		o.calls.under(sp)
		var sec section
		var replayNs int64
		inserts, retracts := 0, 0
		tally := func(outs []cedr.Event) {
			for _, e := range outs {
				switch e.Kind {
				case cedr.Insert:
					inserts++
				case cedr.Retract:
					retracts++
				}
			}
		}
		sec.start()
		for _, e := range items {
			before := mon.Metrics().Replays
			t0 := time.Now()
			outs := mon.Push(0, e)
			ns := o.calls.add(callName(e), t0)
			if mon.Metrics().Replays != before {
				replayNs += ns
			}
			tally(outs)
		}
		tally(mon.Finish())
		sec.stop()
		b.tr.end(sp)
		m := mon.Metrics()
		b.attempted += len(items) + inserts
		if m.Violations != 0 {
			b.failf("%s: %d punctuation violations", prefix, m.Violations)
		}
		// Every compensation retracts one optimistic insert for good or is
		// followed by its corrected re-insert; the net must be the expected
		// alerts.
		if net := inserts - retracts; net != in.Expected {
			b.failf("%s: monitor nets %d alerts, generator expects %d", prefix, net, in.Expected)
		}
		out := map[string]float64{prefix + ".ns": float64(sec.WallNs) / float64(len(items))}
		if repair {
			out["replays_per_kev"] = float64(m.Replays) / float64(m.InputEvents) * 1000
			out["ns_per_replay"] = float64(replayNs) / float64(max(m.Replays, 1))
			out["compensation_ratio"] = float64(m.Compensations) / float64(max(m.OutputInserts, 1))
			out["max_state"] = float64(m.MaxState)
			out["blocked_events"] = float64(m.BlockedEvents)
		}
		return out, nil
	}
	var r3hash string
	facade := func(name string, opts ...cedr.Option) rung {
		return rung{name, func(o passOpts) (map[string]float64, error) {
			sy := fleetSystem(opts...)
			if len(opts) > 0 {
				sy.sub = -1 // sharded delivery runs on another goroutine: no sampling there
			}
			res, l, err := b.inproc(sy, delivered, o)
			if err != nil {
				return nil, err
			}
			defer l.sys.Close()
			b.verifyFleet(name, l.qs[0], delivered, &res)
			b.attempted += res.Items + res.Checked
			if name == "R3" {
				r3hash = res.Hash
			} else if res.Hash != r3hash {
				b.failf("%s: output on two shards is not byte-identical to one shard's", name)
			}
			return map[string]float64{name + ".ns": perItem(res)}, nil
		}}
	}
	rungs := []rung{
		{"decode", func(o passOpts) (map[string]float64, error) {
			t0 := time.Now()
			items, err := decodeInput(delivered)
			if err != nil {
				return nil, err
			}
			ns := o.calls.add("ReadCSV", t0)
			var us []float64
			for i := 0; i < 200; i++ {
				t0 := time.Now()
				if _, err := compile(); err != nil {
					return nil, err
				}
				us = append(us, float64(o.calls.add("plan.Compile", t0))/1e3)
			}
			return map[string]float64{
				"decode.ns":    float64(ns) / float64(len(items)),
				"decode.bytes": float64(len(delivered.CSV)) / float64(len(items)),
				"compile.us":   median(us),
			}, nil
		}},
		{"R1", func(o passOpts) (map[string]float64, error) {
			items, err := decodeInput(ordered)
			if err != nil {
				return nil, err
			}
			pl, err := compile()
			if err != nil {
				return nil, err
			}
			var op operators.Op = pl.Stages[0].Clone()
			sp := b.tr.begin("ingest", o.parent, o.pass)
			o.calls.under(sp)
			var processNs, advanceNs int64
			events, ctis, alerts, stateMax := 0, 0, 0, 0
			t0 := time.Now()
			for _, e := range items {
				c0 := time.Now()
				if e.IsCTI() {
					alerts += countInserts(op.Advance(e.Sync()))
					advanceNs += o.calls.add("Advance", c0)
					ctis++
					stateMax = max(stateMax, op.StateSize())
				} else {
					alerts += countInserts(op.Process(0, e))
					processNs += o.calls.add("Process", c0)
					events++
				}
			}
			total := time.Since(t0).Nanoseconds()
			b.tr.end(sp)
			b.attempted += len(items) + alerts
			if alerts != ordered.Expected {
				b.failf("R1: matcher emits %d alerts, generator expects %d", alerts, ordered.Expected)
			}
			return map[string]float64{
				"R1.ns":         float64(total) / float64(len(items)),
				"R1.process_ns": float64(processNs) / float64(events),
				"R1.advance_ns": float64(advanceNs) / float64(ctis),
				"R1.state_max":  float64(stateMax),
			}, nil
		}},
		{"R2", func(o passOpts) (map[string]float64, error) { return monitor(delivered, "R2", o) }},
	}
	if delivered != disordered {
		rungs = append(rungs, rung{"R2d", func(o passOpts) (map[string]float64, error) { return monitor(disordered, "R2d", o) }})
	}
	return append(rungs, facade("R3"), facade("R4", cedr.WithShards(2)))
}

// fabricRungs: F1 one registration per sharing group, routed; F2 the whole
// fleet of registrations; F3 as F1 without the routing index.
func (b *bench) fabricRungs(p params, in *input) []rung {
	// distinct registers Q once and the template once per binding.
	distinct := func(opts ...cedr.Option) system {
		sy := system{opts: opts, regs: []reg{{fleetQuery, []cedr.QueryOption{middle()}}}}
		for m := 0; m < bindings(p); m++ {
			sy.regs = append(sy.regs, templateReg(m))
		}
		return sy
	}
	fleet := fabricSystem(p, p.Queries, cedr.WithRouting())
	fabric := func(name string, sy system, more func(l live, out map[string]float64)) rung {
		return rung{name, func(o passOpts) (map[string]float64, error) {
			res, l, err := b.inproc(sy, in, o)
			if err != nil {
				return nil, err
			}
			defer l.sys.Close()
			b.verifyFabric(l, sy, p, in, &res)
			b.attempted += res.Items + res.Checked
			out := map[string]float64{name + ".ns": perItem(res)}
			if more != nil {
				more(l, out)
			}
			return out, nil
		}}
	}
	return []rung{
		fabric("F1", distinct(cedr.WithRouting()), nil),
		fabric("F2", fleet, func(l live, out map[string]float64) {
			// One endpoint per sharing group stands for its chain.
			chainPushes, chainOuts, deliveries := 0, 0, 0
			for g := 0; g <= bindings(p); g++ {
				q := l.qs[0]
				if g > 0 {
					q = l.qs[fleet.sub+g]
				}
				chainPushes += q.Metrics()[0].InputEvents
				chainOuts += len(q.Tags())
			}
			for _, q := range l.qs {
				deliveries += len(q.Tags())
			}
			out["chain_pushes_per_ev"] = float64(chainPushes) / float64(in.Events)
			out["deliveries_per_out"] = float64(deliveries) / float64(max(chainOuts, 1))
		}),
		fabric("F3", distinct(), nil),
		{"register", func(o passOpts) (map[string]float64, error) {
			sys := cedr.New(fleet.opts...)
			defer sys.Close()
			t0 := time.Now()
			for i, r := range fleet.regs {
				if _, err := sys.Register(r.src, r.opts...); err != nil {
					return nil, fmt.Errorf("register %d: %w", i, err)
				}
			}
			ns := o.calls.add("Register*", t0)
			return map[string]float64{"register.us": float64(ns) / 1e3 / float64(len(fleet.regs))}, nil
		}},
	}
}

// serveRungs: S1 in-process, S2 in-process over a log, S3 over TCP without
// log or subscriber, S4 with the subscriber, S5 the workload's own path;
// and the wal rungs W1-W4.
func (b *bench) serveRungs(p params, in *input) []rung {
	refHash, refN, refErr := "", 0, error(nil)
	inprocEcho := func(name string, durable bool) rung {
		return rung{name, func(o passOpts) (map[string]float64, error) {
			path := ""
			if durable {
				path = filepath.Join(b.tmp, name+".wal")
				os.Remove(path)
				defer os.Remove(path)
			}
			res, l, err := b.inproc(echoSystem(path), in, o)
			if err != nil {
				return nil, err
			}
			defer l.sys.Close()
			b.checkQuery(name, l.qs[0])
			b.attempted += res.Items
			return map[string]float64{name + ".ns": perItem(res)}, nil
		}}
	}
	wire := func(name string, so serveOpts) rung {
		return rung{name, func(o passOpts) (map[string]float64, error) {
			if refHash == "" && refErr == nil {
				refHash, refN, refErr = b.echoReference(in, p.RTTs)
			}
			if refErr != nil {
				return nil, refErr
			}
			var rtt []float64
			so.passOpts = o
			so.detect = &rtt
			res, err := b.served(in, so)
			if err != nil {
				return nil, err
			}
			b.attempted += res.Items + res.Checked
			out := map[string]float64{name + ".ns": perItem(res)}
			if so.subscribe {
				out[name+".outputs"] = float64(res.Checked)
			}
			if so.rtts > 0 {
				if res.Hash != refHash || res.Checked != refN {
					b.failf("%s: subscriber received %d items that differ from the in-process reference's %d",
						name, res.Checked, refN)
				}
				out["rtt_p50_us"] = median(rtt) * 1e3
				out["rtt_p99_us"] = quantile(rtt, 0.99) * 1e3
			}
			return out, nil
		}}
	}
	return []rung{
		inprocEcho("S1", false),
		inprocEcho("S2", true),
		wire("S3", serveOpts{}),
		wire("S4", serveOpts{subscribe: true}),
		wire("S5", serveOpts{wal: true, subscribe: true, rtts: p.RTTs}),
		{"W", func(o passOpts) (map[string]float64, error) { return b.walRungs(in, o) }},
	}
}

// walRungs: W1 encode records to memory, W2 append them to a log file with
// the default fsync batching, W3 scan a log the engine wrote, W4 reopen
// that log through the engine (recovery replay).
func (b *bench) walRungs(in *input, o passOpts) (map[string]float64, error) {
	items, err := decodeInput(in)
	if err != nil {
		return nil, err
	}
	recs := make([]wal.Record, len(items))
	for i, e := range items {
		recs[i] = wal.Record{Seq: uint64(i + 1), Kind: wal.KindEvent, Ev: e}
		if e.IsCTI() {
			recs[i].Kind = wal.KindCTI
		}
	}
	n := float64(len(recs))
	out := map[string]float64{}

	buf := make([]byte, 0, 1<<20)
	t0 := time.Now()
	for _, r := range recs {
		if buf, err = wal.AppendRecord(buf, r); err != nil {
			return nil, err
		}
	}
	out["encode_ns_per_rec"] = float64(o.calls.add("W1 AppendRecord*", t0)) / n
	out["bytes_per_rec"] = float64(len(buf)) / n

	path := filepath.Join(b.tmp, "W2.wal")
	os.Remove(path)
	defer os.Remove(path)
	log, err := wal.Open(path)
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	for i := range recs {
		recs[i].Seq = 0
		if _, err := log.Append(recs[i]); err != nil {
			log.Close()
			return nil, err
		}
	}
	err = log.Sync()
	out["append_ns_per_rec"] = float64(o.calls.add("W2 Log.Append*", t0)) / n
	out["fsyncs_per_krec"] = float64(log.Syncs()) / n * 1000
	if cerr := log.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	// A log as the engine writes it: the registration, then every item.
	path = filepath.Join(b.tmp, "W3.wal")
	os.Remove(path)
	defer os.Remove(path)
	_, l, err := b.inproc(echoSystem(path), in, passOpts{pass: o.pass})
	if err != nil {
		return nil, err
	}
	want := len(l.qs[0].Tags())
	if err := l.sys.Close(); err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	scanned, _, err := wal.ReadAll(f)
	ns := o.calls.add("W3 ReadAll", t0)
	f.Close()
	if err != nil {
		return nil, err
	}
	out["scan_ns_per_rec"] = float64(ns) / float64(len(scanned))

	t0 = time.Now()
	sys, err := cedr.Open(path)
	ns = o.calls.add("W4 cedr.Open", t0)
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	out["recover_ns_per_rec"] = float64(ns) / float64(len(scanned))
	b.attempted += len(scanned) + want
	if len(scanned) != len(recs)+1 {
		b.failf("W3: scanned %d records, the engine logged %d", len(scanned), len(recs)+1)
	}
	if qs := sys.Queries(); len(qs) != 1 || len(qs[0].Tags()) != want {
		b.failf("W4: recovery did not reproduce the query's %d output items", want)
	}
	return out, nil
}

// runTraced runs the ladder: one round of every section, then further
// rounds of the workload's own section while the budget lasts. The own
// section includes rung E, the untraced end-to-end pass, so that the cost
// of tracing is itself measured.
func runTraced(p params, table []params, c config, spansPath string) (*report, error) {
	start := time.Now()
	seed, lim, log := c.seed, c.lim, c.log
	b, cleanup, err := newBench(p, c)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	b.tr = newTracer()
	root := b.tr.begin("run", 0, 0)
	wsp := b.tr.begin("workload "+p.Name, root, 0)

	pick := func(name string) params {
		if p.Name == name {
			return p
		}
		for _, w := range table {
			if w.Name == name {
				return w
			}
		}
		return p
	}
	own := "fleet"
	fleetP, fabricP, serveP := pick("fleet-ordered"), pick("fabric-10k"), pick("serve-durable")
	switch {
	case p.Serve:
		own = "serve"
	case p.Queries > 0:
		own = "fabric"
	default:
		fleetP = p
	}
	gen := func(g genParams, disordered bool) (*input, error) {
		g.Disordered = disordered
		return generate(seed, g)
	}
	ordered, err := gen(fleetP.Gen, false)
	if err != nil {
		return nil, err
	}
	disordered, err := gen(fleetP.Gen, true)
	if err != nil {
		return nil, err
	}
	delivered := ordered
	if fleetP.Gen.Disordered {
		delivered = disordered
	}
	fabricIn, err := gen(fabricP.Gen, false)
	if err != nil {
		return nil, err
	}
	serveIn, err := gen(serveP.Gen, false)
	if err != nil {
		return nil, err
	}
	switch own { // the bench's input is the own section's
	case "fabric":
		b.in = fabricIn
	case "serve":
		b.in = serveIn
	default:
		b.in = delivered
	}
	sections := map[string][]rung{
		"fleet":  b.fleetRungs(delivered, ordered, disordered),
		"fabric": b.fabricRungs(fabricP, fabricIn),
		"serve":  b.serveRungs(serveP, serveIn),
	}
	// Rung E: the workload exactly as the untraced run measures it (spans
	// per pass, none per call).
	sections[own] = append(sections[own], rung{"E", func(o passOpts) (map[string]float64, error) {
		var detect []float64
		o.calls, o.detect = nil, &detect
		res, err := b.endToEnd(o)
		if err != nil {
			return nil, err
		}
		return map[string]float64{
			"E.ns":      perItem(res),
			"E.eps":     1e9 / perItem(res),
			"E.p50_ms":  median(detect),
			"E.p99_ms":  quantile(detect, 0.99),
			"E.cpu_us":  float64(res.Sec.CPUNs) / 1e3 / float64(res.Items),
			"E.gc":      float64(res.Sec.GCCycles),
			"E.peak_mb": float64(res.Sec.HeapSys) / (1 << 20),
		}, nil
	}})

	lad := ladder{}
	procs := map[string]int{"fleet": fleetP.Procs, "fabric": fabricP.Procs, "serve": serveP.Procs}
	rungSpans := map[string]int{}
	round := func(section string, n int) error {
		runtime.GOMAXPROCS(procs[section])
		for _, r := range sections[section] {
			id := section + "/" + r.name
			if rungSpans[id] == 0 {
				rungSpans[id] = b.tr.begin("rung "+r.name, wsp, 0)
			}
			psp := b.tr.begin("pass", rungSpans[id], n)
			vals, err := r.run(passOpts{pass: n, parent: psp,
				calls: b.tr.calls(r.name, psp, n, section == own && n == 0)})
			b.tr.end(psp)
			b.tr.end(rungSpans[id])
			if err != nil {
				return fmt.Errorf("rung %s: %w", r.name, err)
			}
			for k, v := range vals {
				lad[k] = append(lad[k], v)
			}
		}
		return nil
	}
	for _, name := range []string{"fleet", "fabric", "serve"} {
		if name != own {
			if err := round(name, 0); err != nil {
				return nil, err
			}
		}
	}
	lim.MinPasses = max(lim.MinPasses, 1)
	lim.MaxPasses = min(lim.MaxPasses, 5)
	rounds, err := lim.passes(start, func(pass int) error { return round(own, pass-1) })
	if err != nil {
		return nil, err
	}
	b.tr.end(wsp)
	b.tr.end(root)

	top := map[string]string{"fleet": "R3", "fabric": "F2", "serve": "S5"}[own]
	ns, count, us := "ns", "count", "us"
	m := map[string]metric{
		"e2e.ingest_eps":                  {lad.med("E.eps"), "items/s"},
		"e2e.detect_p50_ms":               {lad.med("E.p50_ms"), "ms"},
		"e2e.detect_p99_ms":               {lad.med("E.p99_ms"), "ms"},
		"eventio.csv_decode_ns_per_ev":    {lad.med("decode.ns"), ns},
		"eventio.csv_bytes_per_ev":        {lad.med("decode.bytes"), "B"},
		"plan.compile_us":                 {lad.med("compile.us"), us},
		"plan.register_us_per_query":      {lad.med("register.us"), us},
		"inc.process_ns_per_ev":           {lad.med("R1.process_ns"), ns},
		"inc.advance_ns_per_cti":          {lad.med("R1.advance_ns"), ns},
		"inc.self_ns_per_ev":              {lad.med("R1.ns"), ns},
		"inc.state_max":                   {lad.med("R1.state_max"), count},
		"consistency.self_ns_per_ev":      {lad.diff("R2.ns", "R1.ns", 1), ns},
		"consistency.replays_per_kev":     {lad.med("replays_per_kev"), count},
		"consistency.ns_per_replay":       {lad.med("ns_per_replay"), ns},
		"consistency.compensation_ratio":  {lad.med("compensation_ratio"), "ratio"},
		"consistency.max_state":           {lad.med("max_state"), count},
		"consistency.blocked_events":      {lad.med("blocked_events"), count},
		"engine.chain_self_ns_per_ev":     {lad.diff("R3.ns", "R2.ns", 1), ns},
		"engine.shards2_ns_per_ev":        {lad.med("R4.ns"), ns},
		"engine.chain_pushes_per_ev":      {lad.med("chain_pushes_per_ev"), count},
		"engine.deliveries_per_out":       {lad.med("deliveries_per_out"), count},
		"engine.fanout_self_ns_per_ev":    {lad.diff("F2.ns", "F1.ns", 1), ns},
		"engine.routing_saving_ns_per_ev": {lad.diff("F3.ns", "F1.ns", 1), ns},
		"wal.encode_ns_per_rec":           {lad.med("encode_ns_per_rec"), ns},
		"wal.append_ns_per_rec":           {lad.med("append_ns_per_rec"), ns},
		"wal.fsyncs_per_krec":             {lad.med("fsyncs_per_krec"), count},
		"wal.bytes_per_rec":               {lad.med("bytes_per_rec"), "B"},
		"wal.engine_self_ns_per_ev":       {lad.diff("S2.ns", "S1.ns", 1), ns},
		"wal.scan_ns_per_rec":             {lad.med("scan_ns_per_rec"), ns},
		"wal.recover_ns_per_rec":          {lad.med("recover_ns_per_rec"), ns},
		"server.wire_self_ns_per_ev":      {lad.diff("S3.ns", "S1.ns", 1), ns},
		"server.egress_self_ns_per_out":   {lad.diff("S4.ns", "S3.ns", float64(serveIn.Events+serveIn.CTIs)/lad.med("S4.outputs")), ns},
		"server.rtt_p50_us":               {lad.med("rtt_p50_us"), us},
		"server.rtt_p99_us":               {lad.med("rtt_p99_us"), us},
		"process.cpu_us_per_ev":           {lad.med("E.cpu_us"), us},
		"process.gc_cycles_per_pass":      {lad.med("E.gc"), count},
		"process.peak_heap_mb":            {lad.med("E.peak_mb"), "MB"},
		"trace.overhead_pct":              {lad.diff(top+".ns", "E.ns", 100/lad.med("E.ns")), "%"},
	}
	keys := make([]string, 0, len(lad))
	for k := range lad {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(log, "rung value %-22s per round: %.6g\n", k, lad[k])
	}
	rep := b.report(m)
	fmt.Fprintf(log, "ladder rounds of the %s section: %d; untraced end-to-end %.0f ns/item, traced %s %.0f ns/item\n",
		own, rounds, lad.med("E.ns"), top, lad.med(top+".ns"))
	if err := b.tr.write(spansPath); err != nil {
		return nil, fmt.Errorf("spans: %w", err)
	}
	fmt.Fprintf(log, "spans %d written to %s\n", len(b.tr.spans), spansPath)
	return rep, nil
}
