package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"time"

	cedr "repro"
	"repro/internal/eventio"
)

// fleetQuery is the paper's §3.1 query Q.
const fleetQuery = `
EVENT MissedRestart
WHEN UNLESS(SEQUENCE(INSTALL x, SHUTDOWN AS y, 12 hours), RESTART AS z, 5 minutes)
WHERE CorrelationKey(Machine_Id, EQUAL)
SC(each, consume)`

// fleetTemplate is Q specialised to one machine by a template binding.
const fleetTemplate = `
EVENT MissedRestart
WHEN UNLESS(SEQUENCE(INSTALL x, SHUTDOWN AS y, 12 hours), RESTART AS z, 5 minutes)
WHERE CorrelationKey(Machine_Id, EQUAL) AND [Machine_Id Equal $m]
SC(each, consume)`

// echoQuery emits one output per INSTALL at once: the matcher does almost
// nothing, so serve-durable measures server and wal.
const echoQuery = `EVENT Echo WHEN INSTALL h`

// maxBindings is the number of machines the fabric's template instances
// are spread over.
const maxBindings = 64

// params declares one workload by its stream characteristics and the
// system it runs on.
type params struct {
	Name    string
	Gen     genParams
	Queries int  // fabric: registrations, a fifth of them Q itself, the rest fleetTemplate
	Serve   bool // behind server.Serve on loopback, over a write-ahead log
	RTTs    int  // serve: closed-loop round trips per pass
	Procs   int  // GOMAXPROCS
}

var workloads = []params{
	{Name: "fleet-ordered", Gen: genParams{Machines: 192, Cycles: 20}, Procs: 2},
	{Name: "fleet-disordered", Gen: genParams{Machines: 192, Cycles: 20, Disordered: true}, Procs: 2},
	{Name: "fabric-10k", Gen: genParams{Machines: 64, Cycles: 7}, Queries: 10000, Procs: 2},
	// One processor: with two, which goroutines of the five-stage pipeline
	// share a core decides the timings (ten runs spread by 26-31%, against
	// 2-4% on one), and what is left measures the pipeline's total work.
	{Name: "serve-durable", Gen: genParams{Machines: 192, Cycles: 20}, Serve: true, RTTs: 300, Procs: 1},
}

// reg is one Register call.
type reg struct {
	src  string
	opts []cedr.QueryOption
}

// system describes an in-process engine instance: how it is made, what is
// registered on it, and which endpoint the benchmark subscribes to.
type system struct {
	opts     []cedr.Option
	wal      string // non-empty: cedr.Open on this path in place of cedr.New
	regs     []reg
	sub      int  // index into regs of the subscribed endpoint; -1 for none
	noFinish bool // serve's reference: the server never sees a Finish
}

func middle() cedr.QueryOption { return cedr.WithSpec(cedr.Middle()) }

// fleetSystem runs Q alone at Middle on one shard.
func fleetSystem(opts ...cedr.Option) system {
	return system{opts: opts, regs: []reg{{fleetQuery, []cedr.QueryOption{middle()}}}}
}

func bindings(p params) int { return min(maxBindings, p.Gen.Machines) }

// fabricSystem registers n queries: the first fifth are Q (one shared
// chain), the rest template instances round-robin over the bindings (one
// shared chain each). The subscriber sits on the last endpoint of Q's
// group, so a detection is timed through that chain's whole fan-out.
func fabricSystem(p params, n int, opts ...cedr.Option) system {
	identical := max(n/5, 1)
	sy := system{opts: opts, sub: identical - 1}
	for i := 0; i < n; i++ {
		if i < identical {
			sy.regs = append(sy.regs, reg{fleetQuery, []cedr.QueryOption{middle()}})
			continue
		}
		sy.regs = append(sy.regs, templateReg((i-identical)%bindings(p)))
	}
	return sy
}

// templateReg registers Q's template bound to machine m.
func templateReg(m int) reg {
	return reg{fleetTemplate, []cedr.QueryOption{middle(), cedr.WithTemplate(cedr.Payload{"m": machineID(m)})}}
}

func echoSystem(wal string) system {
	return system{wal: wal, regs: []reg{{echoQuery, []cedr.QueryOption{middle()}}}, sub: -1, noFinish: true}
}

// passResult is what one pass over the input measured.
type passResult struct {
	SetupS   float64
	Items    int
	Sec      section // the timed ingest section
	LiveHeap int64   // bytes the system retains, when asked for
	Outputs  int     // items the subscribed endpoint was delivered
	StateMax int     // high-water mark of the subscribed query's first monitor
	Checked  int     // output items compared with the reference
	Hash     string  // of the checked output
}

// passOpts says where a pass's spans hang and what else it records.
type passOpts struct {
	pass   int
	parent int        // span id
	calls  *calls     // non-nil: time every call
	heap   bool       // read LiveHeap
	detect *[]float64 // non-nil: append push-to-callback times, ms
}

// live is an in-process system kept reachable until its pass is verified.
type live struct {
	sys *cedr.System
	qs  []*cedr.Query
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// inproc is the batch path: decode the CSV, build the system, push every
// item, finish. Set-up is everything before the first item can be pushed.
func (b *bench) inproc(sy system, in *input, o passOpts) (passResult, live, error) {
	var res passResult
	var base int64
	if o.heap {
		base = liveHeap()
	}
	sp := b.tr.begin("setup", o.parent, o.pass)
	t0 := time.Now()
	items, err := eventio.ReadCSV(bytes.NewReader(in.CSV), "input")
	if err != nil {
		return res, live{}, err
	}
	var sys *cedr.System
	if sy.wal != "" {
		if sys, err = cedr.Open(sy.wal, sy.opts...); err != nil {
			return res, live{}, err
		}
	} else {
		sys = cedr.New(sy.opts...)
	}
	qs := make([]*cedr.Query, len(sy.regs))
	for i, r := range sy.regs {
		if qs[i], err = sys.Register(r.src, r.opts...); err != nil {
			sys.Close()
			return res, live{}, fmt.Errorf("register %d: %w", i, err)
		}
	}
	var pushed time.Time
	waiting := false
	if sy.sub >= 0 {
		qs[sy.sub].Subscribe(func(e cedr.Event) {
			if waiting && e.Kind == cedr.Insert {
				waiting = false
				if d := ms(time.Since(pushed)); o.detect != nil {
					*o.detect = append(*o.detect, d)
				}
			}
		})
	}
	res.SetupS = time.Since(t0).Seconds()
	b.tr.end(sp)

	sp = b.tr.begin("ingest", o.parent, o.pass)
	o.calls.under(sp)
	res.Sec.start()
	for _, e := range items {
		pushed = time.Now()
		waiting = true
		sys.Push(e)
		if o.calls != nil {
			o.calls.add(callName(e), pushed)
		}
	}
	waiting = false
	if !sy.noFinish {
		fin := b.tr.begin("finish", sp, o.pass)
		sys.Finish()
		b.tr.end(fin)
	}
	res.Sec.stop()
	b.tr.end(sp)
	res.Items = len(items)
	items = nil
	if o.heap {
		res.LiveHeap = liveHeap() - base
	}
	if err := sys.Err(); err != nil {
		b.failf("system error: %v", err)
	}
	if sy.sub >= 0 {
		res.Outputs = len(qs[sy.sub].Tags())
		res.StateMax = qs[sy.sub].Metrics()[0].MaxState
	}
	return res, live{sys, qs}, nil
}

func callName(e cedr.Event) string {
	if e.IsCTI() {
		return "push.cti"
	}
	return "push.event"
}

// hashStream fingerprints an output history, every attribute included.
func hashStream(s cedr.Stream) string {
	h := sha256.New()
	for _, e := range s {
		fmt.Fprintf(h, "%s|%d|%v|%v\n", e, e.RT, e.CBT, e.C)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// alertSet renders the net detections as sorted lines, for set comparison.
func alertSet(alerts []cedr.Event) []string {
	out := make([]string, len(alerts))
	for i, a := range alerts {
		out[i] = a.String()
	}
	sort.Strings(out)
	return out
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkQuery counts a quarantined endpoint or a violated sync point as a
// failed operation.
func (b *bench) checkQuery(what string, q *cedr.Query) {
	if err := q.Err(); err != nil {
		b.failf("%s: quarantined: %v", what, err)
	}
	for i, m := range q.Metrics() {
		if m.Violations != 0 {
			b.failf("%s: stage %d saw %d punctuation violations", what, i, m.Violations)
		}
	}
}

// verifyFleet checks one Q endpoint: the generator's expected alert count,
// no violated sync point, and the recorded history's fingerprint.
func (b *bench) verifyFleet(what string, q *cedr.Query, in *input, res *passResult) []cedr.Event {
	b.checkQuery(what, q)
	alerts := q.Alerts()
	if len(alerts) != in.Expected {
		b.failf("%s: %d alerts, generator expects %d", what, len(alerts), in.Expected)
	}
	results := q.Results()
	res.Checked += len(results)
	res.Hash = hashStream(results)
	return alerts
}

// verifyFabric checks the fleet: Q's own endpoint as verifyFleet does, and
// each template group's alerts against Q's alerts for that machine. Every
// endpoint must be healthy and hold as many items as its group's first.
func (b *bench) verifyFabric(l live, sy system, p params, in *input, res *passResult) {
	identical := sy.sub + 1
	groups := min(bindings(p), len(l.qs)-identical)
	byMachine := map[string][]cedr.Event{}
	for _, a := range b.verifyFleet("fabric Q", l.qs[0], in, res) {
		m, _ := a.Payload["x.Machine_Id"].(string)
		byMachine[m] = append(byMachine[m], a)
	}
	counts := make([]int, groups)
	for g := 0; g < groups; g++ {
		q := l.qs[identical+g]
		b.checkQuery("fabric template "+machineID(g), q)
		got := q.Alerts()
		res.Checked += len(got)
		if !sameStrings(alertSet(got), alertSet(byMachine[machineID(g)])) {
			b.failf("fabric: template group %s detects %d alerts, Q detects %d for that machine",
				machineID(g), len(got), len(byMachine[machineID(g)]))
		}
		counts[g] = len(q.Tags())
	}
	first := len(l.qs[0].Tags())
	for i, q := range l.qs {
		if err := q.Err(); err != nil {
			b.failf("fabric: endpoint %d quarantined: %v", i, err)
		}
		want := first
		if i >= identical {
			want = counts[(i-identical)%groups]
		}
		if n := len(q.Tags()); n != want {
			b.failf("fabric: endpoint %d holds %d items, its group's first holds %d", i, n, want)
		}
	}
}
