package main

import (
	"io"
	"math"
	"path/filepath"
	"testing"
)

// smoke is the four workloads at a size that runs in a second: the same
// run functions the command calls, with small parameters.
var smoke = []params{
	{Name: "fleet-ordered", Gen: genParams{Machines: 8, Cycles: 2}, Procs: 2},
	{Name: "fleet-disordered", Gen: genParams{Machines: 8, Cycles: 2, Disordered: true}, Procs: 2},
	{Name: "fabric-10k", Gen: genParams{Machines: 8, Cycles: 2}, Queries: 100, Procs: 2},
	{Name: "serve-durable", Gen: genParams{Machines: 8, Cycles: 2}, Serve: true, RTTs: 20, Procs: 1},
}

func smokeConfig(t *testing.T) config {
	return config{seed: 5, lim: limits{MinPasses: 2, MaxPasses: 2}, scratch: t.TempDir(), log: io.Discard}
}

func loadContract(t *testing.T) *contract {
	t.Helper()
	c, err := readContract(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// sameMetrics fails unless the report carries exactly the declared
// metrics, with the declared units.
func sameMetrics(t *testing.T, what string, rep *report, declared []gated) {
	t.Helper()
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Errorf("%s: verification failed: %d of %d operations", what, rep.Failed, rep.Attempted)
	}
	if len(rep.Metrics) != len(declared) {
		t.Errorf("%s: %d metrics reported, BENCHMARK.json declares %d", what, len(rep.Metrics), len(declared))
	}
	for _, g := range declared {
		m, ok := rep.Metrics[g.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s is declared but not reported", what, g.Name)
		case m.Unit != g.Unit:
			t.Errorf("%s: metric %s is reported in %q, declared in %q", what, g.Name, m.Unit, g.Unit)
		case math.IsNaN(m.Value):
			t.Errorf("%s: metric %s is not a number", what, g.Name)
		}
	}
}

func TestWorkloadsMatchTheContract(t *testing.T) {
	c := loadContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.Name || smoke[i].Name != w.Name {
			t.Errorf("workload %d is %q here, %q in BENCHMARK.json, %q in the smoke table", i, w.Name, c.Workloads[i].Name, smoke[i].Name)
		}
	}
}

func TestEndToEndSmoke(t *testing.T) {
	c := loadContract(t)
	for _, p := range smoke {
		rep, err := run(p, smokeConfig(t))
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		sameMetrics(t, p.Name, rep, c.EndToEnd)
	}
}

func TestLadderSmoke(t *testing.T) {
	c := loadContract(t)
	for _, p := range smoke {
		cfg := smokeConfig(t)
		rep, err := runTraced(p, smoke, cfg, filepath.Join(cfg.scratch, "spans.jsonl"))
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		sameMetrics(t, p.Name+" traced", rep, c.PerLayer)
	}
}
