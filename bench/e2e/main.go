// Command e2e is the repository's benchmark: one named workload per run,
// six gated end-to-end metrics checked against a reference output, or with
// -trace 1 the same inputs up a ladder of public entry points for the
// per-layer metrics. BENCHMARK.json at the repository root is its contract;
// README.md beside this file defines every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// scratchDir holds write-ahead logs and span files; .gitignore names it.
const scratchDir = ".bench_build/e2e"

func main() {
	workload := flag.String("workload", "", "workload to run: fleet-ordered, fleet-disordered, fabric-10k or serve-durable")
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same input bytes")
	seconds := flag.Float64("seconds", 25, "how long to measure for")
	trace := flag.Int("trace", 0, "1: run the entry-point ladder and print the per-layer metrics")
	spans := flag.String("spans", "", "with -trace 1, the span file (default "+scratchDir+"/spans-<workload>.jsonl)")
	agree := flag.Int("agree", 0, "run every workload N times in each of two alternating sets and compare the sets")
	flag.Parse()

	if *agree > 0 {
		os.Exit(agreement(*agree, *seconds))
	}
	p, ok := findWorkload(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "e2e: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	c := config{seed: *seed, scratch: scratchDir, log: os.Stdout,
		lim: limits{Budget: time.Duration(*seconds * float64(time.Second)), MinPasses: 3, MaxPasses: 1 << 20}}
	var rep *report
	var err error
	if *trace != 0 {
		path := *spans
		if path == "" {
			path = filepath.Join(scratchDir, "spans-"+p.Name+".jsonl")
		}
		rep, err = runTraced(p, workloads, c, path)
	} else {
		rep, err = run(p, c)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2e: %s: %v\n", p.Name, err)
		os.Exit(1)
	}
	printReport(rep)
	if !rep.Correct {
		os.Exit(1)
	}
}

func findWorkload(name string) (params, bool) {
	for _, p := range workloads {
		if p.Name == name {
			return p, true
		}
	}
	return params{}, false
}

// printReport prints every metric by name with its unit, then the one-line
// JSON form the driver reads.
func printReport(rep *report) {
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rep.Metrics[name]
		fmt.Printf("%-36s %14.6g %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2e: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
