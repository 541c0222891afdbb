package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// contract is the part of BENCHMARK.json the agreement mode and the smoke
// test read.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []gated `json:"end_to_end"`
	PerLayer []gated `json:"per_layer"`
}

type gated struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readContract(path string) (*contract, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// runOnce runs one workload in a fresh process, as the driver does, and
// returns the report on its last line of output.
func runOnce(workload string, seed int, seconds float64) (*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.Itoa(seed),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
	}
	var rep report
	if err := json.Unmarshal(last, &rep); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line is not a report: %w", workload, seed, err)
	}
	return &rep, nil
}

// agreement runs every workload n times in each of two sets, alternating
// (A B A B ...), every run with its own seed, and prints as a Markdown
// table each set's median and quartiles, its spread (quartile distance as
// a share of the median) and the gap (how much worse B's median is than
// A's) against the metric's bound. It returns 1 if a gap exceeds its
// bound, a spread other than setup_s's exceeds its bound, or a run fails.
func agreement(n int, seconds float64) int {
	c, err := readContract("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		return 1
	}
	fmt.Printf("Agreement of two alternating sets of %d runs per workload, %g s each, every run another seed.\n\n", n, seconds)
	fmt.Println("| workload | metric | bound | A median [q1, q3] | A spread | B median [q1, q3] | B spread | gap | gap / bound |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|")
	status := 0
	for _, w := range c.Workloads {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*n; i++ {
			rep, err := runOnce(w.Name, i+1, seconds)
			if err == nil && !rep.Correct {
				err = fmt.Errorf("%s seed %d: %d of %d operations failed", w.Name, i+1, rep.Failed, rep.Attempted)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "e2e:", err)
				return 1
			}
			for name, m := range rep.Metrics {
				sets[i%2][name] = append(sets[i%2][name], m.Value)
			}
		}
		for _, g := range c.EndToEnd {
			a, b := sets[0][g.Name], sets[1][g.Name]
			ma, mb := median(a), median(b)
			a1, a3 := quartiles(a)
			b1, b3 := quartiles(b)
			sa, sb := (a3-a1)/ma, (b3-b1)/mb
			gap := (mb - ma) / ma
			if g.Better == "higher" {
				gap = -gap
			}
			mark := ""
			if gap > g.Bound || (g.Name != "setup_s" && max(sa, sb) > g.Bound) {
				mark = " **over**"
				status = 1
			}
			fmt.Printf("| %s | %s (%s) | %.2f | %.5g [%.5g, %.5g] | %.3f | %.5g [%.5g, %.5g] | %.3f | %+.3f | %+.2f%s |\n",
				w.Name, g.Name, g.Unit, g.Bound, ma, a1, a3, sa, mb, b1, b3, sb, gap, gap/g.Bound, mark)
		}
	}
	return status
}
