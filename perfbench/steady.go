package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// benchSpec is the part of BENCHMARK.json the steadiness command reads.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steady runs each workload in two sets of repeated untraced runs, each run
// with its own seed, and prints for every end-to-end metric each set's
// median and quartiles, the spread (Q3-Q1)/median against the metric's
// bound, and how far the second set's median moved in the worse direction.
// It also compares the share of failed operations between the sets. It
// reads BENCHMARK.json from the current directory, the checkout root, and
// exits non-zero when any spread or median shift exceeds its bound, or the
// failed shares differ.
func steady(args []string) error {
	fs := flag.NewFlagSet("steady", flag.ContinueOnError)
	runs := fs.Int("runs", 5, "runs per set (two sets per workload)")
	first := fs.Uint64("first-seed", 1, "seed of the first run; each run takes the next")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *runs < 2 {
		return fmt.Errorf("steady: --runs %d: quartiles need at least 2 runs per set", *runs)
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	seed := *first
	ok := true
	for _, w := range spec.Workloads {
		var sets [2][]result
		for s := range sets {
			for i := 0; i < *runs; i++ {
				res, err := runOnce(self, w.Name, seed, spec.RunSeconds)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", w.Name, seed, err)
				}
				if !res.Correct {
					ok = false
					fmt.Printf("%s seed %d: outputs incorrect\n", w.Name, seed)
				}
				sets[s] = append(sets[s], res)
				seed++
			}
		}
		fmt.Printf("== %s (%d runs per set, %ds each)\n", w.Name, *runs, spec.RunSeconds)
		fmt.Printf("%-18s %-4s %12s %12s %12s %8s %8s %s\n",
			"metric", "set", "q1", "median", "q3", "spread", "bound", "verdict")
		for _, m := range spec.EndToEnd {
			var vals [3][]float64 // set A, set B, both
			for s := range sets {
				for _, res := range sets[s] {
					if v, present := res.Metrics[m.Name]; present {
						vals[s] = append(vals[s], v.Value)
						vals[2] = append(vals[2], v.Value)
					}
				}
			}
			for s, label := range []string{"A", "B", "A+B"} {
				if len(vals[s]) < 2 {
					fmt.Printf("%-18s %-4s only %d values\n", m.Name, label, len(vals[s]))
					ok = false
					continue
				}
				q1, q2, q3 := quartiles(vals[s])
				spread := (q3 - q1) / q2
				verdict := "ok"
				switch {
				case spread > m.Bound:
					verdict, ok = "OVER BOUND", false
				case spread > m.Bound/3:
					verdict = "over bound/3"
				}
				fmt.Printf("%-18s %-4s %12.6g %12.6g %12.6g %8.4f %8.4f %s\n",
					m.Name, label, q1, q2, q3, spread, m.Bound, verdict)
			}
			if len(vals[0]) > 0 && len(vals[1]) > 0 {
				a, b := median(vals[0]), median(vals[1])
				worse := (b - a) / a
				if m.Better == "higher" {
					worse = (a - b) / a
				}
				verdict := "ok"
				if worse > m.Bound {
					verdict, ok = "WORSE THAN BOUND", false
				}
				fmt.Printf("%-18s B vs A: median worse by %+.4f (bound %.4f) %s\n", m.Name, worse, m.Bound, verdict)
			}
		}
		var failed, attempted [2]int
		for s := range sets {
			for _, res := range sets[s] {
				attempted[s] += res.Attempted
				failed[s] += res.Failed
			}
		}
		fmt.Printf("failed share: A %d/%d, B %d/%d\n", failed[0], attempted[0], failed[1], attempted[1])
		if failed[0]*attempted[1] != failed[1]*attempted[0] {
			ok = false
			fmt.Println("failed shares differ")
		}
	}
	if !ok {
		return fmt.Errorf("steadiness: not every metric is within its bound")
	}
	return nil
}

// runOnce runs the benchmark once and parses its result line.
func runOnce(self, workload string, seed uint64, seconds int) (result, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, err
	}
	return parseResult(out)
}

// parseResult decodes the last non-empty line of a run's standard output.
func parseResult(out []byte) (result, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return result{}, fmt.Errorf("result line %q: %w", last, err)
	}
	if res.Attempted < 1 {
		return result{}, fmt.Errorf("result line %q: no operations attempted", last)
	}
	return res, nil
}
