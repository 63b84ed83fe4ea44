// Command steady checks that the benchmark is steady on the host it
// runs on. It runs one workload k times, each in a fresh process,
// alternating a fixed seed with a held-out seed, and prints for every
// end-to-end metric the median, the quartiles and the spread
// (Q3−Q1)/median: over all runs, and over each seed's runs. A spread above the metric's
// bound in BENCHMARK.json is flagged, and so is a pair of seed medians
// further apart than the bound — the two sets of runs must agree.
//
// Run it from the root of a checkout:
//
//	(cd perfbench && go run ./steady -root .. -workload serve -k 10)
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"

	"repro/perfbench/stats"
)

type benchmark struct {
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

type result struct {
	Correct bool `json:"correct"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "steady:", err)
		os.Exit(1)
	}
}

func run() error {
	root := flag.String("root", "..", "checkout root holding BENCHMARK.json")
	workload := flag.String("workload", "serve", "workload to run")
	k := flag.Int("k", 10, "number of runs")
	seed := flag.Int64("seed", 1, "fixed seed (even runs)")
	heldout := flag.Int64("heldout", 7919, "held-out seed (odd runs)")
	seconds := flag.Int("seconds", 0, "timed phase per run (0 = run_seconds of BENCHMARK.json)")
	flag.Parse()

	raw, err := os.ReadFile(filepath.Join(*root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var b benchmark
	if err := json.Unmarshal(raw, &b); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if *seconds == 0 {
		*seconds = b.RunSeconds
	}
	values := map[string]map[int64][]float64{}
	for i := 0; i < *k; i++ {
		s := *seed
		if i%2 == 1 {
			s = *heldout
		}
		res, err := runOnce(*root, b.Command, *workload, s, *seconds)
		if err != nil {
			return fmt.Errorf("run %d (seed %d): %w", i, s, err)
		}
		line := fmt.Sprintf("run %2d seed %-6d", i, s)
		for _, m := range b.EndToEnd {
			v := res.Metrics[m.Name].Value
			if values[m.Name] == nil {
				values[m.Name] = map[int64][]float64{}
			}
			values[m.Name][s] = append(values[m.Name][s], v)
			line += fmt.Sprintf(" %s=%.4g", m.Name, v)
		}
		fmt.Println(line)
	}

	fmt.Printf("\n%-14s %-9s %12s %12s %12s %8s %6s\n", "metric", "runs", "Q1", "median", "Q3", "spread", "bound")
	flagged := 0
	for _, m := range b.EndToEnd {
		var all []float64
		var medians []float64
		for _, s := range []int64{*seed, *heldout} {
			vs := values[m.Name][s]
			all = append(all, vs...)
			q1, q2, q3 := stats.Quartiles(vs)
			medians = append(medians, q2)
			fmt.Printf("%-14s seed %-4d %12.4g %12.4g %12.4g %8.3f %6.2f%s\n", m.Name, s, q1, q2, q3, spread(q1, q2, q3), m.Bound, mark(spread(q1, q2, q3) > m.Bound))
		}
		q1, q2, q3 := stats.Quartiles(all)
		sp := spread(q1, q2, q3)
		fmt.Printf("%-14s %-9s %12.4g %12.4g %12.4g %8.3f %6.2f%s\n", m.Name, "all", q1, q2, q3, sp, m.Bound, mark(sp > m.Bound))
		gap := 0.0
		if medians[0] != 0 {
			gap = math.Abs(medians[1]-medians[0]) / medians[0]
		}
		fmt.Printf("%-14s %-9s %38s %8.3f %6.2f%s\n", m.Name, "seed gap", "", gap, m.Bound, mark(gap > m.Bound))
		if sp > m.Bound || gap > m.Bound {
			flagged++
		}
	}
	if flagged > 0 {
		return fmt.Errorf("%d metrics exceed their bound", flagged)
	}
	return nil
}

func mark(bad bool) string {
	if bad {
		return "  EXCEEDS BOUND"
	}
	return ""
}

// runOnce runs the benchmark command once from the checkout root and
// decodes its last stdout line.
func runOnce(root string, command []string, workload string, seed int64, seconds int) (*result, error) {
	args := append(append([]string(nil), command[1:]...),
		"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd := exec.Command(command[0], args...)
	cmd.Dir = root
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%v: %w\n%s", command, err, out)
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("last line is not the result: %w", err)
	}
	if !res.Correct {
		return nil, errors.New("run reports wrong outputs")
	}
	return &res, nil
}

func spread(q1, q2, q3 float64) float64 {
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}
