package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// runSteady is the steadiness helper: it runs one workload n times as
// fresh processes, with seeds cfg.seed..cfg.seed+n-1, and prints each
// end-to-end metric's median, quartiles and spread — (Q3-Q1)/median,
// quartiles as Python's statistics.quantiles(n=4) computes them —
// against the metric's bound. A spread below a third of the bound is
// steady; setup_s is held to its median only, not its spread. The last
// line is a JSON object of per-metric medians, to compare two sets.
func runSteady(cfg config, spec *benchSpec, n, seconds int) error {
	values := map[string][]float64{}
	for i := 0; i < n; i++ {
		seed := cfg.seed + uint64(i)
		cmd := exec.Command(os.Args[0], "-workload", cfg.workload, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.Itoa(seconds), "-trace", "0", "-root", cfg.root, "-bfsd", cfg.bfsd, "-out", cfg.out)
		var stdout bytes.Buffer
		cmd.Stdout = &stdout
		cmd.Stderr = os.Stderr
		runErr := cmd.Run()
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("run %d (seed %d): no result (%v): %s", i+1, seed, runErr, stdout.String())
		}
		if runErr != nil || !res.Correct {
			return fmt.Errorf("run %d (seed %d): correct=%v failed=%d: %v", i+1, seed, res.Correct, res.Failed, runErr)
		}
		var parts []string
		for _, d := range spec.EndToEnd {
			v := res.Metrics[d.Name].Value
			values[d.Name] = append(values[d.Name], v)
			parts = append(parts, fmt.Sprintf("%s=%.4g", d.Name, v))
		}
		fmt.Printf("# run %d seed %d: %s\n", i+1, seed, strings.Join(parts, " "))
	}
	fmt.Printf("# %-22s %12s %12s %12s %8s %8s  %s\n", "metric", "median", "Q1", "Q3", "spread", "bound", "verdict")
	medians := map[string]float64{}
	steady := true
	for _, d := range spec.EndToEnd {
		xs := values[d.Name]
		med := median(xs)
		q1, q3 := quartiles(xs)
		spread := ratio(q3-q1, med)
		verdict := "steady"
		switch {
		case d.Name == "setup_s":
			verdict = "median only"
		case spread > d.Bound:
			verdict = "TOO NOISY"
			steady = false
		case spread > d.Bound/3:
			verdict = "within bound, above a third"
			steady = false
		}
		medians[d.Name] = med
		fmt.Printf("# %-22s %12.5g %12.5g %12.5g %8.4f %8.3f  %s\n", d.Name, med, q1, q3, spread, d.Bound, verdict)
	}
	fmt.Printf("# %s: %d runs, steady=%v\n", cfg.workload, n, steady)
	b, err := json.Marshal(map[string]any{"workload": cfg.workload, "runs": n, "steady": steady, "medians": medians})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
