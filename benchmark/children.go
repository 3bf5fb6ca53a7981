package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
)

// runChild runs one workload in a fresh process, so that every run starts
// from the same heap; it relays the child's report unless quiet and returns
// its result document.
func runChild(sp *spec, o options, trace bool, quiet bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(exe, "-workload", sp.name, "-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.Itoa(o.seconds), "-trace", t, "-out", o.outDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if !quiet {
		os.Stdout.Write(out)
	}
	if err != nil && len(out) == 0 {
		return nil, fmt.Errorf("%s: %w", sp.name, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s: no result document: %w", sp.name, err)
	}
	return &res, nil
}

// runAll runs every workload untraced and then traced, each in its own
// process, one at a time.
func runAll(o options) error {
	bad := 0
	for _, sp := range specs {
		for _, trace := range []bool{false, true} {
			res, err := runChild(sp, o, trace, false)
			if err != nil {
				return err
			}
			if !res.Correct {
				bad++
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d runs failed their output checks", bad)
	}
	return nil
}

// runSelfcheck runs every workload n times on one seed, untraced, and
// reports how far each end-to-end metric moves between identical runs. A
// (max-min)/median wider than the metric's own bound is an error: a bound
// narrower than the benchmark's noise gates nothing.
func runSelfcheck(n int, o options) error {
	noisy := 0
	for _, sp := range specs {
		samples := map[string][]float64{}
		for i := 0; i < n; i++ {
			res, err := runChild(sp, o, false, true)
			if err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("%s: run %d failed its output checks", sp.name, i)
			}
			for name, m := range res.Metrics {
				samples[name] = append(samples[name], m.Value)
			}
		}
		fmt.Printf("%s (%d runs, seed %d)\n", sp.name, n, o.seed)
		fmt.Printf("  %-22s %14s %14s %14s %8s %8s\n", "metric", "min", "median", "max", "spread", "bound")
		for _, d := range endToEnd {
			s := samples[d.name]
			slices.Sort(s)
			mid := quantile(s, 0.5)
			spread := (s[len(s)-1] - s[0]) / mid
			flag := ""
			if spread > d.bound {
				flag = "  NOISY"
				noisy++
			}
			fmt.Printf("  %-22s %14.6g %14.6g %14.6g %8.4f %8.4f%s\n", d.name, s[0], mid, s[len(s)-1],
				spread, max(d.bound, 2*spread), flag)
		}
	}
	if noisy > 0 {
		return fmt.Errorf("%d (workload, metric) pairs moved more than their bound between identical runs", noisy)
	}
	return nil
}
