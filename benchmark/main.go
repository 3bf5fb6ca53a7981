// Command benchmark is the repository's performance benchmark: four
// closed-loop workloads against the real STM, end-to-end metrics from an
// untraced pass, and a per-layer cost ledger from a traced pass and
// isolated price loops. See README.md beside this file.
//
//	benchmark -workload W -seed S -seconds N -trace 0|1   one workload, one process (what BENCHMARK.json runs)
//	benchmark -seed S                                     all workloads, each untraced and traced, in fresh child processes
//	benchmark -selfcheck N                                N untraced runs per workload; spread of every end-to-end metric
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"
)

var processStart = time.Now()

// setupRepeats is how many times a run sets the workload up; setup_s is the
// fastest. Nine tenths of a set-up is its warm-up's transactions, so it is
// as exposed to host interference as a whole-interval rate, and interference
// only ever adds: the median of five still moved by 24 % between two sets of
// ten runs.
const setupRepeats = 5

// A metricDef declares one metric; BENCHMARK.json lists the same names and
// units, which the smoke test enforces.
type metricDef struct {
	name, unit string
	// bound is the relative worsening that counts as a regression; only
	// end-to-end metrics have one.
	bound float64
	// lowerBetter is the direction BENCHMARK.json declares.
	lowerBetter bool
}

var endToEnd = []metricDef{
	{"txn_per_s", "1/s", 0.25, false},
	{"txn_p50_ns", "ns", 0.20, true},
	{"attempts_per_commit", "ratio", 0.02, true},
	{"setup_s", "s", 0.25, true},
	{"heap_mb", "MiB", 0.05, true},
}

// options are the knobs of one workload run. Only the first four are
// reachable from BENCHMARK.json's command; the rest exist for the tests.
type options struct {
	seed    uint64
	seconds int
	trace   bool
	outDir  string
	// count overrides the transaction count derived from seconds.
	count int
	// priceScale shrinks the isolated price loops.
	priceScale float64
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the document printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// emit fills the result's metrics from values, in the order and with the
// units of defs; a declared metric without a value is a bug.
func (r *result) emit(defs []metricDef, values map[string]float64) error {
	r.Metrics = map[string]metricValue{}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return fmt.Errorf("metric %s declared but not measured", d.name)
		}
		r.Metrics[d.name] = metricValue{v, d.unit}
		fmt.Printf("%-42s %16.6g %s\n", d.name, v, d.unit)
	}
	return nil
}

func (r *result) add(p *pass) {
	r.Attempted += p.attempted
	r.Failed += p.failed
	if p.checkErr != nil {
		r.Correct = false
		fmt.Printf("%s: output check failed: %v\n", p.in.sp.name, p.checkErr)
	}
	if p.failed > 0 {
		r.Correct = false
	}
}

// runWorkload runs sp once in this process and returns the result document:
// the end-to-end metrics of untraced passes, or, with o.trace, the per-layer
// metrics of a traced pass beside a short untraced one.
//
// Wall-clock metrics are gated only where one thread produces them. A
// two-worker workload therefore runs two intervals on fresh instances: a
// solo one, worker 0 alone, for txn_per_s and txn_p50_ns; then one with all
// its workers, for attempts_per_commit. What two parallel workers achieve in
// wall-clock time on a shared 2-vCPU host is reported on the traced side
// (bench.txn_per_s, bench.txn_p50_ns), not gated: README.md has the
// measurements behind that.
func runWorkload(sp *spec, o options) (*result, error) {
	runtime.GOMAXPROCS(2)
	soloCount, allCount := sp.counts(o.seconds)
	if o.count != 0 {
		soloCount, allCount = o.count, o.count
	}
	res := &result{Correct: true}
	if o.trace {
		return res, runTraced(sp, o, allCount/4, res)
	}
	solo, err := runPass(sp, o.seed, soloCount, 1, false, processStart)
	if err != nil {
		return nil, err
	}
	res.add(solo)
	last := solo
	if sp.workers > 1 {
		if last, err = runPass(sp, o.seed, allCount, sp.workers, false, time.Now()); err != nil {
			return nil, err
		}
		res.add(last)
	}
	// Set-up is repeated on fresh instances after the measurements, where it
	// cannot disturb a measured heap layout.
	setups := []float64{solo.setup.Seconds()}
	for len(setups) < setupRepeats {
		t0 := time.Now()
		if _, err := setUp(sp, o.seed, sliceLenFor(soloCount, 1), 1, false); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	c := last.counts.stm
	values := map[string]float64{
		"txn_per_s":           quantile(solo.sliceRates, bestRate),
		"txn_p50_ns":          quantile(solo.sliceP50, bestMedian),
		"attempts_per_commit": ratio(float64(c.Commits+c.Aborts), float64(c.Commits)),
		"setup_s":             slices.Min(setups),
		"heap_mb":             float64(last.heapBytes) / (1 << 20),
	}
	fmt.Printf("%s seed %d: %d txns in the solo interval, %d latency samples", sp.name, o.seed, solo.txns, len(solo.latencies))
	if last != solo {
		fmt.Printf("; %d txns in the %d-worker interval", last.txns, sp.workers)
	}
	fmt.Printf("; %d failed\n", res.Failed)
	return res, res.emit(endToEnd, values)
}

func main() {
	var o options
	workload := flag.String("workload", "", "run one workload in this process: "+workloadNames())
	flag.Uint64Var(&o.seed, "seed", 1, "input seed (1 for development, 2 held out)")
	flag.IntVar(&o.seconds, "seconds", 10, "target length of the measured interval; fixes the transaction count")
	trace := flag.Int("trace", 0, "1: traced pass and price loops, per-layer metrics; 0: end-to-end metrics")
	flag.StringVar(&o.outDir, "out", "benchmark/out", "directory for trace and ledger files")
	selfcheck := flag.Int("selfcheck", 0, "run every workload N times in fresh processes and report metric spreads")
	flag.Parse()
	o.trace, o.priceScale = *trace != 0, 1

	var err error
	switch {
	case *selfcheck > 0:
		err = runSelfcheck(*selfcheck, o)
	case *workload == "":
		err = runAll(o)
	default:
		sp := specByName(*workload)
		if sp == nil {
			err = fmt.Errorf("unknown workload %q (want one of %s)", *workload, workloadNames())
			break
		}
		var res *result
		if res, err = runWorkload(sp, o); err != nil {
			break
		}
		line, _ := json.Marshal(res) // a struct of numbers and strings always marshals
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
}

func workloadNames() string {
	names := make([]string, len(specs))
	for i, sp := range specs {
		names[i] = sp.name
	}
	return strings.Join(names, ", ")
}
