package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
	"time"
)

// benchmarkDoc mirrors ../BENCHMARK.json.
type benchmarkDoc struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readBenchmarkDoc(t *testing.T) benchmarkDoc {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// smokeOptions runs a workload at about a thousandth of its full count.
func smokeOptions(sp *spec, trace bool, dir string) options {
	return options{seed: 1, trace: trace, outDir: dir, count: sp.rate * 10 / 1000, priceScale: 0.001}
}

// TestDeclarationsMatch holds BENCHMARK.json and the program to the same
// workloads, metric names, units and bounds, inside the contract's limits.
func TestDeclarationsMatch(t *testing.T) {
	doc := readBenchmarkDoc(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if n := len(doc.Workloads); n < 2 || n > 8 || n != len(specs) {
		t.Fatalf("%d workloads declared, %d in the program; the contract allows 2 to 8", n, len(specs))
	}
	for i, w := range doc.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the program %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
		if !name.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name, or why longer than 200 characters (%d)", w.Name, len(w.Why))
		}
	}
	if len(doc.EndToEnd) > 16 || len(doc.PerLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics; the contract allows 16 and 128", len(doc.EndToEnd), len(doc.PerLayer))
	}
	check := func(kind string, got []declared, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics declared, %d in the program", kind, len(got), len(want))
		}
		for i, d := range got {
			w := want[i]
			better := "higher"
			if w.lowerBetter {
				better = "lower"
			}
			if d.Name != w.name || d.Unit != w.unit || d.Better != better {
				t.Errorf("%s %d: BENCHMARK.json says %s [%s] %s, the program %s [%s] %s", kind, i, d.Name, d.Unit, d.Better, w.name, w.unit, better)
			}
			if !name.MatchString(d.Name) {
				t.Errorf("%s: bad metric name %q", kind, d.Name)
			}
			if (d.Bound != nil) != (w.bound != 0) || (d.Bound != nil && *d.Bound != w.bound) {
				t.Errorf("%s %s: bounds differ", kind, d.Name)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	if !slices.ContainsFunc(endToEnd, func(d metricDef) bool { return d.name == "setup_s" && d.unit == "s" && d.lowerBetter }) {
		t.Error("setup_s [s], lower better, must be an end-to-end metric")
	}
}

// TestSmoke runs every workload untraced and traced at a sliver of its
// count: no failures, exactly the declared metrics, and a well-nested trace.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	for _, sp := range specs {
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(sp, smokeOptions(sp, trace, dir))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", sp.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v, %d of %d failed", sp.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d declared", sp.name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s missing or in unit %q", sp.name, trace, d.name, m.Unit)
				}
			}
		}
		checkTraceFile(t, filepath.Join(dir, "trace-"+sp.name+".json"))
	}
}

func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc traceDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(doc.Spans) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	children := 0
	for i, s := range doc.Spans {
		if s.ID != i || s.EndNs < s.StartNs {
			t.Fatalf("%s: span %d has id %d and runs %d..%d", path, i, s.ID, s.StartNs, s.EndNs)
		}
		if s.Parent < 0 {
			continue
		}
		children++
		p := doc.Spans[s.Parent]
		if s.Parent >= i || p.Worker != s.Worker || p.Txn != s.Txn || s.StartNs < p.StartNs || s.EndNs > p.EndNs {
			t.Fatalf("%s: span %d (%s %d..%d) is not inside its parent %d (%s %d..%d)",
				path, i, s.Name, s.StartNs, s.EndNs, s.Parent, p.Name, p.StartNs, p.EndNs)
		}
	}
	if children == 0 {
		t.Errorf("%s: only root spans", path)
	}
}

// TestDeterminism: the seed fixes the inputs, and on the one-worker
// workloads the inputs fix every count the program keeps.
func TestDeterminism(t *testing.T) {
	for _, sp := range specs {
		count := sp.rate * 10 / 1000
		run := func(seed uint64) *pass {
			p, err := runPass(sp, seed, count, sp.workers, true, time.Now())
			if err != nil {
				t.Fatal(err)
			}
			if p.checkErr != nil || p.failed != 0 {
				t.Fatalf("%s seed %d: %d failed, check: %v", sp.name, seed, p.failed, p.checkErr)
			}
			return p
		}
		a, b, other := run(1), run(1), run(2)
		if a.in.ringChecksum() != b.in.ringChecksum() {
			t.Errorf("%s: one seed, two input rings", sp.name)
		}
		if a.in.ringChecksum() == other.in.ringChecksum() {
			t.Errorf("%s: seeds 1 and 2 draw the same inputs", sp.name)
		}
		if sp.workers == 1 && a.counts != b.counts {
			t.Errorf("%s: counts differ between identical runs:\n%+v\n%+v", sp.name, a.counts, b.counts)
		}
	}
}
