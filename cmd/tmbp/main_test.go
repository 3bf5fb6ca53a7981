package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

// capture runs fn with os.Stdout redirected to a pipe and returns what it
// wrote.
func capture(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	errc := make(chan error, 1)
	go func() { errc <- fn() }()
	runErr := <-errc
	w.Close()
	os.Stdout = old
	buf := make([]byte, 1<<20)
	n, _ := r.Read(buf)
	r.Close()
	if runErr != nil {
		t.Fatalf("run failed: %v", runErr)
	}
	return string(buf[:n])
}

// tinyArgs is the cheapest valid sampling configuration.
var tinyArgs = []string{"-samples", "40", "-trials", "40", "-closed-trials", "1", "-traces", "2"}

func TestRunUnknownSubcommand(t *testing.T) {
	if err := run("bogus", nil); err == nil {
		t.Fatal("unknown subcommand accepted")
	}
}

func TestRunModelSubcommand(t *testing.T) {
	out := capture(t, func() error { return run("model", []string{"-c", "8", "-w", "71"}) })
	if !strings.Contains(out, "14114800") {
		t.Errorf("model output missing the paper's 14.1M-entry anchor:\n%s", out)
	}
}

func TestRunSizingSubcommand(t *testing.T) {
	out := capture(t, func() error { return run("sizing", tinyArgs) })
	if !strings.Contains(out, "50410") || !strings.Contains(out, "birthday") {
		t.Errorf("sizing output incomplete:\n%s", out)
	}
}

func TestRunFig4Tiny(t *testing.T) {
	out := capture(t, func() error { return run("fig4", tinyArgs) })
	if !strings.Contains(out, "Figure 4(a)") || !strings.Contains(out, "Figure 4(b)") {
		t.Errorf("fig4 output incomplete:\n%s", out)
	}
}

func TestRunFig5CSV(t *testing.T) {
	out := capture(t, func() error { return run("fig5", append([]string{"-csv"}, tinyArgs...)) })
	if !strings.Contains(out, "# Figure 5(a)") || !strings.Contains(out, ",") {
		t.Errorf("fig5 CSV output incomplete:\n%s", out)
	}
}

func TestRunIsolationTiny(t *testing.T) {
	out := capture(t, func() error { return run("isolation", tinyArgs) })
	if !strings.Contains(out, "strong isolation") {
		t.Errorf("isolation output incomplete:\n%s", out)
	}
}

func TestRunScaleSubcommand(t *testing.T) {
	out := capture(t, func() error {
		return run("scale", append([]string{"-scale-txns", "25"}, tinyArgs...))
	})
	for _, want := range []string{"transactions/sec", "abort rate", "sharded/tagged", "GOMAXPROCS"} {
		if !strings.Contains(out, want) {
			t.Errorf("scale output missing %q:\n%s", want, out)
		}
	}
}

func TestRunSTMSubcommand(t *testing.T) {
	out := capture(t, func() error {
		return run("stm", []string{"-threads", "2", "-writes", "4", "-entries", "512", "-txns", "20"})
	})
	if !strings.Contains(out, "tagless") || !strings.Contains(out, "tagged") {
		t.Errorf("stm output incomplete:\n%s", out)
	}
}

func TestHelp(t *testing.T) {
	if err := run("help", nil); err != nil {
		t.Fatalf("help returned error: %v", err)
	}
}

// TestDispatchTableComplete proves every name in subcommands() actually
// dispatches: run(name, -h) must reach that subcommand's flag parsing and
// come back with flag.ErrHelp (an unknown name returns the "unknown
// subcommand" error instead). A subcommand added to the switch but not to
// subcommands() — or vice versa — fails here.
func TestDispatchTableComplete(t *testing.T) {
	for _, name := range subcommands() {
		if err := run(name, []string{"-h"}); !errors.Is(err, flag.ErrHelp) {
			t.Errorf("run(%q, -h) = %v, want flag.ErrHelp", name, err)
		}
	}
	// "bench" is the retired scoreboard subcommand (benchmark/ is the one
	// scoreboard): it must be rejected like any unknown name.
	for _, name := range []string{"bogus", "bench"} {
		err := run(name, []string{"-h"})
		if want := fmt.Sprintf("unknown subcommand %q", name); err == nil || err.Error() != want {
			t.Errorf("run(%q, -h) = %v, want %s", name, err, want)
		}
	}
}

// TestUsageListsEverySubcommand keeps the usage text in lock-step with the
// dispatch table, so a future subcommand can't ship undocumented.
func TestUsageListsEverySubcommand(t *testing.T) {
	var buf bytes.Buffer
	usage(&buf)
	for _, name := range subcommands() {
		if !strings.Contains(buf.String(), name) {
			t.Errorf("usage text does not mention subcommand %q", name)
		}
	}
}

// TestRunLoadFlagErrors pins the load subcommand's argument validation:
// unknown flags fail at parse, bad values fail at scenario validation.
func TestRunLoadFlagErrors(t *testing.T) {
	cases := [][]string{
		{"-no-such-flag"},
		{"-rate", "-5"},
		{"-struct", "btree"},
		{"-table", "cuckoo"},
		{"-cm", "backoff"}, // the flag is gone: one built-in policy
		{"-arrival", "bursty"},
		{"-mean-ops", "0.5"},
		{"-bits", "99"},
		{"-entries", "3"},
	}
	for _, args := range cases {
		if err := run("load", append([]string{"-virtual", "-ops", "10"}, args...)); err == nil {
			t.Errorf("load %v accepted", args)
		}
	}
}

// loadTestArgs is a cheap deterministic load sweep: the 8 default rows, 300
// transactions each, on the virtual clock.
var loadTestArgs = []string{"-json", "-virtual", "-ops", "300", "-keys", "64"}

// loadRowJSON is the slice of a `tmbp load -json` row the tests look at.
type loadRowJSON struct {
	Struct        string  `json:"struct"`
	Virtual       bool    `json:"virtual"`
	Ops           int     `json:"ops"`
	ReadFrac      float64 `json:"read_frac"`
	ScanFrac      float64 `json:"scan_frac"`
	Invisible     bool    `json:"invisible"`
	ThroughputTPS float64 `json:"throughput_tps"`
	P50           int64   `json:"p50_ns"`
	P99           int64   `json:"p99_ns"`
	P999          int64   `json:"p999_ns"`
	Max           int64   `json:"max_ns"`
	Commits       uint64  `json:"commits"`
}

// runLoadJSON runs `tmbp load` with loadTestArgs plus extra and decodes the
// report's rows.
func runLoadJSON(t *testing.T, extra ...string) []loadRowJSON {
	t.Helper()
	args := append(append([]string{}, loadTestArgs...), extra...)
	out := capture(t, func() error { return run("load", args) })
	var rep struct {
		Schema int           `json:"schema"`
		Rows   []loadRowJSON `json:"rows"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("load -json emitted invalid JSON: %v\n%s", err, out)
	}
	if rep.Schema != 2 {
		t.Fatalf("load report schema = %d, want 2", rep.Schema)
	}
	if strings.Contains(out, `"cm"`) {
		t.Fatalf("schema 2 rows carry no cm field:\n%s", out)
	}
	return rep.Rows
}

// TestRunLoadSubcommandJSON pins the shape of `tmbp load -json`: by default
// one row per scenario that exercises different code — the four structures,
// the read-mostly hashmap pair and the skiplist scan pair — each carrying
// throughput and monotone latency quantiles; -struct filters every family.
func TestRunLoadSubcommandJSON(t *testing.T) {
	rows := runLoadJSON(t)
	if len(rows) != 8 {
		t.Fatalf("default sweep has %d rows, want 8", len(rows))
	}
	seen := map[string]bool{}
	for _, r := range rows {
		name := r.Struct
		switch {
		case r.ScanFrac > 0:
			name += "/scan"
		case r.ReadFrac == 0.9:
			name += "/ro"
		}
		if r.ScanFrac > 0 || r.ReadFrac == 0.9 {
			name += map[bool]string{false: "/acq", true: "/inv"}[r.Invisible]
		}
		seen[name] = true
		if !r.Virtual || r.Ops != 300 {
			t.Errorf("%s: virtual=%v ops=%d", name, r.Virtual, r.Ops)
		}
		if r.ThroughputTPS <= 0 || r.Commits < 300 {
			t.Errorf("%s: throughput=%v commits=%d", name, r.ThroughputTPS, r.Commits)
		}
		if r.P50 > r.P99 || r.P99 > r.P999 || r.P999 > r.Max {
			t.Errorf("%s: quantiles not monotone: %d/%d/%d/%d", name, r.P50, r.P99, r.P999, r.Max)
		}
	}
	for _, want := range []string{"hashmap", "list", "queue", "skiplist",
		"hashmap/ro/acq", "hashmap/ro/inv", "skiplist/scan/acq", "skiplist/scan/inv"} {
		if !seen[want] {
			t.Errorf("default sweep missing row %s (have %v)", want, seen)
		}
	}

	// -struct filters the companion pairs too, not just the per-structure rows.
	for structName, want := range map[string]int{"queue": 1, "list": 1, "hashmap": 3, "skiplist": 3} {
		got := runLoadJSON(t, "-struct", structName)
		if len(got) != want {
			t.Errorf("-struct %s: %d rows, want %d", structName, len(got), want)
		}
		for _, r := range got {
			if r.Struct != structName {
				t.Errorf("-struct %s emitted a %s row", structName, r.Struct)
			}
		}
	}
}

// TestRunLoadJSONDeterministic is the CLI-level determinism contract the
// CI gate relies on: two -virtual runs of the same seed emit byte-
// identical output.
func TestRunLoadJSONDeterministic(t *testing.T) {
	a := capture(t, func() error { return run("load", loadTestArgs) })
	b := capture(t, func() error { return run("load", loadTestArgs) })
	if a != b {
		t.Fatalf("virtual reruns differ:\n%s\n---\n%s", a, b)
	}
}

// TestRunLoadSubcommandTable smoke-tests the human-readable rendering.
func TestRunLoadSubcommandTable(t *testing.T) {
	out := capture(t, func() error {
		return run("load", []string{"-virtual", "-ops", "200", "-keys", "64", "-struct", "hashmap"})
	})
	for _, want := range []string{"p999", "abort rate", "hashmap", "open loop"} {
		if !strings.Contains(out, want) {
			t.Errorf("load table output missing %q:\n%s", want, out)
		}
	}
}
