package main

import (
	"bytes"
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

func TestRunSTMSubcommand(t *testing.T) {
	out := capture(t, func() error {
		return run("stm", []string{"-threads", "2", "-writes", "4", "-entries", "512", "-txns", "20"})
	})
	if !strings.Contains(out, "tagless") || !strings.Contains(out, "tagged") {
		t.Errorf("stm output incomplete:\n%s", out)
	}
}

// TestRunSTMTaggedNoFalseConflicts runs the stm experiment where the
// tagless table aliases hardest — eight threads on a 256-entry table — and
// holds the tagged row to its "model prediction 0.0%": every abort and every
// denied acquire there would be a false conflict, and a tagged table has no
// alias that could deny one.
func TestRunSTMTaggedNoFalseConflicts(t *testing.T) {
	out := capture(t, func() error {
		return run("stm", []string{"-csv", "-threads", "8", "-entries", "256", "-txns", "50"})
	})
	rows := map[string][]string{}
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Split(line, ","); len(f) == 6 {
			rows[f[0]] = f
		}
	}
	tagged, ok := rows["tagged"]
	if !ok || rows["tagless"] == nil {
		t.Fatalf("stm output has no tagless and tagged rows:\n%s", out)
	}
	if tagged[1] != "400" || tagged[2] != "0" || tagged[4] != "0.0%" {
		t.Fatalf("tagged row = %v, want 400 commits, 0 aborts and 0.0%% denials per attempt:\n%s", tagged, out)
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
	// "bench", "scale" and "load" are retired wall-clock commands
	// (benchmark/ is the one wall-clock harness): each must be rejected like
	// any unknown name.
	for _, name := range []string{"bogus", "bench", "scale", "load"} {
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
