package main

import (
	"flag"
	"fmt"
	"os"

	"tmbp/internal/opacity"
)

// runCheck implements `tmbp check <trace-file>...`: it replays recorded
// transactional histories through the opacity checker and fails if any
// trace is malformed or admits no opaque serialization. Traces come from
// the -opacity-record flag of the internal/stm and tmds test suites (or
// internal/fault's -fault-record).
func runCheck(fs *flag.FlagSet, args []string) error {
	quiet := fs.Bool("q", false, "only print failures")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, `usage: tmbp check [-q] <trace-file>...

Verifies recorded transactional traces for opacity: every transaction
attempt, including aborted ones, must have observed a consistent memory
snapshot in a single serialization order consistent with real time. The
check reduces opacity to linearizability of whole attempts against a
sequential word store and searches for a witness order; a failure prints
a minimal counterexample naming the inconsistent read and the events
that pin it.

Record traces with:
  go test ./internal/stm/ -run 'CM|AtomicHammer|Oracle' -opacity-record <dir>
  go test ./tmds/ -run 'Phantom|ScanHammer|KeyedTraces' -opacity-record <dir>`)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	files := fs.Args()
	if len(files) == 0 {
		fs.Usage()
		return fmt.Errorf("check: no trace files given")
	}
	failed := 0
	for _, file := range files {
		if err := checkFile(file, *quiet); err != nil {
			fmt.Fprintf(os.Stdout, "FAIL %s: %v\n", file, err)
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("check: %d of %d trace(s) failed", failed, len(files))
	}
	return nil
}

// checkFile verifies one trace file; a non-nil error means the trace is
// malformed or the recorded history is not opaque.
func checkFile(file string, quiet bool) error {
	f, err := os.Open(file)
	if err != nil {
		return err
	}
	defer f.Close()
	events, err := opacity.ReadTrace(f)
	if err != nil {
		return fmt.Errorf("malformed trace: %w", err)
	}
	res, err := opacity.CheckTrace(events)
	if err != nil {
		return fmt.Errorf("malformed trace: %w", err)
	}
	if !res.Opaque {
		return fmt.Errorf("%s", res)
	}
	if !quiet {
		fmt.Printf("ok   %s: %s\n", file, res)
	}
	return nil
}
