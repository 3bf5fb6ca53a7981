// Command tmbp regenerates the tables and figures of Zilles & Rajwar,
// "Transactional Memory and the Birthday Paradox" (SPAA 2007), from the
// reproduction's simulators and synthetic workloads.
//
// Usage:
//
//	tmbp <subcommand> [flags]
//
// Subcommands:
//
//	fig2    trace-driven alias likelihood (Figure 2, panels a-c)
//	fig3    HTM overflow characterization (Figure 3, panels a-b)
//	fig4    lock-step model validation (Figure 4, panels a-b)
//	fig5    closed-system conflicts (Figure 5, panels a-b)
//	fig6    applied vs actual concurrency (Figure 6, panels a-b)
//	sizing  analytical table-sizing (Sections 3.1-3.2) + model ablation
//	tagged  tagged-table characterization (Section 5)
//	ablation victim-buffer depth sweep, hash ablation, hash diagnostics
//	isolation strong-isolation conflict study (Section 6)
//	stm     end-to-end STM run: tagless vs tagged abort rates
//	check   verify recorded transactional traces for opacity
//	model   evaluate the conflict model at one configuration
//	all     every figure above, in paper order (stm and model are
//	        separate live-runtime/point commands and are not included)
//
// Common flags: -seed, -quick, -csv, -samples, -trials, -traces, -hash.
//
// Runtime speed is measured only by the benchmark/ module; opacity traces
// are recorded by the test suites (-opacity-record) and replayed with check.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"tmbp/internal/figures"
	"tmbp/internal/report"
)

func main() {
	if len(os.Args) < 2 {
		usage(os.Stderr)
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	if err := run(cmd, args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(2) // the FlagSet already printed its usage
		}
		fmt.Fprintln(os.Stderr, "tmbp:", err)
		os.Exit(1)
	}
}

// subcommands lists every dispatchable subcommand, in usage order. The
// dispatch-table test in main_test.go checks each entry both dispatches
// and appears in the usage text, so a new subcommand cannot ship
// undocumented (nor a usage line go stale).
func subcommands() []string {
	return []string{
		"fig2", "fig3", "fig4", "fig5", "fig6",
		"sizing", "tagged", "ablation", "isolation",
		"stm", "check", "model", "all",
	}
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage: tmbp <subcommand> [flags]

subcommands:
  fig2 | fig3 | fig4 | fig5 | fig6   regenerate a figure
  sizing                             analytical table sizing (Secs. 3.1-3.2)
  tagged                             tagged-table characterization (Sec. 5)
  ablation                           victim-depth and hash ablations
  isolation                          strong-isolation study (Sec. 6)
  stm                                end-to-end STM abort-rate comparison
  check <trace-file>...              verify recorded traces for opacity
  model                              evaluate the conflict model at a point
  all                                run every figure in paper order
                                     (stm, model run separately)

run 'tmbp <subcommand> -h' for flags`)
}

// commonFlags registers the shared experiment flags on fs and returns a
// builder that assembles figures.Options after parsing.
func commonFlags(fs *flag.FlagSet) func() figures.Options {
	seed := fs.Uint64("seed", 1, "root random seed (all results are deterministic per seed)")
	quick := fs.Bool("quick", false, "use the ~10x cheaper sampling preset")
	samples := fs.Int("samples", 0, "override Figure 2 samples per point (paper: 10000)")
	trials := fs.Int("trials", 0, "override Figure 4 trials per point (paper: 1000)")
	closedTrials := fs.Int("closed-trials", 0, "override Figures 5-6 runs per point")
	traces := fs.Int("traces", 0, "override Figure 3 traces per benchmark (paper: 20)")
	alphaF := fs.Int("alpha", 2, "reads per write in synthetic transactions")
	hashName := fs.String("hash", "mask", "address hash: mask | fibonacci | mix")
	kind := fs.String("kind", "tagless", "ownership table under test: tagless | tagged | sharded")
	return func() figures.Options {
		o := figures.Paper(*seed)
		if *quick {
			o = figures.Quick(*seed)
		}
		if *samples > 0 {
			o.Samples = *samples
		}
		if *trials > 0 {
			o.LockstepTrials = *trials
		}
		if *closedTrials > 0 {
			o.ClosedTrials = *closedTrials
		}
		if *traces > 0 {
			o.Traces = *traces
		}
		o.Alpha = *alphaF
		o.Hash = *hashName
		o.Kind = *kind
		return o
	}
}

func run(cmd string, args []string) error {
	// ContinueOnError (not ExitOnError) so flag-parse failures and -h come
	// back as errors the caller — and the dispatch tests — can observe.
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	csv := fs.Bool("csv", false, "emit CSV instead of aligned tables")

	var figFn func(figures.Options) ([]*report.Table, error)
	switch cmd {
	case "fig2":
		figFn = figures.Fig2
	case "fig3":
		figFn = figures.Fig3
	case "fig4":
		figFn = figures.Fig4
	case "fig5":
		figFn = figures.Fig5
	case "fig6":
		figFn = figures.Fig6
	case "sizing":
		figFn = figures.Sizing
	case "tagged":
		figFn = figures.Tagged
	case "ablation":
		figFn = figures.Ablations
	case "isolation":
		figFn = figures.Isolation
	case "all":
		figFn = figures.All
	case "stm":
		return runSTM(fs, args, csv)
	case "check":
		return runCheck(fs, args)
	case "model":
		return runModel(fs, args)
	case "-h", "--help", "help":
		usage(os.Stderr)
		return nil
	default:
		usage(os.Stderr)
		return fmt.Errorf("unknown subcommand %q", cmd)
	}

	opts := commonFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	tables, err := figFn(opts())
	if err != nil {
		return err
	}
	return emit(tables, *csv)
}

func emit(tables []*report.Table, csv bool) error {
	for _, t := range tables {
		var err error
		if csv {
			fmt.Printf("# %s\n", t.Title)
			err = t.RenderCSV(os.Stdout)
			fmt.Println()
		} else {
			err = t.Render(os.Stdout)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
