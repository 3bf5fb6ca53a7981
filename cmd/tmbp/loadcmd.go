package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"

	"tmbp/internal/load"
	"tmbp/internal/opacity"
	"tmbp/internal/report"
	"tmbp/tmds"
)

// runLoad executes the open-loop service benchmark: a seeded load
// generator drives the tmds structures through the STM at a configured
// arrival rate and reports throughput plus p50/p99/p999 open-loop latency
// for every row of loadRows (see internal/load). Without -virtual, real
// worker goroutines race real arrivals on the wall clock. With -virtual the
// run is a discrete-event simulation whose rows are byte-identical across
// machines for the same seed (internal/load's tests pin the default rows).
// Virtual transactions execute serially, so nothing ever conflicts: the
// rows check the determinism of the generator and the histogram and carry
// no runtime signal.
func runLoad(fs *flag.FlagSet, args []string) error {
	// base is the scenario every row starts from: the flags bind to it.
	var base load.Scenario
	jsonOut := fs.Bool("json", false, "emit JSON instead of an aligned table")
	fs.BoolVar(&base.Virtual, "virtual", false, "deterministic discrete-event run on a virtual clock (byte-reproducible per seed)")
	structName := fs.String("struct", "all", "structure under load: hashmap | list | queue | skiplist | all")
	fs.StringVar(&base.Table, "table", "tagged", "ownership table: tagless | tagged | sharded")
	fs.StringVar(&base.Arrival, "arrival", "poisson", "arrival process: fixed | poisson")
	fs.Float64Var(&base.RatePerSec, "rate", 2e6, "mean arrivals per second")
	fs.IntVar(&base.Workers, "workers", 4, "servers: goroutines (wall clock) or simulated servers (-virtual)")
	fs.IntVar(&base.Ops, "ops", 20000, "transactions per scenario")
	fs.IntVar(&base.Keys, "keys", 1024, "key-space size")
	fs.Float64Var(&base.ZipfS, "zipf", 0.9, "Zipf key-popularity exponent (0 = uniform)")
	fs.Float64Var(&base.ReadFrac, "read-frac", 0.75, "fraction of operations that observe rather than mutate (0 selects the default)")
	fs.Float64Var(&base.MeanOps, "mean-ops", 4, "mean operations per transaction (geometric, >= 1)")
	fs.Int64Var(&base.ServiceNs, "service-ns", 250, "simulated per-operation service time for -virtual")
	fs.Uint64Var(&base.Seed, "seed", 1, "root random seed")
	fs.IntVar(&base.Bits, "bits", 7, "histogram precision in sub-bucket bits (relative error 2^-bits)")
	fs.Uint64Var(&base.TableEntries, "entries", 4096, "ownership table entries (power of two)")
	scanFrac := fs.Float64("scan-frac", 0.25, "fraction of operations that range-scan in the skiplist scan rows")
	scanSpan := fs.Int("scan-span", 64, "inclusive key width of each range scan in the skiplist scan rows")
	record := fs.String("record", "", "directory to write one opacity trace per scenario (verify with 'tmbp check')")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var rows []load.Row
	for _, row := range loadRows {
		if *structName != "all" && *structName != row.structure {
			continue
		}
		sc := base
		sc.Struct, sc.Invisible = row.structure, row.invisible
		if row.readFrac != 0 {
			sc.ReadFrac = row.readFrac
		}
		if row.scan {
			sc.ScanFrac, sc.ScanSpan = *scanFrac, *scanSpan
		}
		var trace *opacity.Log
		if *record != "" {
			trace = opacity.NewLog()
			sc.Recorder = trace
		}
		res, err := load.Run(sc)
		if err != nil {
			return err
		}
		rows = append(rows, res.Row)
		if trace != nil {
			name := fmt.Sprintf("load_%s_%s.trace", row.name, base.Table)
			if err := trace.DumpFile(*record, name); err != nil {
				return err
			}
		}
	}
	if len(rows) == 0 {
		return fmt.Errorf("load: unknown structure %q (want one of %v or all)", *structName, tmds.Kinds())
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(jsonReport{Schema: 2, GoVersion: runtime.Version(),
			GOMAXPROCS: runtime.GOMAXPROCS(0), Rows: rows})
	}
	t := report.New("Open-loop load benchmark",
		"struct", "reads", "tput tx/s", "p50 ns", "p99 ns", "p999 ns", "max ns", "abort rate")
	for _, r := range rows {
		reads := fmt.Sprintf("%.0f%%", r.ReadFrac*100)
		if r.ScanFrac > 0 {
			reads += fmt.Sprintf(" s%.0f%%", r.ScanFrac*100)
		}
		if r.Invisible {
			reads += " inv"
		}
		t.Add(r.Struct, reads,
			report.F1(r.ThroughputTPS),
			fmt.Sprintf("%d", r.P50Ns),
			fmt.Sprintf("%d", r.P99Ns),
			fmt.Sprintf("%d", r.P999Ns),
			fmt.Sprintf("%d", r.MaxNs),
			report.Pct(r.AbortRate))
	}
	mode := "wall clock"
	if base.Virtual {
		mode = "virtual clock (deterministic)"
	}
	t.Note("open loop: latency is completion minus scheduled arrival (%s arrivals at %.0f/s, %d workers, %s table, seed %d, %s)",
		base.Arrival, base.RatePerSec, base.Workers, base.Table, base.Seed, mode)
	t.Note("quantiles from per-worker log-bucketed histograms (relative error <= 2^-%d), merged after the run", base.Bits)
	t.Note("'inv' rows commit read-only transactions by version validation (invisible readers) instead of acquiring ownership; the row above each is its acquiring twin on the identical arrival stream, so the pair isolates the read protocol")
	t.Note("s%% rows: that fraction of operations range-scan %d keys in one transaction, a multi-hundred-word footprint per scan", *scanSpan)
	return t.Render(os.Stdout)
}

// jsonReport is the envelope of `tmbp load -json`.
type jsonReport struct {
	Schema     int        `json:"schema"`
	GoVersion  string     `json:"go"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	Rows       []load.Row `json:"rows"`
}

// loadRow is one scenario of the load sweep: a structure plus what it
// overrides in the flag-derived base scenario.
type loadRow struct {
	name      string // trace-file tag
	structure string
	readFrac  float64 // replaces -read-frac when nonzero
	scan      bool    // -scan-frac of operations range-scan -scan-span keys
	invisible bool    // invisible readers instead of acquiring reads
}

// loadRows is the sweep, in output order: every structure at the flag
// defaults, then two acquiring/invisible pairs (ReadFrac and Invisible don't
// perturb the arrival stream, so a pair shares its plan). The hashmap is
// the structure whose transactions most often stay read-only; a skiplist
// scan reads every level-0 node of its span in one transaction, so those
// rows show the footprint-vs-conflict trade the point rows cannot.
var loadRows = []loadRow{
	{name: "hashmap", structure: "hashmap"},
	{name: "list", structure: "list"},
	{name: "queue", structure: "queue"},
	{name: "skiplist", structure: "skiplist"},
	{name: "ro_hashmap_acq", structure: "hashmap", readFrac: 0.9},
	{name: "ro_hashmap_inv", structure: "hashmap", readFrac: 0.9, invisible: true},
	{name: "scan_skiplist_acq", structure: "skiplist", scan: true},
	{name: "scan_skiplist_inv", structure: "skiplist", scan: true, invisible: true},
}
