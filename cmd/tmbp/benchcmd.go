package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"tmbp"
	"tmbp/internal/otable"
	"tmbp/internal/report"
	"tmbp/internal/stm"
	"tmbp/tmds"
)

// runBench executes the headline STM micro-workloads against every table
// organization and reports ns/op, allocs/op, and abort rate — the three
// numbers this project's performance work is steered by. With -json the
// result is machine-readable so successive PRs can be diffed against the
// checked-in BENCH_baseline.json.
//
// The harness is deliberately self-contained rather than delegating to
// `go test -bench`: measuring with a plain loop plus runtime.MemStats keeps
// the op count (and therefore runtime) an explicit flag, and makes the
// output format stable for tooling.
func runBench(fs *flag.FlagSet, args []string) error {
	var o benchOpts
	jsonOut := fs.Bool("json", false, "emit JSON instead of an aligned table")
	fs.Uint64Var(&o.entries, "entries", 4096, "ownership table entries (power of two)")
	fs.StringVar(&o.hashName, "hash", "mask", "address hash: mask | fibonacci | mix")
	fs.IntVar(&o.serialOps, "serial-ops", 200000, "transactions per serial measurement")
	fs.IntVar(&o.contOps, "contended-ops", 20000, "transactions per goroutine per contended measurement")
	fs.Uint64Var(&o.seed, "seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var results []benchResult
	for _, fam := range benchFamilies {
		for _, kind := range fam.kinds {
			for _, row := range fam.rows {
				r, err := measure(fam, row, kind, o)
				if err != nil {
					return err
				}
				results = append(results, r)
			}
		}
	}

	if *jsonOut {
		return emitJSON(jsonReport{Results: results})
	}
	t := report.New("STM benchmark suite",
		"workload", "table", "ops", "ns/op", "allocs/op", "B/op", "abort rate")
	for _, r := range results {
		t.Add(r.Workload+"/"+r.Kind,
			r.Kind,
			fmt.Sprintf("%d", r.Ops),
			report.F1(r.NsPerOp),
			fmt.Sprintf("%.2f", r.AllocsPerOp),
			fmt.Sprintf("%.1f", r.BytesPerOp),
			report.Pct(r.AbortRate))
	}
	for _, fam := range benchFamilies {
		t.Note("%s", fam.note)
	}
	t.Note("allocs/op and B/op are process-wide malloc deltas per transaction; steady state must be 0")
	return t.Render(os.Stdout)
}

// benchResult is one workload x table measurement.
type benchResult struct {
	Workload    string  `json:"workload"`
	Kind        string  `json:"kind"`
	Ops         int     `json:"ops"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AbortRate   float64 `json:"abort_rate"`
	Commits     uint64  `json:"commits"`
	Aborts      uint64  `json:"aborts"`
}

// benchOpts carries the flags every measurement shares.
type benchOpts struct {
	entries            uint64
	hashName           string
	serialOps, contOps int
	seed               uint64
}

// benchWords is the word range the raw-memory workloads walk. Every row
// gets the same memory, sized for the skiplist rows' structure; the rest of
// it is simply never touched by the others.
const (
	benchWords       = 1 << 12
	benchSkiplistCap = 512
)

// benchSetup prepares one row's runtime (threads, structures) and returns
// the per-iteration op — iteration i of the given worker — plus the number
// of warm-up iterations per worker that bring it to steady state.
type benchSetup func(rt *stm.Runtime, workers int, seed uint64) (op func(worker, i int) error, warm int, err error)

// benchRow is one workload of the scoreboard.
type benchRow struct {
	workload string
	cfg      stm.Config // contention policy, read protocol, backoff; measure adds Table, Memory, Seed
	div      int        // measured ops = -serial-ops / div (0 = 1) ...
	parallel bool       // ... or, when set, -contended-ops on each of GOMAXPROCS workers
	setup    benchSetup
}

// benchFamily is a group of rows swept kind-major (for each kind, every
// row) with the footnote that explains them in the rendered table.
type benchFamily struct {
	kinds   []string // result labels, each also the table organization unless table is set
	table   string
	entries uint64 // table entries; 0 = -entries
	rows    []benchRow
	note    string
}

// perPolicy builds one row per built-in contention-management policy.
func perPolicy(prefix string, cfg stm.Config, setup benchSetup) []benchRow {
	var rows []benchRow
	for _, policy := range stm.CMKinds() {
		cfg.CM = policy
		rows = append(rows, benchRow{workload: prefix + policy, cfg: cfg, setup: setup})
	}
	return rows
}

// benchFamilies is the scoreboard, in output order. BENCH_baseline.json and
// the CI gates key on workload/kind, so a new row needs a baseline row.
var benchFamilies = []benchFamily{
	{kinds: otable.Kinds(),
		rows: []benchRow{{workload: "serial", setup: setupRMW}},
		note: "serial: one thread, 8-word read-modify-write txns"},
	{kinds: []string{"tagged"},
		rows: perPolicy("serial-cm-", stm.Config{}, setupRMW),
		note: "serial-cm-*: the serial workload under each contention-management policy (no aborts occur; this prices the policy plumbing on the hot path, so the bench-diff gate catches a policy whose mere presence slows commits)"},
	// No transaction runs in these rows, so the table is never touched and
	// the result is labelled "cm" instead of a table kind.
	{kinds: []string{"cm"}, table: "tagged",
		rows: perPolicy("cmabort-", stm.Config{BackoffBase: -1}, setupCMAbort),
		note: "cmabort-*: the policy's Aborted callback invoked directly with synthetic writer/reader denials, waits disabled — the per-abort decision cost a serial run can never reach (karma ranks over the lock-free board, never a mutex)"},
	{kinds: otable.Kinds(),
		rows: []benchRow{
			{workload: "serial-ro-acquire", setup: setupRO},
			{workload: "serial-ro-invisible", cfg: stm.Config{InvisibleReaders: true}, setup: setupRO},
		},
		note: "serial-ro-*: one thread, read-only txns of 8 reads over 8 distinct chunks; -acquire takes read ownership per chunk (two table CASes), -invisible validates version stamps (two loads) and never touches the table, and is expected to win on every table kind"},
	{kinds: otable.Kinds(),
		rows: []benchRow{
			{workload: "serial-skiplist", div: 4, setup: setupSkiplist(false)},
			{workload: "serial-skiplist-scan", div: 100, setup: setupSkiplist(true)},
		},
		note: "serial-skiplist: one thread driving the transactional skiplist's Get/Put/Delete point mix; -scan instead range-scans all 128 entries per txn — a ~130-block footprint that spills the access set every transaction, so its allocs/op pins the spill table's steady-state reuse"},
	{kinds: otable.Kinds(), entries: 256,
		rows: []benchRow{{workload: "contended", parallel: true, setup: setupContended}},
		note: "contended: GOMAXPROCS threads of single-word read-modify-write txns on a small, heavily aliasing 256-entry table"},
}

// measure runs one row against one table kind. It is the only measuring
// loop: it assembles the runtime, warms the op up, brackets the measured
// iterations with the clock and runtime.MemStats, and reports them with the
// runtime's commit/abort delta. Allocation is the process-wide malloc delta
// across the timed region; in steady state it must be zero.
func measure(fam benchFamily, row benchRow, kind string, o benchOpts) (benchResult, error) {
	org, entries := kind, o.entries
	if fam.table != "" {
		org = fam.table
	}
	if fam.entries != 0 {
		entries = fam.entries
	}
	tab, err := tmbp.NewTable(org, entries, o.hashName)
	if err != nil {
		return benchResult{}, err
	}
	cfg := row.cfg
	cfg.Table, cfg.Memory, cfg.Seed = tab, stm.NewMemory(tmds.SkiplistWords(benchSkiplistCap)), o.seed
	rt, err := stm.New(cfg)
	if err != nil {
		return benchResult{}, err
	}
	workers, ops := 1, o.serialOps/max(row.div, 1)
	if row.parallel {
		workers, ops = runtime.GOMAXPROCS(0), o.contOps
	}
	op, warm, err := row.setup(rt, workers, o.seed)
	if err != nil {
		return benchResult{}, err
	}
	// phase runs n iterations on every worker: worker 0 on this goroutine,
	// the rest on goroutines held at a start barrier. armed is called once
	// they exist, just before release. Barrier and join spin on atomics
	// rather than block: a channel or WaitGroup wait takes a sudog, which
	// the runtime mallocs whenever its per-P cache happens to be empty, and
	// that malloc would land in the measured delta.
	phase := func(n int, armed func()) error {
		errs := make([]error, workers)
		loop := func(w int) {
			for i := 0; i < n; i++ {
				if err := op(w, i); err != nil {
					errs[w] = err
					return
				}
			}
		}
		var started atomic.Bool
		var finished atomic.Int32
		for w := 1; w < workers; w++ {
			go func(w int) {
				for !started.Load() {
					runtime.Gosched()
				}
				loop(w)
				finished.Add(1)
			}(w)
		}
		armed()
		started.Store(true)
		loop(0)
		for int(finished.Load()) < workers-1 {
			runtime.Gosched()
		}
		return errors.Join(errs...)
	}
	if err := phase(warm, func() {}); err != nil {
		return benchResult{}, err
	}
	base := rt.Stats()
	var before, after runtime.MemStats
	var t0 time.Time
	err = phase(ops, func() {
		runtime.ReadMemStats(&before)
		t0 = time.Now()
	})
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&after)
	if err != nil {
		return benchResult{}, err
	}
	st := rt.Stats()
	delta := stm.Stats{Commits: st.Commits - base.Commits, Aborts: st.Aborts - base.Aborts}
	total := workers * ops
	return benchResult{
		Workload:    row.workload,
		Kind:        kind,
		Ops:         total,
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(total),
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(total),
		BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / float64(total),
		AbortRate:   delta.AbortRate(),
		Commits:     delta.Commits,
		Aborts:      delta.Aborts,
	}, nil
}

// setupRMW is the serial workload: 8-word read-modify-write transactions
// walking the whole memory. The warm-up establishes access-set capacity and
// the table's record pools.
func setupRMW(rt *stm.Runtime, _ int, _ uint64) (func(_, i int) error, int, error) {
	mem, th := rt.Memory(), rt.NewThread()
	return func(_, i int) error {
		return th.Atomic(func(tx *stm.Tx) error {
			for k := 0; k < 8; k++ {
				a := mem.WordAddr((i*8 + k) % benchWords)
				tx.Write(a, tx.Read(a)+1)
			}
			return nil
		})
	}, 1000, nil
}

// setupRO is the read-only workload. Each of the 8 reads lands in its own
// chunk — reads within an already-read chunk would mostly hit the access
// set and measure nothing — and i walks the whole space, so the warm-up
// touches every table slot.
func setupRO(rt *stm.Runtime, _ int, _ uint64) (func(_, i int) error, int, error) {
	mem, th := rt.Memory(), rt.NewThread()
	return func(_, i int) error {
		return th.Atomic(func(tx *stm.Tx) error {
			for k := 0; k < 8; k++ {
				tx.Read(mem.WordAddr((i + k*(benchWords/8)) % benchWords))
			}
			return nil
		})
	}, 1000, nil
}

// setupSkiplist drives the skiplist through the public facade — the code
// path tmds users take — half full (even keys of [0, 256)). Warm-up grows
// the thread's access set to the scan footprint, so the measured region
// must allocate nothing.
func setupSkiplist(scan bool) benchSetup {
	return func(rt *stm.Runtime, _ int, seed uint64) (func(_, i int) error, int, error) {
		s, err := tmds.NewSkiplist(rt.Memory(), 0, benchSkiplistCap, seed)
		if err != nil {
			return nil, 0, err
		}
		th := rt.NewThread()
		for k := uint64(0); k < 256; k += 2 {
			if _, err := s.Put(th, k, k); err != nil {
				return nil, 0, err
			}
		}
		if scan {
			// Body and callback are built once: the measured loop carries
			// no per-iteration closure.
			body := func(tx *stm.Tx) error {
				return s.RangeScanTx(tx, 0, 255, func(_, _ uint64) error { return nil })
			}
			return func(_, _ int) error { return th.Atomic(body) }, 200, nil
		}
		return func(_, i int) error {
			k := uint64(i*31) % 256
			var err error
			switch i % 10 {
			case 0, 1:
				_, err = s.Put(th, k, uint64(i))
			case 2:
				_, err = s.Delete(th, k)
			default:
				_, _, err = s.Get(th, k)
			}
			return err
		}, 200, nil
	}
}

// setupCMAbort alternates the two shapes a real denial takes — a known
// writer opponent and an anonymous reader count — against a runtime with
// several registered threads, so board-ranking policies have something to
// rank over. The rows disable all waiting (BackoffBase = -1): ns/op is the
// decision bookkeeping alone.
func setupCMAbort(rt *stm.Runtime, _ int, _ uint64) (func(_, i int) error, int, error) {
	ths := make([]*stm.Thread, 8)
	for i := range ths {
		ths[i] = rt.NewThread()
	}
	cm := ths[0].CM()
	oppWriter := otable.WriterConflict(ths[1].ID())
	oppReaders := otable.ReadersConflict(2)
	return func(_, i int) error {
		opp := oppWriter
		if i&1 == 1 {
			opp = oppReaders
		}
		cm.Aborted(i&7+1, 8, opp)
		if i&7 == 7 {
			cm.Committed(8)
		}
		return nil
	}, 1000, nil
}

// setupContended is the BenchmarkSTMContended shape: every worker runs
// single-word read-modify-write transactions over addresses that collide in
// the family's small table.
func setupContended(rt *stm.Runtime, workers int, _ uint64) (func(w, i int) error, int, error) {
	mem := rt.Memory()
	ths := make([]*stm.Thread, workers)
	for w := range ths {
		ths[w] = rt.NewThread()
	}
	return func(w, i int) error {
		return ths[w].Atomic(func(tx *stm.Tx) error {
			a := mem.WordAddr(((w + i) * 8 * 31) % benchWords)
			tx.Write(a, tx.Read(a)+1)
			return nil
		})
	}, 500, nil
}
