package figures

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"tmbp/internal/addr"
	"tmbp/internal/hash"
	"tmbp/internal/opacity"
	"tmbp/internal/otable"
	"tmbp/internal/report"
	"tmbp/internal/stm"
	"tmbp/internal/xrand"
)

// blockWords is the number of memory words per ownership block; the
// contended sweep spaces its hot words a block apart so each touch is its
// own chunk.
const blockWords = int(addr.BlockBytes / addr.WordBytes)

// The scaling experiment goes beyond the paper's figures: it measures the
// live STM's throughput as goroutines are added, across all three ownership
// table organizations. The paper's analysis bounds how often transactions
// conflict; this experiment exposes the other scalability axis — how much
// the table's own synchronization (CAS retries, occupancy and statistics
// counters, shared cache lines) costs as concurrency grows, which is
// exactly what the sharded organization is built to reduce.
//
// A second sweep runs a deliberately contended workload (a small shared
// block pool every thread hammers): the disjoint-stripe sweep never aborts
// on the tagged tables, so the retry path — backoff, the serial fallback,
// the abort tail — only shows where transactions genuinely collide.

// Scaling-experiment grid constants.
var (
	// ScaleGoroutines is the thread sweep.
	ScaleGoroutines = []int{1, 2, 4, 8}
	// ScaleTable is the ownership-table entry count (aggregate, all kinds).
	ScaleTable = uint64(4096)
	// ScaleWrites is the per-transaction write footprint.
	ScaleWrites = 8

	// ScaleCMTable is the table size for the contended sweep.
	ScaleCMTable = uint64(1024)
	// ScaleCMBlocks is the shared hot-block pool all threads draw from.
	ScaleCMBlocks = 64
	// ScaleCMWrites is the read-modify-write footprint per transaction in
	// the contended sweep.
	ScaleCMWrites = 4
	// ScaleCMFuzz is the per-access scheduler-yield probability in the
	// contended sweep. Without it, machines with few cores run each
	// transaction to completion inside one scheduler slice and conflicts
	// never materialize (see Config.FuzzYield).
	ScaleCMFuzz = 0.2
)

// scaleResult is one cell of the sweep.
type scaleResult struct {
	throughput float64 // committed transactions per second
	abortRate  float64
	shards     int    // sharded only
	maxConsec  uint64 // longest consecutive-abort run of any thread
	fbCommits  uint64 // commits made under the serial-fallback token
}

// Scale sweeps goroutines × table organizations over the disjoint-stripe
// workload (physically disjoint per-thread data that aliases heavily in a
// tagless table) and reports commit throughput and abort-rate curves.
func Scale(o Options) ([]*report.Table, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	// ScaleTxns is used by this experiment only, so it is validated here
	// rather than in the shared validate(): Options values assembled by hand
	// for the paper's figures stay valid without it.
	if o.ScaleTxns < 1 {
		return nil, fmt.Errorf("figures: ScaleTxns = %d must be positive", o.ScaleTxns)
	}
	kinds := otable.Kinds()

	rows := make([]map[string]scaleResult, len(ScaleGoroutines))
	for i, g := range ScaleGoroutines {
		rows[i] = make(map[string]scaleResult, len(kinds))
		for _, kind := range kinds {
			res, err := scaleRun(kind, g, o)
			if err != nil {
				return nil, err
			}
			rows[i][kind] = res
		}
	}

	// Columns are built from the same kind list the sweep runs over, so a
	// new organization shows up in the report automatically.
	thrCols := append([]string{"goroutines"}, kinds...)
	thrCols = append(thrCols, "sharded/tagged")
	thr := report.New("Scaling: committed transactions/sec by table organization", thrCols...)
	ab := report.New("Scaling: abort rate by table organization",
		append([]string{"goroutines"}, kinds...)...)
	shards := 0
	for i, g := range ScaleGoroutines {
		r := rows[i]
		speedup := 0.0
		if r["tagged"].throughput > 0 {
			speedup = r["sharded"].throughput / r["tagged"].throughput
		}
		thrRow := []string{report.Int(g)}
		abRow := []string{report.Int(g)}
		for _, kind := range kinds {
			thrRow = append(thrRow, report.SI(uint64(r[kind].throughput)))
			abRow = append(abRow, report.Pct(r[kind].abortRate))
		}
		thr.Add(append(thrRow, report.F2(speedup)+"x")...)
		ab.Add(abRow...)
		if sh := r["sharded"].shards; sh > 0 {
			shards = sh
		}
	}
	note := fmt.Sprintf("N=%d entries, W=%d writes/txn, alpha=%d, %d txns/goroutine, hash=%s, GOMAXPROCS=%d, %d shards",
		ScaleTable, ScaleWrites, o.Alpha, o.ScaleTxns, o.Hash, runtime.GOMAXPROCS(0), shards)
	thr.Note("%s", note)
	thr.Note("per-thread stripes are physically disjoint: tagless aborts are all false conflicts; tagged and sharded run conflict-free")
	ab.Note("%s", note)

	cm, err := scaleCM(o)
	if err != nil {
		return nil, err
	}
	return []*report.Table{thr, ab, cm}, nil
}

// scaleCM sweeps goroutines over a contended workload: every thread runs
// read-modify-write transactions over the same small pool of hot blocks, so
// aborts are frequent true conflicts and the retry path — randomized
// backoff, plus the serial fallback when FallbackAfter enables it — decides
// throughput. Beside throughput and abort rate it reports the tail: the
// longest consecutive-abort run any single thread suffered, which the mean
// abort rate hides.
func scaleCM(o Options) (*report.Table, error) {
	cols := []string{"goroutines", "txns/sec", "abort rate", "max consecutive aborts"}
	if o.FallbackAfter > 0 {
		cols = append(cols, "fallback commits")
	}
	t := report.New("Scaling: contended hot pool", cols...)
	for _, g := range ScaleGoroutines {
		res, err := scaleCMRun(g, o)
		if err != nil {
			return nil, err
		}
		row := []string{report.Int(g), report.SI(uint64(res.throughput)),
			report.Pct(res.abortRate), report.Int(int(res.maxConsec))}
		if o.FallbackAfter > 0 {
			row = append(row, report.Int(int(res.fbCommits)))
		}
		t.Add(row...)
	}
	t.Note("tagged table, N=%d entries, %d shared hot blocks, W=%d read-modify-writes/txn, %d txns/goroutine, fuzz=%.2f, GOMAXPROCS=%d",
		ScaleCMTable, ScaleCMBlocks, ScaleCMWrites, o.ScaleTxns, ScaleCMFuzz, runtime.GOMAXPROCS(0))
	t.Note("all threads draw blocks from one hot pool: aborts are true conflicts, retried after randomized backoff")
	if o.FallbackAfter > 0 {
		t.Note("fallback commits: made while holding the runtime-wide serial token (FallbackAfter=%d), how often optimism was abandoned to guarantee progress", o.FallbackAfter)
	}
	return t, nil
}

// scaleCMRun measures one contended cell: `goroutines` goroutines each
// committing o.ScaleTxns read-modify-write transactions over the shared
// hot-block pool.
func scaleCMRun(goroutines int, o Options) (scaleResult, error) {
	h, err := hash.New(o.Hash, ScaleCMTable)
	if err != nil {
		return scaleResult{}, err
	}
	tab, err := otable.New("tagged", h)
	if err != nil {
		return scaleResult{}, err
	}
	words := ScaleCMBlocks * blockWords
	mem := stm.NewMemory(words)
	cfg := stm.Config{Table: tab, Memory: mem, Seed: o.Seed,
		FuzzYield: ScaleCMFuzz, FallbackAfter: o.FallbackAfter}
	var trace *opacity.Log
	if o.RecordDir != "" {
		trace = opacity.NewLog()
		cfg.Recorder = trace
	}
	rt, err := stm.New(cfg)
	if err != nil {
		return scaleResult{}, err
	}

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	start := time.Now()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(gid int) {
			defer wg.Done()
			th := rt.NewThread()
			r := xrand.NewWithStream(o.Seed, uint64(1000+gid))
			for i := 0; i < o.ScaleTxns; i++ {
				if err := th.Atomic(func(tx *stm.Tx) error {
					for k := 0; k < ScaleCMWrites; k++ {
						blk := r.Intn(ScaleCMBlocks)
						a := mem.WordAddr(blk * blockWords)
						tx.Write(a, tx.Read(a)+1)
					}
					return nil
				}); err != nil {
					errs <- fmt.Errorf("scale contended g=%d: %w", gid, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	if err := <-errs; err != nil {
		return scaleResult{}, err
	}

	st := rt.Stats()
	res := scaleResult{abortRate: st.AbortRate(),
		maxConsec: st.MaxConsecutiveAborts, fbCommits: st.FallbackCommits}
	if secs := elapsed.Seconds(); secs > 0 {
		res.throughput = float64(st.Commits) / secs
	}
	if trace != nil {
		if err := trace.DumpFile(o.RecordDir, fmt.Sprintf("scale-contended-g%d.trace", goroutines)); err != nil {
			return scaleResult{}, err
		}
	}
	return res, nil
}

// scaleRun measures one cell: `goroutines` goroutines each committing
// o.ScaleTxns transactions against a fresh table of the given kind.
//
// The workload is the disjoint-stripe pattern of `tmbp stm`: each goroutine
// walks a private stripe of blocks placed a megablock apart (plus an odd
// skew) from its neighbors. The data is physically disjoint, so the tagged
// and sharded tables never conflict and the run measures pure metadata
// throughput; the tagless table aborts on aliasing, so its curve folds in
// the cost of false conflicts. Unlike `tmbp stm`, no scheduler yields are
// injected: the point is raw speed, not conflict demonstration.
func scaleRun(kind string, goroutines int, o Options) (scaleResult, error) {
	h, err := hash.New(o.Hash, ScaleTable)
	if err != nil {
		return scaleResult{}, err
	}
	tab, err := otable.New(kind, h)
	if err != nil {
		return scaleResult{}, err
	}
	blocksPerTxn := ScaleWrites * (1 + o.Alpha)
	stripeBlocks := blocksPerTxn * 8
	mem := stm.NewMemory(8) // footprint-only workload: memory is never touched
	rt, err := stm.New(stm.Config{Table: tab, Memory: mem, Seed: o.Seed})
	if err != nil {
		return scaleResult{}, err
	}

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	start := time.Now()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(gid int) {
			defer wg.Done()
			th := rt.NewThread()
			baseBlock := uint64(gid)*(1<<20) + uint64(gid)*379
			for i := 0; i < o.ScaleTxns; i++ {
				if err := th.Atomic(func(tx *stm.Tx) error {
					for k := 0; k < blocksPerTxn; k++ {
						blk := (i*blocksPerTxn + k) % stripeBlocks
						b := addr.Block(baseBlock + uint64(blk))
						if k%(o.Alpha+1) == o.Alpha {
							tx.WriteBlock(b)
						} else {
							tx.ReadBlock(b)
						}
					}
					return nil
				}); err != nil {
					errs <- fmt.Errorf("scale %s g=%d: %w", kind, gid, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	if err := <-errs; err != nil {
		return scaleResult{}, err
	}

	st := rt.Stats()
	res := scaleResult{abortRate: st.AbortRate()}
	if secs := elapsed.Seconds(); secs > 0 {
		res.throughput = float64(st.Commits) / secs
	}
	if sh, ok := tab.(*otable.Sharded); ok {
		res.shards = sh.Shards()
	}
	return res, nil
}
