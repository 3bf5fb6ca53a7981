package load

import (
	"fmt"
	"sync"

	"tmbp"
	"tmbp/internal/opacity"
	"tmbp/internal/stm"
	"tmbp/internal/xrand"
	"tmbp/tmds"
)

// Stream identifiers for the scenario's independent randomness sources.
// Splitting by stream (not by sharing one generator) is what lets the
// arrival schedule stay identical when, say, the read fraction changes.
const (
	streamArrival = 1
	streamContent = 2
)

// Scenario describes one open-loop load run: a seeded plan of transactions
// against one structure × ownership-table kind. Zero values take the
// defaults noted per field; Normalize applies them and validates the rest.
type Scenario struct {
	// Struct is the tmds structure driven: "hashmap", "list", "queue", or
	// "skiplist". Default "hashmap".
	Struct string
	// Table is the ownership-table organization. Default "tagged".
	Table string
	// Arrival is the arrival process, "fixed" or "poisson". Default
	// "poisson" — the memoryless arrivals whose bursts build the tail.
	Arrival string
	// RatePerSec is the mean arrival rate. Default 2e6: with the default
	// Workers/MeanOps/ServiceNs this puts virtual-mode utilization near
	// 0.5, where queueing is visible but stable.
	RatePerSec float64
	// Workers is the number of servers: real goroutines in wall-clock
	// mode, simulated servers in virtual mode. Default 4.
	Workers int
	// Ops is the number of transactions to issue. Default 20000.
	Ops int
	// Keys is the key-space size; keys are drawn Zipf-distributed from
	// [0, Keys). Default 1024.
	Keys int
	// ZipfS is the Zipf skew exponent; 0 (the zero value, and the
	// default) is the uniform distribution, so there is no skew unless
	// asked for. The `tmbp load` flag defaults to 0.9 instead.
	ZipfS float64
	// ReadFrac is the probability an operation observes rather than
	// mutates. Default 0.75.
	ReadFrac float64
	// ScanFrac is the probability an operation is a range scan instead of
	// a point operation. Requires a structure implementing tmds.Ranged
	// (today: skiplist). Default 0 — point operations only, which keeps
	// the pre-drawn streams of scan-free scenarios unchanged.
	ScanFrac float64
	// ScanSpan is the inclusive width of each scan's key range: a scan at
	// key k covers [k, k+ScanSpan-1]. Only meaningful with ScanFrac > 0.
	// Default 64.
	ScanSpan int
	// Invisible enables the runtime's invisible-reader fast path
	// (STMConfig.InvisibleReaders): transactions that only read commit by
	// version validation instead of acquiring ownership. Most interesting
	// under high ReadFrac, where whole transactions stay read-only.
	Invisible bool
	// MeanOps is the mean transaction size; sizes are 1 + Geometric so a
	// transaction always does at least one operation. Must be >= 1.
	// Default 4.
	MeanOps float64
	// ServiceNs is the simulated per-operation service time used by the
	// virtual clock (wall-clock runs measure real time instead).
	// Default 250.
	ServiceNs int64
	// Virtual selects the deterministic mode: transactions execute
	// serially under a discrete-event simulation of Workers servers, and
	// the emitted Row is a pure function of the Scenario.
	Virtual bool
	// Seed drives every random stream. Default 1.
	Seed uint64
	// Bits is the histogram precision in sub-bucket bits. Default 7
	// (relative error <= 0.79%).
	Bits int
	// TableEntries sizes the ownership table. Default 4096.
	TableEntries uint64
	// Recorder, when non-nil, receives the run's transactional history
	// for offline opacity checking.
	Recorder stm.Recorder
}

// Normalize fills defaults into zero-valued fields and validates the rest,
// returning the completed scenario.
func (sc Scenario) Normalize() (Scenario, error) {
	if sc.Struct == "" {
		sc.Struct = "hashmap"
	}
	if sc.Table == "" {
		sc.Table = "tagged"
	}
	if sc.Arrival == "" {
		sc.Arrival = "poisson"
	}
	if sc.RatePerSec == 0 {
		sc.RatePerSec = 2e6
	}
	if sc.Workers == 0 {
		sc.Workers = 4
	}
	if sc.Ops == 0 {
		sc.Ops = 20000
	}
	if sc.Keys == 0 {
		sc.Keys = 1024
	}
	if sc.ReadFrac == 0 {
		sc.ReadFrac = 0.75
	}
	if sc.ScanSpan == 0 {
		sc.ScanSpan = 64
	}
	if sc.MeanOps == 0 {
		sc.MeanOps = 4
	}
	if sc.ServiceNs == 0 {
		sc.ServiceNs = 250
	}
	if sc.Seed == 0 {
		sc.Seed = 1
	}
	if sc.Bits == 0 {
		sc.Bits = 7
	}
	if sc.TableEntries == 0 {
		sc.TableEntries = 4096
	}
	if !contains(tmds.Kinds(), sc.Struct) {
		return sc, fmt.Errorf("load: unknown structure %q (want one of %v)", sc.Struct, tmds.Kinds())
	}
	if !contains(tmbp.TableKinds(), sc.Table) {
		return sc, fmt.Errorf("load: unknown table kind %q (want one of %v)", sc.Table, tmbp.TableKinds())
	}
	if !contains(Processes(), sc.Arrival) {
		return sc, fmt.Errorf("load: unknown arrival process %q (want one of %v)", sc.Arrival, Processes())
	}
	switch {
	case sc.RatePerSec < 0:
		return sc, fmt.Errorf("load: arrival rate %v must be positive", sc.RatePerSec)
	case sc.Workers < 0:
		return sc, fmt.Errorf("load: worker count %d must be positive", sc.Workers)
	case sc.Ops < 0:
		return sc, fmt.Errorf("load: op count %d must be positive", sc.Ops)
	case sc.Keys < 0:
		return sc, fmt.Errorf("load: key space %d must be positive", sc.Keys)
	case sc.ZipfS < 0:
		return sc, fmt.Errorf("load: Zipf skew %v must be non-negative", sc.ZipfS)
	case sc.ReadFrac < 0 || sc.ReadFrac > 1:
		return sc, fmt.Errorf("load: read fraction %v must be in [0, 1]", sc.ReadFrac)
	case sc.ScanFrac < 0 || sc.ScanFrac > 1:
		return sc, fmt.Errorf("load: scan fraction %v must be in [0, 1]", sc.ScanFrac)
	case sc.ScanSpan < 1:
		return sc, fmt.Errorf("load: scan span %d must be positive", sc.ScanSpan)
	case sc.MeanOps < 1:
		return sc, fmt.Errorf("load: mean transaction size %v must be >= 1", sc.MeanOps)
	case sc.ServiceNs < 0:
		return sc, fmt.Errorf("load: service time %d must be positive", sc.ServiceNs)
	case sc.Bits < 1 || sc.Bits > histMaxBits:
		return sc, fmt.Errorf("load: histogram bits %d must be in [1, %d]", sc.Bits, histMaxBits)
	case sc.TableEntries&(sc.TableEntries-1) != 0:
		return sc, fmt.Errorf("load: table entries %d must be a power of two", sc.TableEntries)
	}
	return sc, nil
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// Row is one schema-versioned result row of `tmbp load -json`: the
// measured throughput and latency quantiles for one scenario. In virtual
// mode every field is a deterministic function of the Scenario, so two
// runs with the same seed marshal byte-identically.
type Row struct {
	Struct        string  `json:"struct"`
	Table         string  `json:"table"`
	Arrival       string  `json:"arrival"`
	RatePerSec    float64 `json:"rate_per_sec"`
	Workers       int     `json:"workers"`
	ReadFrac      float64 `json:"read_frac"`
	ScanFrac      float64 `json:"scan_frac"`
	Invisible     bool    `json:"invisible"`
	Virtual       bool    `json:"virtual"`
	Seed          uint64  `json:"seed"`
	Ops           int     `json:"ops"`
	ElapsedNs     int64   `json:"elapsed_ns"`
	ThroughputTPS float64 `json:"throughput_tps"`
	MeanNs        float64 `json:"mean_ns"`
	P50Ns         int64   `json:"p50_ns"`
	P99Ns         int64   `json:"p99_ns"`
	P999Ns        int64   `json:"p999_ns"`
	MaxNs         int64   `json:"max_ns"`
	Commits       uint64  `json:"commits"`
	Aborts        uint64  `json:"aborts"`
	AbortRate     float64 `json:"abort_rate"`
}

// Result bundles a run's summary row with the merged latency histogram
// behind it, for callers that want more than three quantiles.
type Result struct {
	Row  Row
	Hist *Hist
}

// opSpec is one pre-drawn keyed operation. A scan reuses key as its lower
// bound; val is drawn either way to keep the content stream aligned across
// scan-fraction changes.
type opSpec struct {
	scan bool
	read bool
	key  uint64
	val  uint64
}

// txnSpec is one scheduled transaction: its open-loop arrival time and the
// operations it performs.
type txnSpec struct {
	arrival int64
	ops     []opSpec
}

// plan pre-draws the whole workload — arrival times, transaction sizes,
// keys, values — from the scenario's seeded streams. Both execution modes
// run the same plan; pre-drawing keeps worker scheduling (which is
// nondeterministic in wall-clock mode) from perturbing the generator
// state, so the logical workload is identical either way.
func plan(sc Scenario) ([]txnSpec, error) {
	arr, err := NewArrivals(sc.Arrival, sc.RatePerSec, xrand.NewWithStream(sc.Seed, streamArrival))
	if err != nil {
		return nil, err
	}
	content := xrand.NewWithStream(sc.Seed, streamContent)
	zipf := xrand.NewZipf(sc.Keys, sc.ZipfS)
	txns := make([]txnSpec, sc.Ops)
	for i := range txns {
		txns[i].arrival = arr.Next()
		nops := 1 + content.Geometric(1/sc.MeanOps)
		ops := make([]opSpec, nops)
		for j := range ops {
			// The scan draw only happens when scans are possible at all, so
			// every scan-free scenario consumes exactly the pre-existing
			// stream — its rows stay byte-identical across this feature.
			var scan bool
			if sc.ScanFrac > 0 {
				scan = content.Float64() < sc.ScanFrac
			}
			ops[j] = opSpec{
				scan: scan,
				read: content.Float64() < sc.ReadFrac,
				key:  uint64(zipf.Sample(content)),
				val:  content.Uint64(),
			}
		}
		txns[i].ops = ops
	}
	return txns, nil
}

// world builds the scenario's runtime and keyed structure.
func world(sc Scenario) (*tmbp.STM, tmds.Keyed, error) {
	tab, err := tmbp.NewTable(sc.Table, sc.TableEntries, "fibonacci")
	if err != nil {
		return nil, nil, err
	}
	words, err := tmds.KeyedWords(sc.Struct, sc.Keys)
	if err != nil {
		return nil, nil, err
	}
	mem := tmbp.NewMemory(words)
	rt, err := tmbp.NewSTM(tmbp.STMConfig{
		Table:            tab,
		Memory:           mem,
		Seed:             sc.Seed,
		Recorder:         sc.Recorder,
		InvisibleReaders: sc.Invisible,
	})
	if err != nil {
		return nil, nil, err
	}
	w, err := tmds.NewKeyed(sc.Struct, mem, 0, sc.Keys)
	if err != nil {
		return nil, nil, err
	}
	// Structure constructors initialize memory with direct stores the
	// recorder never sees, and the opacity checker assumes unrecorded
	// words start at zero — so record the post-construction value of every
	// nonzero word before any transaction runs.
	if sc.Recorder != nil {
		for i := 0; i < mem.Words(); i++ {
			if v := mem.LoadDirect(mem.WordAddr(i)); v != 0 {
				sc.Recorder.RecordEvent(opacity.Event{Kind: opacity.KindInit, Word: uint64(i), Value: v})
			}
		}
	}
	return rt, w, nil
}

// execute runs one planned transaction on th. rg is the structure's scan
// face, nil unless the scenario drew scan operations (Run validates the
// structure supports them before any transaction executes).
func execute(th *tmbp.Thread, w tmds.Keyed, rg tmds.Ranged, span uint64, t *txnSpec) error {
	return th.Atomic(func(tx *tmbp.Tx) error {
		for _, op := range t.ops {
			switch {
			case op.scan:
				if err := rg.ScanTx(tx, op.key, op.key+span-1); err != nil {
					return err
				}
			case op.read:
				if err := w.ReadTx(tx, op.key); err != nil {
					return err
				}
			default:
				if err := w.WriteTx(tx, op.key, op.val); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// Run executes the scenario (normalizing it first) and returns its result.
// Virtual scenarios run serially under a discrete-event simulation and are
// byte-reproducible; wall-clock scenarios run Workers real goroutines
// against real time.
func Run(sc Scenario) (*Result, error) {
	sc, err := sc.Normalize()
	if err != nil {
		return nil, err
	}
	txns, err := plan(sc)
	if err != nil {
		return nil, err
	}
	rt, w, err := world(sc)
	if err != nil {
		return nil, err
	}
	var rg tmds.Ranged
	if sc.ScanFrac > 0 {
		r, ok := w.(tmds.Ranged)
		if !ok {
			return nil, fmt.Errorf("load: structure %q has no range scans (scan fraction %v needs one of the ordered structures)",
				sc.Struct, sc.ScanFrac)
		}
		rg = r
	}
	var hist *Hist
	var elapsed int64
	if sc.Virtual {
		hist, elapsed, err = runVirtual(sc, rt, w, rg, txns)
	} else {
		hist, elapsed, err = runWall(sc, rt, w, rg, txns)
	}
	if err != nil {
		return nil, err
	}
	st := rt.Stats()
	row := Row{
		Struct:     sc.Struct,
		Table:      sc.Table,
		Arrival:    sc.Arrival,
		RatePerSec: sc.RatePerSec,
		Workers:    sc.Workers,
		ReadFrac:   sc.ReadFrac,
		ScanFrac:   sc.ScanFrac,
		Invisible:  sc.Invisible,
		Virtual:    sc.Virtual,
		Seed:       sc.Seed,
		Ops:        sc.Ops,
		ElapsedNs:  elapsed,
		MeanNs:     hist.Mean(),
		P50Ns:      hist.Quantile(0.50),
		P99Ns:      hist.Quantile(0.99),
		P999Ns:     hist.Quantile(0.999),
		MaxNs:      hist.Max(),
		Commits:    st.Commits,
		Aborts:     st.Aborts,
	}
	if elapsed > 0 {
		row.ThroughputTPS = float64(sc.Ops) / float64(elapsed) * 1e9
	}
	if total := st.Commits + st.Aborts; total > 0 {
		row.AbortRate = float64(st.Aborts) / float64(total)
	}
	return &Result{Row: row, Hist: hist}, nil
}

// runVirtual is the deterministic mode: a discrete-event simulation of
// Workers servers, each transaction costing ServiceNs per operation. The
// transactions still really execute against the STM — the structure's
// contents evolve exactly as in a wall-clock run — but serially, in
// arrival order, so the latency arithmetic (and hence the emitted Row) is
// a pure function of the plan. Open-loop latency is completion minus
// *scheduled arrival*: a transaction that arrives while every server is
// busy pays the queueing delay even though no goroutine ever blocked.
func runVirtual(sc Scenario, rt *tmbp.STM, w tmds.Keyed, rg tmds.Ranged, txns []txnSpec) (*Hist, int64, error) {
	clock := NewVirtualClock()
	hist := NewHist(sc.Bits)
	free := make([]int64, sc.Workers) // per-server next-free times
	th := rt.NewThread()
	for i := range txns {
		t := &txns[i]
		// Earliest-free server takes the work.
		srv := 0
		for s := 1; s < len(free); s++ {
			if free[s] < free[srv] {
				srv = s
			}
		}
		start := t.arrival
		if free[srv] > start {
			start = free[srv]
		}
		if err := execute(th, w, rg, uint64(sc.ScanSpan), t); err != nil {
			return nil, 0, fmt.Errorf("load: transaction %d: %w", i, err)
		}
		complete := start + sc.ServiceNs*int64(len(t.ops))
		free[srv] = complete
		clock.WaitUntil(complete)
		hist.Record(complete - t.arrival)
	}
	return hist, clock.Now(), nil
}

// wallSetupHook, when non-nil, runs after runWall's worker setup and just
// before the clock anchors — where thread registration and allocation used
// to eat into the schedule. The regression test stretches this window to
// prove setup cost stays out of the measured latencies.
var wallSetupHook func()

// runWall is the measurement mode: a dispatcher goroutine paces the plan's
// arrivals on the wall clock into a fully-buffered channel (so a backlog
// never blocks the arrival process — the open-loop property), and Workers
// goroutines drain it, each recording completion minus scheduled arrival
// into its own histogram. Per-worker histograms make the record path
// lock-free by ownership; they merge after the run.
func runWall(sc Scenario, rt *tmbp.STM, w tmds.Keyed, rg tmds.Ranged, txns []txnSpec) (*Hist, int64, error) {
	// The run's t=0 is anchored immediately before the dispatch loop, not at
	// entry: anchoring first and then building channels, histograms, and
	// worker threads would leave the earliest arrivals already in the past
	// by the time dispatch starts, firing them as one burst whose measured
	// latency is really setup time. Workers observe clock strictly after
	// receiving from work, so publishing it before the first send is sound.
	var clock Clock
	work := make(chan *txnSpec, len(txns))
	hists := make([]*Hist, sc.Workers)
	errs := make([]error, sc.Workers)
	var wg sync.WaitGroup
	for i := 0; i < sc.Workers; i++ {
		hists[i] = NewHist(sc.Bits)
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := rt.NewThread()
			h := hists[id]
			for t := range work {
				if err := execute(th, w, rg, uint64(sc.ScanSpan), t); err != nil {
					errs[id] = err
					// Keep draining: abandoning the channel would leave
					// the dispatcher's transactions unaccounted for.
					continue
				}
				h.Record(clock.Now() - t.arrival)
			}
		}(i)
	}
	if wallSetupHook != nil {
		wallSetupHook()
	}
	clock = NewWallClock()
	for i := range txns {
		t := &txns[i]
		clock.WaitUntil(t.arrival)
		work <- t
	}
	close(work)
	wg.Wait()
	elapsed := clock.Now()
	hist := NewHist(sc.Bits)
	for i, h := range hists {
		if errs[i] != nil {
			return nil, 0, fmt.Errorf("load: worker %d: %w", i, errs[i])
		}
		if err := hist.Merge(h); err != nil {
			return nil, 0, err
		}
	}
	return hist, elapsed, nil
}
