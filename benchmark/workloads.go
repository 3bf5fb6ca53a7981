package main

import (
	"fmt"
	"slices"

	"tmbp/internal/addr"
	"tmbp/internal/hash"
	"tmbp/internal/otable"
	"tmbp/internal/stm"
	"tmbp/internal/xrand"
	"tmbp/tmds"
)

// A spec is one workload: the runtime configuration it runs against, how
// its inputs are drawn, the transaction it repeats, and the output check
// that proves the run computed the right thing. Every size here is part of
// the benchmark's definition — changing one changes what the numbers mean.
type spec struct {
	name string
	why  string
	// workers is the number of load goroutines (≤ nproc = 2; GOMAXPROCS is
	// pinned to 2 for every workload).
	workers int
	table   string // ownership-table organisation
	entries uint64 // first-level table entries
	words   int    // Memory size in 8-byte words
	// invisible selects the version-validated read protocol; false is the
	// acquiring protocol.
	invisible bool
	// ringLen is the per-worker input ring length in transactions (a power
	// of two), fields the uint16 values drawn per transaction.
	ringLen, fields int
	// rate is the transactions per second one worker alone sustains on the
	// 2-vCPU reference sandbox, allRate what all workers sustain together
	// (0 with one worker). They only convert -seconds into the fixed
	// transaction counts of a run, so that both sides of an A/B comparison
	// execute identical work.
	rate, allRate int
	// build constructs the workload's structure inside in.mem and populates
	// it through the public transactional API.
	build func(in *instance, setup *xrand.Rand) error
	// draw fills one transaction's input fields for worker w.
	draw func(r *xrand.Rand, in *instance, w int, out []uint16)
	// body is the transaction; it reads its inputs from w.args.
	body func(w *worker) func(tx *stm.Tx) error
	// check validates the final state after every worker has stopped.
	check func(in *instance) error
}

const (
	hashName = "fibonacci"
	// stmSeed seeds the runtime's backoff streams. It is a constant: the
	// program under test never sees the benchmark's -seed, only the inputs
	// generated from it.
	stmSeed = 0x746d6270 // "tmbp"
	// maxAttempts turns a livelock into a counted failure instead of a hang.
	// It is far above anything a healthy run needs: when the host deschedules
	// a worker that holds table entries, its peer retries against them some
	// hundreds of times (streaks of 250 were seen), and that is the host's
	// doing, not a failed operation.
	maxAttempts = 100_000

	rmwBlocks = 8 // blocks read then written per raw transaction

	scanKeys = 4096 // skiplist key space and capacity
	scanSpan = 128  // keys covered by one range scan

	hotKeys    = 4096
	hotBuckets = 16384
	hotOps     = 4    // structure operations per hot-mix transaction
	hotZipf    = 0.99 // key popularity exponent

	initialWord = 1 << 32 // starting balance of every transfer word
)

// Operation codes, packed into the top bits of an input field above a
// 12-bit key.
const (
	opGet = iota
	opScan
	opPut
	opDelete
	opShift = 12
	keyMask = 1<<opShift - 1
)

var specs = []*spec{
	{
		name:    "serial-rmw",
		why:     "1 worker, raw 8-block read-then-write transfers on a tagged table: hash, acquire/upgrade/release, inline access set and write-back do all the work; contention paths do none",
		workers: 1, table: "tagged", entries: 4096, words: 1 << 14,
		ringLen: 1 << 14, fields: rmwBlocks, rate: 780_000,
		build: buildTransfers, draw: drawTransfers, body: transferBody, check: checkTransfers,
	},
	{
		name:    "scan-mostly",
		why:     "1 worker, skiplist 70% get / 20% 128-key scan / 10% update with invisible readers: version sampling, spilled access sets and structure logic dominate; 90% of txns acquire nothing",
		workers: 1, table: "tagged", entries: 1 << 14, words: tmds.SkiplistWords(scanKeys), invisible: true,
		ringLen: 1 << 18, fields: 1, rate: 430_000,
		build: buildSkiplist, draw: drawScanMostly, body: scanMostlyBody, check: checkSkiplist,
	},
	{
		name:    "alias-disjoint",
		why:     "2 workers on disjoint halves of memory through a 1024-entry tagless table: every abort is a false (alias) conflict, pricing the abort path and CM under real interleaving",
		workers: 2, table: "tagless", entries: 1024, words: 1 << 16,
		ringLen: 1 << 14, fields: rmwBlocks, rate: 1_000_000, allRate: 490_000,
		build: buildTransfers, draw: drawTransfers, body: transferBody, check: checkTransfers,
	},
	{
		name:    "hot-mix",
		why:     "2 workers, Zipf(0.99) hash-map txns of 4 ops (75% get, 20% put, 5% delete) on a sharded table with invisible readers: true conflicts, validation, promotion and the epoch clock",
		workers: 2, table: "sharded", entries: 1 << 14, words: 8 * (1 + hotBuckets), invisible: true,
		ringLen: 1 << 16, fields: hotOps, rate: 1_200_000, allRate: 1_200_000,
		build: buildMap, draw: drawHotMix, body: hotMixBody, check: checkMap,
	},
}

// counts converts -seconds into the transaction counts of the solo interval
// and of the all-workers interval. A one-worker workload has only the
// first; a two-worker workload gives each half the time.
func (sp *spec) counts(seconds int) (solo, all int) {
	if sp.workers == 1 {
		return sp.rate * seconds, sp.rate * seconds
	}
	return sp.rate * seconds / 2, sp.allRate * seconds / 2
}

func specByName(name string) *spec {
	for _, sp := range specs {
		if sp.name == name {
			return sp
		}
	}
	return nil
}

// An instance is one freshly built copy of a workload: table, memory,
// runtime, structure, and the workers with their pre-drawn inputs.
type instance struct {
	sp      *spec
	tab     otable.Table // the real table, never the tracing wrapper: Stats come from here
	mem     *stm.Memory
	rt      *stm.Runtime
	workers []*worker
	list    *tmds.Skiplist
	hmap    *tmds.Map
	zipf    *xrand.Zipf
	trace   *traceState // nil on untraced passes
	sum     uint64      // conserved word sum of the transfer workloads
	// model is scan-mostly's plain-Go reference: the skiplist contents as
	// populated, advanced by replaying the input ring outside the timed
	// interval.
	model []uint64
}

// newTable builds sp's ownership table over its hash; with ts non-nil the
// hash is wrapped by the tracing decorator.
func newTable(sp *spec, ts *traceState) (otable.Table, error) {
	var h hash.Func
	h, err := hash.New(hashName, sp.entries)
	if err != nil {
		return nil, err
	}
	if ts != nil {
		h = tracedHash{Func: h, ts: ts}
	}
	return otable.New(sp.table, h)
}

// newRuntime assembles table, memory and runtime for sp. With ts non-nil
// the hash, the table and the contention manager are wrapped by the tracing
// decorators; the returned table is always the undecorated one.
func newRuntime(sp *spec, invisible bool, ts *traceState) (otable.Table, *stm.Memory, *stm.Runtime, error) {
	tab, err := newTable(sp, ts)
	if err != nil {
		return nil, nil, nil, err
	}
	mem := stm.NewMemory(sp.words)
	cfg := stm.Config{Table: tab, Memory: mem, InvisibleReaders: invisible,
		MaxAttempts: maxAttempts, CM: "backoff", Seed: stmSeed}
	if ts != nil {
		cfg.Table = newTracedTable(tab, ts)
		// The built-in policies are not constructible from outside the
		// package, so the wrapper borrows one from a thread of a donor
		// runtime that never runs a transaction.
		donor, err := stm.New(cfg)
		if err != nil {
			return nil, nil, nil, err
		}
		cfg.NewCM = func(th *stm.Thread) stm.CM {
			return &tracedCM{inner: donor.NewThread().CM(), tr: ts.tracerFor(th.ID())}
		}
	}
	rt, err := stm.New(cfg)
	return tab, mem, rt, err
}

// newInstance builds sp from scratch: runtime, populated structure, and one
// worker per load goroutine with its input ring drawn from seed.
func newInstance(sp *spec, seed uint64, traced bool) (*instance, error) {
	in := &instance{sp: sp}
	if traced {
		in.trace = newTraceState(sp.workers)
	}
	var err error
	if in.tab, in.mem, in.rt, err = newRuntime(sp, sp.invisible, in.trace); err != nil {
		return nil, err
	}
	for i := 0; i < sp.workers; i++ {
		w := &worker{id: i, in: in, th: in.rt.NewThread(), mask: sp.ringLen - 1}
		if traced {
			w.tr = in.trace.tracers[i]
		} else {
			w.tr = &tracer{}
		}
		in.workers = append(in.workers, w)
	}
	if err := sp.build(in, xrand.NewWithStream(seed, 0x5e7)); err != nil {
		return nil, fmt.Errorf("%s: populate: %w", sp.name, err)
	}
	for i, w := range in.workers {
		w.body = sp.body(w)
		w.ring = make([]uint16, sp.ringLen*sp.fields)
		r := xrand.NewWithStream(seed, uint64(i)+1)
		for t := 0; t < sp.ringLen; t++ {
			sp.draw(r, in, i, w.ring[t*sp.fields:(t+1)*sp.fields])
		}
	}
	return in, nil
}

// ringChecksum folds every worker's input ring into one value; equal seeds
// must give equal checksums.
func (in *instance) ringChecksum() uint64 {
	var sum uint64
	for _, w := range in.workers {
		for _, f := range w.ring {
			sum = xrand.Mix64(sum ^ uint64(f))
		}
	}
	return sum
}

// ---- serial-rmw and alias-disjoint: conserved transfers over raw words ----

func blockWord(mem *stm.Memory, b int) addr.Addr { return mem.WordAddr(b * 8) }

func buildTransfers(in *instance, _ *xrand.Rand) error {
	blocks := in.sp.words / 8
	for b := 0; b < blocks; b++ {
		in.mem.StoreDirect(blockWord(in.mem, b), initialWord)
	}
	in.sum = transferSum(in)
	return nil
}

func transferSum(in *instance) uint64 {
	var sum uint64
	for i := 0; i < in.mem.Words(); i++ {
		sum += in.mem.LoadDirect(in.mem.WordAddr(i))
	}
	return sum
}

// drawTransfers picks rmwBlocks distinct blocks inside the worker's private
// share of memory (the whole of it with one worker). Distinct, so that each
// transaction performs exactly 8 read acquires and 8 upgrades.
func drawTransfers(r *xrand.Rand, in *instance, w int, out []uint16) {
	share := in.sp.words / 8 / in.sp.workers
	for i := 0; i < len(out); {
		b := uint16(r.Intn(share))
		if !slices.Contains(out[:i], b) {
			out[i] = b
			i++
		}
	}
}

// transferBody moves one unit between four pairs of blocks: read both, then
// write both, so every block is read-acquired and then upgraded.
func transferBody(w *worker) func(tx *stm.Tx) error {
	mem := w.in.mem
	base := w.id * (w.in.sp.words / 8 / w.in.sp.workers)
	return func(tx *stm.Tx) error {
		s := w.tr.op(layerSTM, nameRMW)
		for i := 0; i < rmwBlocks; i += 2 {
			a := blockWord(mem, base+int(w.args[i]))
			b := blockWord(mem, base+int(w.args[i+1]))
			va, vb := tx.Read(a), tx.Read(b)
			tx.Write(a, va-1)
			tx.Write(b, vb+1)
		}
		w.tr.end(s)
		w.footprint = tx.FootprintBlocks()
		return nil
	}
}

func checkTransfers(in *instance) error {
	if got := transferSum(in); got != in.sum {
		return fmt.Errorf("conserved sum changed: %d before, %d after", in.sum, got)
	}
	return nil
}

// ---- scan-mostly: skiplist point reads and range scans ----

// skiplistSeed fixes the tower heights; like stmSeed it is not an input.
const skiplistSeed = 0x736b6970

func buildSkiplist(in *instance, setup *xrand.Rand) error {
	sl, err := tmds.NewSkiplist(in.mem, 0, scanKeys, skiplistSeed)
	if err != nil {
		return err
	}
	in.list = sl
	in.model = make([]uint64, scanKeys)
	th := in.workers[0].th
	for k := uint64(0); k < scanKeys; k++ {
		if setup.Bool() {
			continue
		}
		if _, err := sl.Put(th, k, value(k, 0)); err != nil {
			return err
		}
		in.model[k] = value(k, 0)
	}
	return nil
}

// value tags a stored value with its key, so a read that returns another
// key's value is detectable; seq makes successive writes distinct. Zero is
// never a value: the reference model uses it for "absent".
func value(k, seq uint64) uint64 { return k<<32 | (seq&0x7fffffff)<<1 | 1 }

// drawScanMostly draws 70% get, 20% scan, 5% put, 5% delete over uniform
// keys. Equal put and delete rates hold the list at half density. The 70/20
// split keeps the median latency inside the get class and p99 inside the
// scan class; a 50/50 mix puts the median on the class boundary.
func drawScanMostly(r *xrand.Rand, _ *instance, _ int, out []uint16) {
	var op, key int
	switch p := r.Intn(100); {
	case p < 70:
		op, key = opGet, r.Intn(scanKeys)
	case p < 90:
		op, key = opScan, r.Intn(scanKeys-scanSpan+1)
	case p < 95:
		op, key = opPut, r.Intn(scanKeys)
	default:
		op, key = opDelete, r.Intn(scanKeys)
	}
	out[0] = uint16(op<<opShift | key)
}

func scanMostlyBody(w *worker) func(tx *stm.Tx) error {
	sl := w.in.list
	var lo, hi, prev uint64
	var first bool
	visit := func(k, v uint64) error {
		if k < lo || k > hi || (!first && k <= prev) || v>>32 != k {
			w.bad = true
		}
		first, prev = false, k
		return nil
	}
	return func(tx *stm.Tx) error {
		w.bad = false
		op, k := int(w.args[0]>>opShift), uint64(w.args[0]&keyMask)
		var err error
		switch op {
		case opGet:
			s := w.tr.op(layerTMDS, nameGet)
			if v, ok := sl.GetTx(tx, k); ok && v>>32 != k {
				w.bad = true
			}
			w.tr.end(s)
		case opScan:
			s := w.tr.op(layerTMDS, nameScan)
			lo, hi, first = k, k+scanSpan-1, true
			err = sl.RangeScanTx(tx, lo, hi, visit)
			w.tr.end(s)
		case opPut:
			s := w.tr.op(layerTMDS, namePut)
			_, err = sl.PutTx(tx, k, value(k, uint64(w.pos)))
			w.tr.end(s)
		case opDelete:
			s := w.tr.op(layerTMDS, nameDelete)
			sl.DeleteTx(tx, k)
			w.tr.end(s)
		}
		w.footprint = tx.FootprintBlocks()
		return err
	}
}

// replay advances the reference model by the n transactions the (single)
// worker has executed, outside any timed interval.
func (in *instance) replay(w *worker, from, n int) {
	for t := from; t < from+n; t++ {
		f := w.ring[t&w.mask]
		k := uint64(f & keyMask)
		switch int(f >> opShift) {
		case opPut:
			in.model[k] = value(k, uint64(t))
		case opDelete:
			in.model[k] = 0
		}
	}
}

func checkSkiplist(in *instance) error {
	w := in.workers[0]
	in.replay(w, 0, w.pos)
	th := w.th
	next := uint64(0) // first model key not yet matched
	var bad error
	err := in.list.RangeScan(th, 0, scanKeys-1, func(k, v uint64) error {
		for ; next < k; next++ {
			if in.model[next] != 0 && bad == nil {
				bad = fmt.Errorf("key %d in the reference model, missing from the skiplist", next)
			}
		}
		if in.model[k] != v && bad == nil {
			bad = fmt.Errorf("key %d: skiplist holds %#x, reference model %#x", k, v, in.model[k])
		}
		next = k + 1
		return nil
	})
	if err != nil {
		return err
	}
	for ; next < scanKeys; next++ {
		if in.model[next] != 0 && bad == nil {
			bad = fmt.Errorf("key %d in the reference model, missing from the skiplist", next)
		}
	}
	if bad != nil {
		return bad
	}
	n, err := in.list.Len(th)
	if err != nil {
		return err
	}
	live := 0
	for _, v := range in.model {
		if v != 0 {
			live++
		}
	}
	if n != live {
		return fmt.Errorf("skiplist size %d, reference model holds %d keys", n, live)
	}
	return nil
}

// ---- hot-mix: Zipf-skewed hash-map transactions ----

func buildMap(in *instance, _ *xrand.Rand) error {
	m, err := tmds.NewMap(in.mem, 0, hotBuckets)
	if err != nil {
		return err
	}
	in.hmap = m
	in.zipf = xrand.NewZipf(hotKeys, hotZipf)
	th := in.workers[0].th
	for k := uint64(0); k < hotKeys; k++ {
		if _, err := m.Put(th, k, value(k, 0)); err != nil {
			return err
		}
	}
	return nil
}

func drawHotMix(r *xrand.Rand, in *instance, _ int, out []uint16) {
	for i := range out {
		op := opGet
		switch p := r.Intn(100); {
		case p >= 95:
			op = opDelete
		case p >= 75:
			op = opPut
		}
		out[i] = uint16(op<<opShift | in.zipf.Sample(r))
	}
}

func hotMixBody(w *worker) func(tx *stm.Tx) error {
	m := w.in.hmap
	return func(tx *stm.Tx) error {
		w.bad = false
		for i, f := range w.args {
			op, k := int(f>>opShift), uint64(f&keyMask)
			switch op {
			case opGet:
				s := w.tr.op(layerTMDS, nameGet)
				if v, ok := m.GetTx(tx, k); ok && v>>32 != k {
					w.bad = true
				}
				w.tr.end(s)
			case opPut:
				s := w.tr.op(layerTMDS, namePut)
				_, err := m.PutTx(tx, k, value(k, uint64(w.pos*hotOps+i)))
				w.tr.end(s)
				if err != nil {
					return err
				}
			case opDelete:
				s := w.tr.op(layerTMDS, nameDelete)
				m.DeleteTx(tx, k)
				w.tr.end(s)
			}
		}
		w.footprint = tx.FootprintBlocks()
		return nil
	}
}

// checkMap probes every key: each present value must carry its own key, and
// the number present must equal the map's transactional size word.
func checkMap(in *instance) error {
	th := in.workers[0].th
	present := 0
	for k := uint64(0); k < hotKeys; k++ {
		v, ok, err := in.hmap.Get(th, k)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		present++
		if v>>32 != k {
			return fmt.Errorf("key %d holds value %#x of key %d", k, v, v>>32)
		}
	}
	n, err := in.hmap.Len(th)
	if err != nil {
		return err
	}
	if n != present {
		return fmt.Errorf("map size word says %d, a full probe finds %d", n, present)
	}
	return nil
}
