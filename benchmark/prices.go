package main

import (
	"errors"
	"math"
	"slices"
	"time"

	"tmbp/internal/addr"
	"tmbp/internal/hash"
	"tmbp/internal/otable"
	"tmbp/internal/stm"
	"tmbp/internal/txn"
	"tmbp/internal/xrand"
)

// Unit prices come from isolated tight loops over the same table kind,
// hash, sizes and read protocol as the workload, on one goroutine, with no
// timer inside a loop: a span around a 10 ns operation mostly measures the
// timer. Counts from the traced pass times these prices give the ledger.

// prices maps a per-layer metric name to nanoseconds per operation.
type prices map[string]float64

// batch is the number of operations between two timer reads where a price
// needs the table in a particular state before and after (acquire against
// release). At most that many blocks are held at once, as in the workloads'
// own footprints; the timer's share of a batch (~2 ns per operation) is
// subtracted.
const batch = 16

var sink uint64 // defeats dead-code elimination of the priced loops

// chunks is how many equal parts a priced loop is timed in; the fastest
// part is the price, because host interference only ever adds time.
const chunks = 4

// perOp calls f about n times and returns ns per call.
func perOp(n int, f func(i int)) float64 {
	best, per := math.Inf(1), max(1, n/chunks)
	for c := 0; c < chunks; c++ {
		t0 := time.Now()
		for i := c * per; i < (c+1)*per; i++ {
			f(i)
		}
		best = min(best, float64(time.Since(t0))/float64(per))
	}
	return best
}

// phases runs about `rounds` rounds of the given phases in order, timing
// each phase as a whole, and returns ns per operation for each (a phase is
// `batch` operations).
func phases(rounds int, timerNs float64, fs ...func(round int)) []float64 {
	best, per := make([]float64, len(fs)), max(1, rounds/chunks)
	total := make([]time.Duration, len(fs))
	for c := 0; c < chunks; c++ {
		clear(total)
		for r := c * per; r < (c+1)*per; r++ {
			for i, f := range fs {
				t0 := time.Now()
				f(r)
				total[i] += time.Since(t0)
			}
		}
		for i, d := range total {
			if ns := (float64(d)/float64(per) - timerNs) / batch; c == 0 || ns < best[i] {
				best[i] = ns
			}
		}
	}
	return best
}

// measurePrices runs every isolated loop for sp. scale shrinks the
// iteration counts for the smoke test.
func measurePrices(sp *spec, seed uint64, scale float64) (prices, error) {
	n := func(full int) int { return max(batch, int(float64(full)*scale)) }
	pr := prices{}
	r := xrand.NewWithStream(seed, 0x9c1ce)
	blocks := sp.words / 8
	h, err := hash.New(hashName, sp.entries)
	if err != nil {
		return nil, err
	}
	probe, err := newTable(sp, nil)
	if err != nil {
		return nil, err
	}

	// A pre-drawn list of random blocks, walked in groups, so that priced
	// loops touch the table and memory the way the workload does rather
	// than one hot line. Blocks of a group occupy distinct table slots: the
	// table loops hold a whole group at once, and on a tagless table two
	// holdings of one slot are indistinguishable from a foreign reader.
	const groups = 1024
	blk := make([]addr.Block, groups*batch)
	for g := 0; g < groups; g++ {
		grp := blk[g*batch : (g+1)*batch]
		for i := 0; i < batch; {
			b := addr.Block(r.Intn(blocks))
			if !slices.ContainsFunc(grp[:i], func(x addr.Block) bool { return probe.SlotOf(x) == probe.SlotOf(b) }) {
				grp[i] = b
				i++
			}
		}
	}
	group := func(round int) []addr.Block {
		g := round % groups
		return blk[g*batch : (g+1)*batch]
	}

	base := time.Now()
	pr["bench.timer_ns"] = perOp(n(2_000_000), func(int) { sink += uint64(time.Since(base)) })

	pr["hash.index_ns"] = perOp(n(4_000_000), func(i int) { sink += h.Index(blk[i%len(blk)]) })

	if err := priceTable(sp, pr, n(80_000), group); err != nil {
		return nil, err
	}
	priceAccessSet(pr, n(200_000), group)
	if err := priceSTM(sp, pr, n, group); err != nil {
		return nil, err
	}
	in, err := newInstance(sp, seed, false)
	if err != nil {
		return nil, err
	}
	// What the measured loop does per transaction besides Atomic.
	w := in.workers[0]
	pr["bench.decode_ns_per_txn"] = perOp(n(4_000_000), func(i int) {
		p := (i & w.mask) * sp.fields
		w.args = w.ring[p : p+sp.fields]
		sink += uint64(w.args[0])
	})
	return pr, priceTMDS(in, seed, pr, n(4_000))
}

// priceTable prices each table operation on a fresh table of the
// workload's kind. Transaction 1 is the one priced; transaction 2 only
// holds blocks for the denied-acquire loop.
func priceTable(sp *spec, pr prices, rounds int, group func(int) []addr.Block) error {
	tab, err := newTable(sp, nil)
	if err != nil {
		return err
	}
	ht, vt := tab.(otable.HandleTable), tab.(otable.VersionTable)
	var hnd [batch]otable.Handle
	stamp := uint64(0)
	tried, denied := 0, 0
	acquireRead := func(r int) {
		for i, b := range group(r) {
			_, _, hnd[i] = ht.AcquireReadH(1, b)
		}
	}
	releaseWrite := func(r int) {
		stamp++
		for i, b := range group(r) {
			if sp.invisible {
				vt.ReleaseWriteV(1, b, hnd[i], stamp)
			} else {
				ht.ReleaseWriteH(1, b, hnd[i])
			}
		}
	}
	ns := phases(rounds, pr["bench.timer_ns"],
		acquireRead,
		func(r int) { // upgrade
			for i, b := range group(r) {
				_, _, hnd[i] = ht.AcquireWriteH(1, b, 1, hnd[i])
			}
		},
		releaseWrite,
		func(r int) { // fresh write acquire
			for i, b := range group(r) {
				_, _, hnd[i] = ht.AcquireWriteH(1, b, 0, otable.NoHandle)
			}
		},
		releaseWrite,
		acquireRead,
		func(r int) { // release read
			for i, b := range group(r) {
				ht.ReleaseReadH(1, b, hnd[i])
			}
		},
		func(r int) { // sample version
			for _, b := range group(r) {
				s, _ := vt.SampleVersion(b)
				sink += s
			}
		},
		func(r int) { // transaction 2 takes the blocks
			for i, b := range group(r) {
				_, _, hnd[i] = ht.AcquireWriteH(2, b, 0, otable.NoHandle)
			}
		},
		func(r int) { // transaction 1 is denied
			for _, b := range group(r) {
				out, _, _ := ht.AcquireReadH(1, b)
				tried++
				if out.Conflict() {
					denied++
				}
			}
		},
		func(r int) {
			for i, b := range group(r) {
				ht.ReleaseWriteH(2, b, hnd[i])
			}
		},
	)
	pr["otable.acquire_read_ns"] = (ns[0] + ns[5]) / 2
	pr["otable.upgrade_ns"] = ns[1]
	pr["otable.release_write_ns"] = (ns[2] + ns[4]) / 2
	pr["otable.acquire_write_ns"] = ns[3]
	pr["otable.release_read_ns"] = ns[6]
	pr["otable.sample_version_ns"] = ns[7]
	pr["otable.denied_acquire_ns"] = ns[9]
	if denied != tried || tab.Stats().Conflicts != uint64(denied) {
		return errors.New("price loop: an acquire that should have been denied was not")
	}
	return nil
}

// priceAccessSet prices the per-thread access set directly.
func priceAccessSet(pr prices, rounds int, group func(int) []addr.Block) {
	var set txn.AccessSet
	pr["txn.reset_ns"] = perOp(rounds, func(int) { set.Reset() })
	const small = rmwBlocks // fits the inline array
	insertAndReset := perOp(rounds, func(r int) {
		for _, b := range group(r)[:small] {
			set.Insert(b)
		}
		set.Reset()
	})
	pr["txn.insert_ns"] = (insertAndReset - pr["txn.reset_ns"]) / small
	lookups := func(blocks []addr.Block) float64 {
		set.Reset()
		for _, b := range blocks {
			set.Insert(b)
		}
		return perOp(rounds, func(int) {
			for _, b := range blocks {
				sink += uint64(set.Lookup(b).Idx)
			}
		}) / float64(len(blocks))
	}
	pr["txn.lookup_hit_ns"] = lookups(group(0)[:small])
	// 64 distinct blocks: four times the inline capacity, so the set has
	// spilled to its heap table, as a range scan's does.
	var many []addr.Block
	for g := 1; len(many) < 64; g++ {
		for _, b := range group(g) {
			if !slices.Contains(many, b) {
				many = append(many, b)
			}
		}
	}
	pr["txn.lookup_spilled_ns"] = lookups(many)
	set.Reset()
}

// priceSTM prices the runtime's own paths through Thread.Atomic on private
// runtimes of the workload's table kind and sizes.
func priceSTM(sp *spec, pr prices, n func(int) int, group func(int) []addr.Block) error {
	_, mem, own, err := newRuntime(sp, sp.invisible, nil) // the workload's protocol
	if err != nil {
		return err
	}
	_, _, acq, err := newRuntime(sp, false, nil)
	if err != nil {
		return err
	}
	_, _, inv, err := newRuntime(sp, true, nil)
	if err != nil {
		return err
	}
	word := func(b addr.Block) addr.Addr { return addr.BlockAddr(b) }
	const first, again = rmwBlocks, 4 // first accesses per txn, and repeats of each

	// txnNs is the mean time of a transaction whose body touches the first
	// `first` blocks of successive groups.
	rounds := n(200_000)
	txnNs := func(rt *stm.Runtime, body func(tx *stm.Tx, blocks []addr.Block)) (float64, error) {
		th := rt.NewThread()
		var blocks []addr.Block
		fn := func(tx *stm.Tx) error { body(tx, blocks); return nil }
		var failed error
		ns := perOp(rounds, func(r int) {
			blocks = group(r)[:first]
			if err := th.Atomic(fn); err != nil {
				failed = err
			}
		})
		return ns, failed
	}
	reads := func(tx *stm.Tx, blocks []addr.Block) {
		for _, b := range blocks {
			sink += tx.Read(word(b))
		}
	}
	writes := func(tx *stm.Tx, blocks []addr.Block) {
		for _, b := range blocks {
			tx.Write(word(b), uint64(b))
		}
	}
	repeat := func(f func(*stm.Tx, []addr.Block)) func(*stm.Tx, []addr.Block) {
		return func(tx *stm.Tx, blocks []addr.Block) {
			for i := 0; i <= again; i++ {
				f(tx, blocks)
			}
		}
	}
	type row struct {
		name string
		rt   *stm.Runtime
		body func(*stm.Tx, []addr.Block)
	}
	raw := map[string]float64{}
	for _, m := range []row{
		{"empty", own, func(*stm.Tx, []addr.Block) {}},
		{"empty_acq", acq, func(*stm.Tx, []addr.Block) {}},
		{"empty_inv", inv, func(*stm.Tx, []addr.Block) {}},
		{"read", acq, reads},
		{"read_again", acq, repeat(reads)},
		{"read_inv", inv, reads},
		{"write", own, writes},
		{"write_again", own, repeat(writes)},
	} {
		ns, err := txnNs(m.rt, m.body)
		if err != nil {
			return err
		}
		raw[m.name] = ns
	}
	pr["stm.empty_txn_ns"] = raw["empty"]
	pr["stm.read_miss_ns"] = (raw["read"] - raw["empty_acq"]) / first
	pr["stm.read_hit_ns"] = (raw["read_again"] - raw["read"]) / (first * again)
	pr["stm.invisible_read_miss_ns"] = (raw["read_inv"] - raw["empty_inv"]) / first
	pr["stm.write_miss_ns"] = (raw["write"] - raw["empty"]) / first
	pr["stm.write_hit_ns"] = (raw["write_again"] - raw["write"]) / (first * again)

	words := make([]addr.Addr, 1024)
	for i := range words {
		words[i] = word(group(i / batch)[i%batch])
	}
	pr["stm.memory_load_ns"] = perOp(n(4_000_000), func(i int) { sink += mem.LoadDirect(words[i%len(words)]) })
	pr["stm.memory_store_ns"] = perOp(n(4_000_000), func(i int) { mem.StoreDirect(words[i%len(words)], uint64(i)) })

	// Commit cost per written block: the body's last statement reads the
	// clock, Atomic's return is the second reading, and the slope of that
	// difference over 1, 4 and 16 written blocks cancels both the timer and
	// the fixed part of commit.
	th := own.NewThread()
	commitNs := func(k int) float64 {
		var blocks []addr.Block
		var inBody, total time.Duration
		start := time.Now()
		fn := func(tx *stm.Tx) error {
			writes(tx, blocks)
			inBody = time.Since(start)
			return nil
		}
		m := n(100_000)
		for r := 0; r < m; r++ {
			blocks = group(r)[:k]
			_ = th.Atomic(fn) // a one-thread runtime cannot conflict
			total += time.Since(start) - inBody
		}
		return float64(total) / float64(m)
	}
	c1, c4, c16 := commitNs(1), commitNs(4), commitNs(16)
	// Least-squares slope through (1,c1), (4,c4), (16,c16).
	pr["stm.commit_ns_per_block"] = (-6*c1 - 3*c4 + 9*c16) / 126

	ns, err := priceAbort(sp, n(20_000), group)
	pr["stm.abort_attempt_ns"] = ns
	return err
}

// priceAbort prices one aborted attempt deterministically on one goroutine:
// thread A holds write ownership of block X inside its transaction body
// and, from inside that body, drives thread B's Atomic — seven private
// writes, then X — which is denied on every one of its abortTries attempts.
func priceAbort(sp *spec, rounds int, group func(int) []addr.Block) (float64, error) {
	const abortTries = 8
	tab, err := newTable(sp, nil)
	if err != nil {
		return 0, err
	}
	rt, err := stm.New(stm.Config{Table: tab, Memory: stm.NewMemory(sp.words), InvisibleReaders: sp.invisible,
		MaxAttempts: abortTries, BackoffBase: -1, Seed: stmSeed})
	if err != nil {
		return 0, err
	}
	a, b := rt.NewThread(), rt.NewThread()
	var blocks []addr.Block
	var total time.Duration
	var failed error
	victim := func(tx *stm.Tx) error {
		for _, blk := range blocks { // the last one is X
			tx.Write(addr.BlockAddr(blk), 1)
		}
		return nil
	}
	holder := func(tx *stm.Tx) error {
		tx.Write(addr.BlockAddr(blocks[len(blocks)-1]), 1)
		t0 := time.Now()
		err := b.Atomic(victim)
		total += time.Since(t0)
		if !errors.Is(err, stm.ErrTooManyAttempts) {
			failed = errors.New("price loop: the victim transaction was not denied")
		}
		return nil
	}
	for r := 0; r < rounds; r++ {
		blocks = group(r)[:rmwBlocks]
		if err := a.Atomic(holder); err != nil {
			return 0, err
		}
	}
	if got := rt.Stats().Aborts; got != uint64(rounds*abortTries) {
		failed = errors.New("price loop: abort count is off")
	}
	return float64(total) / float64(rounds*abortTries), failed
}

// keyed is the part of tmds.Map and tmds.Skiplist the structure prices use.
type keyed interface {
	GetTx(tx *stm.Tx, k uint64) (uint64, bool)
	PutTx(tx *stm.Tx, k, v uint64) (bool, error)
	DeleteTx(tx *stm.Tx, k uint64) bool
}

// priceTMDS prices one-operation transactions on in, a fresh copy of the
// workload's structure, keys drawn from the workload's own distribution.
// The raw-word workloads have no structure and report zeros.
func priceTMDS(in *instance, seed uint64, pr prices, rounds int) error {
	for _, name := range []string{"tmds.get_ns", "tmds.put_ns", "tmds.delete_ns", "tmds.scan_ns"} {
		pr[name] = 0
	}
	var ds keyed
	switch {
	case in.list != nil:
		ds = in.list
	case in.hmap != nil:
		ds = in.hmap
	default:
		return nil
	}
	th := in.workers[0].th
	r := xrand.NewWithStream(seed, 0x7d5)
	drawKey := func() uint64 {
		if in.zipf != nil {
			return uint64(in.zipf.Sample(r))
		}
		return uint64(r.Intn(scanKeys))
	}
	var keys [batch]uint64
	var changed [batch]bool
	var k uint64
	var i int
	var failed error
	atomic := func(fn func(tx *stm.Tx) error) {
		if err := th.Atomic(fn); err != nil {
			failed = err
		}
	}
	get := func(tx *stm.Tx) error { v, _ := ds.GetTx(tx, k); sink += v; return nil }
	put := func(tx *stm.Tx) (err error) { changed[i], err = ds.PutTx(tx, k, value(k, 1)); return err }
	del := func(tx *stm.Tx) error { changed[i] = ds.DeleteTx(tx, k); return nil }
	scan := func(tx *stm.Tx) error {
		return in.list.RangeScanTx(tx, k, k+scanSpan-1, func(_, v uint64) error { sink += v; return nil })
	}
	undo := func(fn func(tx *stm.Tx) error) func(int) {
		return func(int) {
			for i = 0; i < batch; i++ {
				if k = keys[i]; changed[i] {
					atomic(fn)
				}
			}
		}
	}
	all := func(fn func(tx *stm.Tx) error) func(int) {
		return func(int) {
			for i = 0; i < batch; i++ {
				k = keys[i]
				atomic(fn)
			}
		}
	}
	// Puts are undone by deleting the keys they added, deletes by putting
	// back the keys they removed, so the structure stays as populated.
	ns := phases(rounds, pr["bench.timer_ns"],
		func(int) {
			for j := range keys {
				keys[j] = drawKey()
			}
		},
		all(get),
		all(put),
		undo(del),
		all(del),
		undo(put),
	)
	pr["tmds.get_ns"], pr["tmds.put_ns"], pr["tmds.delete_ns"] = ns[1], ns[2], ns[4]
	if in.list != nil {
		pr["tmds.scan_ns"] = perOp(rounds*batch/8, func(int) {
			k = uint64(r.Intn(scanKeys - scanSpan + 1))
			atomic(scan)
		})
	}
	return failed
}
