package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"

	"tmbp/internal/addr"
	"tmbp/internal/hash"
	"tmbp/internal/model"
	"tmbp/internal/otable"
	"tmbp/internal/report"
	"tmbp/internal/stm"
)

// runSTM executes the end-to-end STM experiment: real goroutines run real
// transactions over physically disjoint data through both table
// organizations, demonstrating the paper's core claim in a live runtime —
// the tagless table meets false conflicts that the tagged table never sees.
// A tagless alias costs a denied acquire and a wait for its holder, not an
// abort, and a read block whose shared stamp moved by the time the attempt
// writes an aliasing block passes by value; the alias still aborts the
// attempt when the wait times out, and when a block only read finds its
// shared stamp moved at validation. So the table shows denials per attempt
// beside aborts per attempt, and compares the denials with the analytical
// model's prediction for the same (C, W, α, N).
func runSTM(fs *flag.FlagSet, args []string, csv *bool) error {
	threads := fs.Int("threads", 4, "concurrent transaction threads")
	writes := fs.Int("writes", 10, "blocks written per transaction")
	alphaF := fs.Int("alpha", 2, "blocks read per block written")
	entries := fs.Uint64("entries", 4096, "ownership table entries (power of two)")
	txns := fs.Int("txns", 500, "transactions per thread")
	seed := fs.Uint64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	t := report.New("End-to-end STM: tagless vs tagged on disjoint data",
		"table", "commits", "aborts", "abort rate", "denials/attempt", "model prediction")
	for _, kind := range []string{"tagless", "tagged"} {
		st, ts, err := runWorkload(kind, *threads, *writes, *alphaF, *entries, *txns, *seed)
		if err != nil {
			return err
		}
		pred := "0.0%"
		if kind == "tagless" {
			p := model.Params{W: *writes, Alpha: float64(*alphaF), C: *threads, N: float64(*entries)}
			// Per-attempt abort probability: one transaction's share of the
			// group conflict hazard.
			perTxn := 1 - p.CommitProbability()
			pred = "<=" + report.Pct(perTxn)
		}
		t.Add(kind,
			report.U64(st.Commits), report.U64(st.Aborts),
			report.Pct(st.AbortRate()), report.Pct(float64(ts.Conflicts)/float64(st.Commits+st.Aborts)), pred)
	}
	t.Note("threads=%d writes=%d alpha=%d entries=%d txns/thread=%d; all data physically disjoint, so every denial and abort is a false conflict",
		*threads, *writes, *alphaF, *entries, *txns)
	t.Note("a tagless denial waits for its holder; it aborts only when the wait times out, or when a block only read finds its shared stamp moved at validation")
	t.Note("model bound is the group conflict likelihood (Eq. 8, saturating), compared with denials per attempt; per-attempt rates sit below it")
	if *csv {
		return t.RenderCSV(os.Stdout)
	}
	return t.Render(os.Stdout)
}

// runWorkload executes the disjoint-stripe workload against one table kind
// and returns the runtime's stats and the table's.
//
// Each thread reads and writes word 0 of the blocks of its own stripe, in a
// region of memory of its own, one table's worth of blocks: the stripes are
// physically disjoint, but thread g's stripe starts at an odd skew of g·379
// blocks into its region, so under the masked ownership table the stripes'
// blocks alias heavily — the Berkeley-DB-style pathology Damron et al.
// observed. A scheduler yield between block accesses stands in for real
// computation so transactions overlap even on a single CPU.
func runWorkload(kind string, threads, writes, alpha int, entries uint64, txns int, seed uint64) (stm.Stats, otable.Stats, error) {
	h, err := hash.New("mask", entries)
	if err != nil {
		return stm.Stats{}, otable.Stats{}, err
	}
	tab, err := otable.New(kind, h)
	if err != nil {
		return stm.Stats{}, otable.Stats{}, err
	}
	blocksPerTxn := writes * (1 + alpha)
	stripeBlocks := blocksPerTxn * 8
	const blockWords = addr.BlockBytes / addr.WordBytes
	mem := stm.NewMemory(threads * int(entries) * blockWords) // one region of entries blocks per thread
	rt, err := stm.New(stm.Config{Table: tab, Memory: mem, Seed: seed})
	if err != nil {
		return stm.Stats{}, otable.Stats{}, err
	}

	var wg sync.WaitGroup
	errs := make(chan error, threads)
	for g := 0; g < threads; g++ {
		wg.Add(1)
		go func(gid int) {
			defer wg.Done()
			th := rt.NewThread()
			// The region's first block has table index 0; the odd skew makes
			// the stripes overlap in the table partially rather than totally.
			region, skew := uint64(gid)*entries, uint64(gid)*379
			for i := 0; i < txns; i++ {
				if err := th.Atomic(func(tx *stm.Tx) error {
					for k := 0; k < blocksPerTxn; k++ {
						blk := uint64((i*blocksPerTxn + k) % stripeBlocks)
						a := addr.BlockAddr(addr.Block(region + (skew+blk)%entries))
						if k%(alpha+1) == alpha {
							tx.Write(a, uint64(i))
						} else {
							tx.Read(a)
						}
						runtime.Gosched() // interleave transactions even on one CPU
					}
					return nil
				}); err != nil {
					errs <- fmt.Errorf("thread %d: %w", gid, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return stm.Stats{}, otable.Stats{}, err
	}
	return rt.Stats(), tab.Stats(), nil
}
