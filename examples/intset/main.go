// The classic STM "intset" benchmark in the configuration that bit Damron
// et al.: threads operating on *disjoint* structures that share one
// ownership table.
//
// A sorted linked-list set is the standard STM stress test: every operation
// traverses the list, read-sharing each node on the path, so transactions
// have the large read footprints the paper's model is about. Here each of
// four threads owns a PRIVATE list — there is no true sharing at all, so a
// perfect conflict detector would never abort. The paper's Section 2.1
// recounts exactly this pathology in Damron et al.'s hybrid TM: Berkeley
// DB's per-region lock metadata was disjoint, but hash collisions in the
// tagless ownership table made performance collapse with processor count.
//
// Expect: tagged = zero aborts at every size. Tagless aborts only where two
// threads' transactions overlap in time, and a denied acquire first waits
// out its holder, so it aborts only when that wait runs out. The threads
// overlap for real only on two or more Ps, and each op holds its blocks
// briefly, so a run may show few tagless aborts. Growing the table does not
// remove the collisions behind them: the lists sit at correlated block
// offsets (47-block skew, 257-block footprints), so some of their blocks
// collide in a masked table of any size up to the region spacing. This is
// the Figure 2(b) asymptote in miniature: when address layouts are
// correlated, "just make the table bigger" stops working long before the
// table is big.
//
// Run with: go run ./examples/intset
package main

import (
	"fmt"
	"log"
	"sync"

	"tmbp"
	"tmbp/tmds"
)

const (
	threads  = 4
	opsEach  = 600
	keyRange = 128
	listCap  = 256
)

func main() {
	fmt.Println("intset: 4 threads, each on its OWN list (no true sharing)")
	fmt.Println("60% Contains / 20% Insert / 20% Remove, keys 0..127 per list")
	fmt.Printf("%-10s %-10s %-10s %-10s %-12s\n", "entries", "kind", "commits", "aborts", "abort rate")
	for _, entries := range []uint64{256, 1024, 4096, 16384} {
		for _, kind := range []string{"tagless", "tagged"} {
			stats, err := run(kind, entries)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-10d %-10s %-10d %-10d %10.2f%%\n",
				entries, kind, stats.Commits, stats.Aborts, 100*stats.AbortRate())
		}
	}
	fmt.Println("\nevery abort above is a false conflict: the lists are disjoint")
	fmt.Println("(the paper's Section 2.1 / Damron et al. pathology, reproduced live);")
	fmt.Println("growing the table does not remove the collisions behind them —")
	fmt.Println("correlated layouts are the Figure 2(b) asymptote, and only tags fix them")
}

func run(kind string, entries uint64) (tmbp.STMStats, error) {
	table, err := tmbp.NewTable(kind, entries, "mask")
	if err != nil {
		return tmbp.STMStats{}, err
	}
	// One private list per thread, regions far apart in the address space
	// (with a per-thread skew so layouts do not line up exactly). The
	// regions are physically disjoint yet alias within small tables.
	const regionWords = 1 << 18
	mem := tmbp.NewMemory(threads * regionWords)
	// The four threads interleave for real only on two or more Ps: on one,
	// each op completes within a scheduler slice and no conflicts can form.
	rt, err := tmbp.NewSTM(tmbp.STMConfig{Table: table, Memory: mem, Seed: 11})
	if err != nil {
		return tmbp.STMStats{}, err
	}
	lists := make([]*tmds.List, threads)
	init := rt.NewThread()
	for g := 0; g < threads; g++ {
		base := g*regionWords + g*376 // 47-block skew per thread
		lists[g], err = tmds.NewList(mem, base, listCap)
		if err != nil {
			return tmbp.STMStats{}, err
		}
		// Pre-populate to half of the key range.
		for k := uint64(0); k < keyRange; k += 2 {
			if _, err := lists[g].Insert(init, k); err != nil {
				return tmbp.STMStats{}, err
			}
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, threads)
	for g := 0; g < threads; g++ {
		wg.Add(1)
		go func(gid int) {
			defer wg.Done()
			th := rt.NewThread()
			list := lists[gid]
			rng := uint64(gid)*0x9e3779b97f4a7c15 + 12345
			next := func() uint64 { rng = rng*6364136223846793005 + 1442695040888963407; return rng >> 33 }
			for i := 0; i < opsEach; i++ {
				k := next() % keyRange
				var err error
				switch next() % 10 {
				case 0, 1: // 20% insert
					_, err = list.Insert(th, k)
				case 2, 3: // 20% remove
					_, err = list.Remove(th, k)
				default: // 60% lookup
					_, err = list.Contains(th, k)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return tmbp.STMStats{}, err
	}
	return rt.Stats(), nil
}
