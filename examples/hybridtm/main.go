// Hybrid TM lifecycle: hardware mode until the cache overflows, then
// software mode through the ownership table.
//
// A hybrid TM runs transactions in an HTM whose read/write sets live in the
// L1 data cache; when a transaction's footprint no longer fits (a set
// overflows its associativity), execution falls back to the STM. This
// example walks that hand-off end to end:
//
//  1. replay a synthetic mcf-like workload through the 32 KB 4-way cache
//     simulator until it overflows — this is the transaction the STM must
//     absorb;
//  2. ask the analytical model what tagless ownership table the overflowed
//     transaction would need for usable commit rates;
//  3. actually run a transaction of that footprint through the STM on both
//     table organizations.
//
// Run with: go run ./examples/hybridtm
package main

import (
	"fmt"
	"log"
	"math/rand/v2"
	"runtime"

	"tmbp"
)

func main() {
	// Step 1: find the HTM overflow point for an mcf-like transaction.
	profile := pick("mcf")
	stream, err := tmbp.NewSpecStream(profile, 2026)
	if err != nil {
		log.Fatal(err)
	}
	c := tmbp.NewTxCache(tmbp.Default32KCache(0))
	instrs := 0
	for {
		acc := stream.Next()
		instrs += acc.Instrs
		if c.Access(acc.Block, acc.Write) {
			break
		}
	}
	fmt.Printf("HTM mode (32KB 4-way): overflowed after %d instructions\n", instrs)
	fmt.Printf("  footprint: %d blocks (%d read-only, %d written) = %.0f%% of the cache\n",
		c.Footprint(), c.FootprintReads(), c.FootprintWrites(), 100*c.Utilization())

	// Step 2: the STM side must now handle a transaction of this size.
	w := c.FootprintWrites()
	alpha := float64(c.FootprintReads()) / float64(w)
	fmt.Printf("\nSTM hand-off: W=%d written blocks, alpha=%.1f\n", w, alpha)
	for _, commit := range []float64{0.50, 0.95} {
		for _, conc := range []int{2, 8} {
			n, err := tmbp.TableSizeFor(commit, w, alpha, conc)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  tagless table for %2.0f%% commit at concurrency %d: %12.0f entries\n",
				100*commit, conc, n)
		}
	}

	// Step 3: run the overflowed transaction through the real STM against a
	// generously sized (64k-entry) tagless table and a tagged one.
	fmt.Println("\nreplaying the overflowed transaction through the STM (2 threads, 64k entries):")
	for _, kind := range []string{"tagless", "tagged"} {
		aborts, err := replay(kind, w, int(alpha))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-8s: %d false aborts over 100 paired runs\n", kind, aborts)
	}
	fmt.Println("\nconclusion: overflowed transactions are exactly the large ones; a tagless")
	fmt.Println("table either scales to millions of entries or serializes them (Section 6).")
}

// pick returns the named profile from the bundled suite.
func pick(name string) tmbp.TraceProfile {
	for _, p := range tmbp.SpecProfiles() {
		if p.Name == name {
			return p
		}
	}
	log.Fatalf("profile %q not bundled", name)
	return tmbp.TraceProfile{}
}

// replay runs 100 pairs of disjoint transactions of the overflow footprint
// through the STM and counts aborts.
func replay(kind string, w, alpha int) (uint64, error) {
	const entries = 65536
	table, err := tmbp.NewTable(kind, entries, "mask")
	if err != nil {
		return 0, err
	}
	// Each thread touches word 0 of blocks in a region of its own, one
	// table's worth of blocks: disjoint data that aliases in the table.
	mem := tmbp.NewMemory(2 * entries * 8)
	rt, err := tmbp.NewSTM(tmbp.STMConfig{Table: table, Memory: mem, Seed: 5})
	if err != nil {
		return 0, err
	}
	blocks := w * (1 + alpha)
	done := make(chan error, 2)
	for g := 0; g < 2; g++ {
		go func(gid int) {
			th := rt.NewThread()
			rng := rand.New(rand.NewPCG(uint64(gid), 7))
			region := gid * entries
			const span = 1 << 18
			for i := 0; i < 100; i++ {
				start := rng.Uint64N(span)
				err := th.Atomic(func(tx *tmbp.Tx) error {
					for k := 0; k < blocks; k++ {
						b := region + int((start+uint64(k))%span%entries)
						a := mem.WordAddr(8 * b)
						if k%(alpha+1) == alpha {
							tx.Write(a, uint64(i))
						} else {
							tx.Read(a)
						}
						runtime.Gosched() // interleave the two threads
					}
					return nil
				})
				if err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 2; g++ {
		if err := <-done; err != nil {
			return 0, err
		}
	}
	return rt.Stats().Aborts, nil
}
