// False conflicts live: the paper's core claim demonstrated on the real
// STM runtime rather than a simulator.
//
// Four threads transactionally update physically disjoint data — there is
// no true sharing whatsoever, so a perfect conflict detector would never
// see a conflict. Under a tagless ownership table, unrelated blocks that
// hash to the same entry are indistinguishable: a write acquire is denied
// by a holder of an aliasing block. The runtime waits for that holder
// instead of aborting, so an alias costs a denial and a wait; the attempt
// still aborts when the wait times out, when a block it read (this workload
// reads by ReadBlock) finds its shared stamp moved at the write acquire, or
// when a block it only read finds it moved at validation. The example
// prints each table's measured denials and aborts per attempt on the
// identical workload — α = 2 read-only blocks per written block — for the
// tagless table and for the tagged table, which stores address tags and
// chains aliases so that no two blocks share an ownership slot.
// Reads are validated against version stamps, and the tagged table keeps
// its stamps per record, so a commit to one block never fails a reader of
// another, and the tagged rows read 0.00% — but for one case this workload
// can reach. It streams unique blocks, and when a bucket's chain grows too
// deep the oldest free record is reaped and its stamp folded into a
// per-bucket floor, which blocks with no record answer with. A reader that
// began before that record's commit — one stalled for hundreds of commits
// — then fails validation. It is rare (a few aborts in 1600 at 512
// entries, in some runs); internal/otable's version.go says why a bounded
// table cannot rule it out.
//
// The sweep over table sizes shows the paper's second finding: growing the
// tagless table only buys a sublinear reduction in false conflicts
// (conflict likelihood ∝ W²/N, Equation 4); the denial rate is the one
// Eq. 8 predicts.
//
// Run with: go run ./examples/falseconflicts
package main

import (
	"fmt"
	"log"
	"math/rand/v2"
	"runtime"
	"sync"

	"tmbp"
)

const (
	threads     = 4
	writesPer   = 10 // W: blocks written per transaction
	alpha       = 2  // reads per write
	txnsEach    = 400
	blocksPerTx = writesPer * (1 + alpha)
)

func main() {
	fmt.Println("disjoint-data workload: every denial and abort below is a FALSE conflict")
	fmt.Printf("%-10s %-10s %-12s %-12s %-14s %-14s\n", "entries", "kind", "commits", "aborts", "abort rate", "denials/attempt")
	for _, entries := range []uint64{512, 1024, 4096, 16384} {
		for _, kind := range []string{"tagless", "tagged"} {
			stats, denials, err := run(kind, entries)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-10d %-10s %-12d %-12d %8.2f%%      %8.2f%%\n",
				entries, kind, stats.Commits, stats.Aborts, 100*stats.AbortRate(),
				100*float64(denials)/float64(stats.Commits+stats.Aborts))
		}
		model := tmbp.ConflictLikelihood(threads, writesPer, alpha, entries)
		fmt.Printf("%-10s model group-conflict likelihood (Eq. 8): %.1f%%\n", "", 100*model)
	}
}

// run executes the workload on one configuration and returns the runtime's
// stats and the table's denied acquires.
func run(kind string, entries uint64) (tmbp.STMStats, uint64, error) {
	table, err := tmbp.NewTable(kind, entries, "mask")
	if err != nil {
		return tmbp.STMStats{}, 0, err
	}
	mem := tmbp.NewMemory(1024)
	rt, err := tmbp.NewSTM(tmbp.STMConfig{Table: table, Memory: mem, Seed: 7})
	if err != nil {
		return tmbp.STMStats{}, 0, err
	}

	var wg sync.WaitGroup
	failures := make(chan error, threads)
	for g := 0; g < threads; g++ {
		wg.Add(1)
		go func(gid int) {
			defer wg.Done()
			th := rt.NewThread()
			rng := rand.New(rand.NewPCG(uint64(gid), 99))
			// Each thread's blocks live a megablock apart: physically
			// disjoint yet aliasing under the masked table. Every
			// transaction touches a random window of its thread's stripe,
			// so footprints collide with birthday-paradox statistics.
			base := uint64(gid) * (1 << 20)
			const stripeSpan = 1 << 18
			for i := 0; i < txnsEach; i++ {
				start := rng.Uint64N(stripeSpan)
				err := th.Atomic(func(tx *tmbp.Tx) error {
					for k := 0; k < blocksPerTx; k++ {
						b := tmbp.Block(base + (start+uint64(k))%stripeSpan)
						if k%(alpha+1) == alpha {
							tx.WriteBlock(b)
						} else {
							tx.ReadBlock(b)
						}
						runtime.Gosched() // model computation between accesses
					}
					return nil
				})
				if err != nil {
					failures <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(failures)
	if err := <-failures; err != nil {
		return tmbp.STMStats{}, 0, err
	}
	return rt.Stats(), table.Stats().Conflicts, nil
}
