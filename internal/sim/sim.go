// Package sim holds the paper's three simulations of conflicts on an
// ownership table, each driving the real otable implementations:
//
//   - Lockstep (Section 4, Figure 4; Section 6 with non-transactional
//     probes): C transactions grow their footprints in lock step and a
//     trial asks whether any conflict occurs before all complete W writes.
//   - Closed (Section 4, Figures 5 and 6): C threads run transactions back
//     to back for a fixed simulated time, restarting on conflict.
//   - Alias (Section 2.2, Figure 2): C address streams from a synthetic
//     multithreaded workload fill the table until each has written W
//     blocks, with true conflicts filtered out, so every conflict left is
//     an alias.
//
// The engines share one Config, one table setup and one access step; each
// keeps its own result type and its own order of random draws.
package sim

import (
	"fmt"

	"tmbp/internal/addr"
	"tmbp/internal/hash"
	"tmbp/internal/otable"
	"tmbp/internal/xrand"
)

// BlockSpace is the number of distinct blocks Lockstep and Closed draw
// from: at 2^40, collisions between random blocks are negligible, matching
// the model's no-true-conflict assumption.
const BlockSpace = 1 << 40

// Config parameterizes one simulated configuration.
type Config struct {
	// C is the number of concurrent transactions, threads or streams
	// (paper: 2-8).
	C int
	// W is the write footprint: the writes each transaction performs, or
	// the distinct blocks each stream writes.
	W int
	// Alpha is the number of fresh reads preceding each write (paper: 2).
	// Alias's streams carry their own read/write mix and ignore it.
	Alpha int
	// N is the ownership table size in entries (power of two).
	N uint64
	// Kind selects the table organization: "tagless" (default) or
	// "tagged".
	Kind string
	// Hash selects the address hash: "mask" (default), "fibonacci" or
	// "mix". Random blocks make it immaterial for Lockstep and Closed; on
	// Alias's structured addresses the mask hash's stride preservation
	// produces Figure 2(b)'s asymptote.
	Hash string
	// Trials is the number of independent trials (paper: 1000 lock-step,
	// 5 closed runs, ~10,000 alias samples).
	Trials int
	// Seed makes the run reproducible.
	Seed uint64
}

// Footprint returns F, the number of block additions per transaction.
func (cfg Config) Footprint() int { return cfg.W * (1 + cfg.Alpha) }

func (cfg Config) validate() error {
	switch {
	case cfg.C < 1:
		return fmt.Errorf("sim: C = %d must be >= 1", cfg.C)
	case cfg.W < 1:
		return fmt.Errorf("sim: W = %d must be >= 1", cfg.W)
	case cfg.Alpha < 0:
		return fmt.Errorf("sim: alpha = %d must be >= 0", cfg.Alpha)
	case cfg.N == 0:
		return fmt.Errorf("sim: N must be > 0")
	case cfg.Trials < 1:
		return fmt.Errorf("sim: trials = %d must be >= 1", cfg.Trials)
	}
	return nil
}

// setup validates cfg and builds its table with one footprint per
// transaction, TxIDs 1..C (ids above C are free for other holders).
func setup(cfg Config) (otable.Table, []*otable.Footprint, error) {
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	if cfg.Kind == "" {
		cfg.Kind = "tagless"
	}
	if cfg.Hash == "" {
		cfg.Hash = "mask"
	}
	h, err := hash.New(cfg.Hash, cfg.N)
	if err != nil {
		return nil, nil, err
	}
	tab, err := otable.New(cfg.Kind, h)
	if err != nil {
		return nil, nil, err
	}
	fps := make([]*otable.Footprint, cfg.C)
	for i := range fps {
		fps[i] = otable.NewFootprint(tab, otable.TxID(i+1))
	}
	return tab, fps, nil
}

// access adds b to fp as a read or a write.
func access(fp *otable.Footprint, b addr.Block, write bool) otable.Outcome {
	if write {
		return fp.Write(b)
	}
	return fp.Read(b)
}

// randomBlock draws a block uniformly from BlockSpace.
func randomBlock(rng *xrand.Rand) addr.Block {
	return addr.Block(rng.Uint64n(BlockSpace))
}
