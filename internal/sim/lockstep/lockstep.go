// Package lockstep implements the paper's first set of validation
// simulations (Section 4, Figure 4): C transactions progress in lock step,
// each executing the pattern of α reads followed by one write on freshly
// chosen random cache blocks, with blocks added to the transactions'
// footprints in a round-robin manner. A trial asks a single question — did
// any conflict occur before all transactions completed W writes? — and the
// conflict likelihood for a configuration is the fraction of trials
// answering yes.
//
// The simulation deliberately drives the *real* ownership-table
// implementations rather than an abstract urn model, so it also validates
// the table bookkeeping and (for tagged tables) demonstrates the absence of
// false conflicts on disjoint data.
package lockstep

import (
	"fmt"

	"tmbp/internal/addr"
	"tmbp/internal/hash"
	"tmbp/internal/otable"
	"tmbp/internal/stats"
	"tmbp/internal/xrand"
)

// Config parameterizes one simulated configuration.
type Config struct {
	// C is the number of concurrent transactions (paper: 2–8).
	C int
	// W is the write footprint: each transaction performs W writes.
	W int
	// Alpha is the number of fresh reads preceding each write (paper: 2).
	Alpha int
	// N is the ownership table size in entries (power of two).
	N uint64
	// Kind selects the table organization: "tagless" (default) or "tagged".
	Kind string
	// Hash selects the address hash: "mask" (default), "fibonacci", "mix".
	// Blocks are drawn uniformly at random, so the choice is immaterial
	// here; it matters for the trace-driven study in package alias.
	Hash string
	// Trials is the number of Monte-Carlo trials (paper: 1000).
	Trials int
	// Seed makes the run reproducible.
	Seed uint64
	// BlockSpace is the number of distinct blocks addresses are drawn
	// from; defaults to 2^40 (collisions between random blocks are then
	// negligible, matching the model's no-true-conflict assumption).
	BlockSpace uint64
	// NTThreads adds strong-isolation non-transactional threads
	// (Section 6): each performs one probe — an ownership-table lookup
	// that is acquired and immediately released — per simulated block
	// step. A probe that collides with a transaction's entry is a
	// conflict, exactly like a transactional access. 0 disables.
	NTThreads int
	// NTWriteFraction is the probability an NT probe is a write
	// (default 1/3, matching the workload mix elsewhere).
	NTWriteFraction float64
}

// withDefaults returns cfg with unset fields defaulted.
func (cfg Config) withDefaults() Config {
	if cfg.Kind == "" {
		cfg.Kind = "tagless"
	}
	if cfg.Hash == "" {
		cfg.Hash = "mask"
	}
	if cfg.Trials == 0 {
		cfg.Trials = 1000
	}
	if cfg.BlockSpace == 0 {
		cfg.BlockSpace = 1 << 40
	}
	if cfg.NTWriteFraction == 0 {
		cfg.NTWriteFraction = 1.0 / 3
	}
	return cfg
}

// validate checks the configuration.
func (cfg Config) validate() error {
	switch {
	case cfg.C < 1:
		return fmt.Errorf("lockstep: C = %d must be >= 1", cfg.C)
	case cfg.W < 1:
		return fmt.Errorf("lockstep: W = %d must be >= 1", cfg.W)
	case cfg.Alpha < 0:
		return fmt.Errorf("lockstep: alpha = %d must be >= 0", cfg.Alpha)
	case cfg.N == 0:
		return fmt.Errorf("lockstep: N must be > 0")
	case cfg.Trials < 1:
		return fmt.Errorf("lockstep: trials = %d must be >= 1", cfg.Trials)
	case cfg.NTThreads < 0:
		return fmt.Errorf("lockstep: NTThreads = %d must be >= 0", cfg.NTThreads)
	case cfg.NTWriteFraction < 0 || cfg.NTWriteFraction > 1:
		return fmt.Errorf("lockstep: NTWriteFraction = %v outside [0, 1]", cfg.NTWriteFraction)
	}
	return nil
}

// Result aggregates the trials for one configuration.
type Result struct {
	Config Config
	// Conflicted counts trials in which at least one conflict occurred
	// before all transactions completed.
	Conflicted int
	// Rate is Conflicted / Trials: the conflict likelihood the paper plots.
	Rate float64
	// RateLo and RateHi bound Rate with a Wilson 95% interval.
	RateLo, RateHi float64
	// IntraAliasRate is the fraction of block additions that aliased with
	// the adding transaction's own footprint — the quantity the paper
	// validates to be "below 3% as long as the conflict rate is below 50%".
	IntraAliasRate float64
	// MeanConflictStep is the mean write index at which the first conflict
	// occurred, over conflicted trials (0 if none conflicted).
	MeanConflictStep float64
	// FinalOccupied is the table occupancy after the last trial released
	// everything; a non-zero value indicates a permission leak.
	FinalOccupied uint64
}

// Run executes the Monte-Carlo experiment for one configuration.
func Run(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	h, err := hash.New(cfg.Hash, cfg.N)
	if err != nil {
		return Result{}, err
	}
	tab, err := otable.New(cfg.Kind, h)
	if err != nil {
		return Result{}, err
	}

	rng := xrand.New(cfg.Seed)
	var prop stats.Proportion
	var conflictStep stats.Sample
	additions, intraAliases := 0, 0

	fps := make([]*otable.Footprint, cfg.C)
	for i := range fps {
		fps[i] = otable.NewFootprint(tab, otable.TxID(i+1))
	}

	for trial := 0; trial < cfg.Trials; trial++ {
		conflicted, step, adds, aliases := runTrial(cfg, tab, fps, rng)
		prop.Record(conflicted)
		if conflicted {
			conflictStep.Add(float64(step))
		}
		additions += adds
		intraAliases += aliases
	}

	res := Result{
		Config:     cfg,
		Conflicted: prop.Successes(),
		Rate:       prop.Rate(),
	}
	res.RateLo, res.RateHi = prop.Wilson95()
	if additions > 0 {
		res.IntraAliasRate = float64(intraAliases) / float64(additions)
	}
	res.MeanConflictStep = conflictStep.Mean()
	res.FinalOccupied = tab.Occupied()
	return res, nil
}

// runTrial plays one trial: every transaction repeatedly adds α reads and
// one write, in lock step (round-robin per block), until each has written W
// blocks or a conflict occurs. It returns whether a conflict occurred, the
// write index at the time, and intra-transaction alias accounting.
func runTrial(cfg Config, tab otable.Table, fps []*otable.Footprint, rng *xrand.Rand) (conflicted bool, atWrite, additions, intraAliases int) {
	defer func() {
		for _, fp := range fps {
			fp.ReleaseAll()
		}
	}()
	// One "round" per write: α read-block additions then one write-block
	// addition, interleaved across transactions so all footprints grow in
	// lock step exactly as the model assumes (Section 3.1, assumption 4).
	for w := 1; w <= cfg.W; w++ {
		for blockInRound := 0; blockInRound <= cfg.Alpha; blockInRound++ {
			isWrite := blockInRound == cfg.Alpha // reads precede the write (Eq. 2's "-1")
			for _, fp := range fps {
				b := addr.Block(rng.Uint64n(cfg.BlockSpace))
				var out otable.Outcome
				if isWrite {
					out = fp.Write(b)
				} else {
					out = fp.Read(b)
				}
				additions++
				switch out {
				case otable.AlreadyHeld, otable.Upgraded:
					intraAliases++
				case otable.ConflictWriter, otable.ConflictReaders:
					return true, w, additions, intraAliases
				}
			}
			if ntProbeConflicts(cfg, tab, rng) {
				return true, w, additions, intraAliases
			}
		}
	}
	return false, 0, additions, intraAliases
}

// ntProbeConflicts performs one strong-isolation probe per configured
// non-transactional thread: an acquire of a random block that is released
// immediately if granted. A denied probe is a conflict between a
// transaction and non-transactional code (Section 6). Probes use TxIDs
// above the transactional range.
func ntProbeConflicts(cfg Config, tab otable.Table, rng *xrand.Rand) bool {
	for nt := 0; nt < cfg.NTThreads; nt++ {
		id := otable.TxID(cfg.C + nt + 1)
		b := addr.Block(rng.Uint64n(cfg.BlockSpace))
		if rng.Float64() < cfg.NTWriteFraction {
			if out, _ := otable.AcquireWrite(tab, id, b, 0); out.Conflict() {
				return true
			}
			otable.ReleaseWrite(tab, id, b)
		} else {
			if out, _ := otable.AcquireRead(tab, id, b); out.Conflict() {
				return true
			}
			otable.ReleaseRead(tab, id, b)
		}
	}
	return false
}
