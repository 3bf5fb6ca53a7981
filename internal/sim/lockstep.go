package sim

import (
	"fmt"

	"tmbp/internal/otable"
	"tmbp/internal/stats"
	"tmbp/internal/xrand"
)

// ntWriteFraction is the probability a non-transactional probe is a write,
// matching the workload mix elsewhere.
const ntWriteFraction = 1.0 / 3

// LockstepResult aggregates the lock-step trials of one configuration.
type LockstepResult struct {
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

// Lockstep runs the lock-step experiment of Section 4: C transactions each
// execute the pattern of α reads followed by one write on fresh random
// blocks, adding blocks round-robin, and a trial records whether any
// conflict occurred before all completed W writes.
//
// ntThreads adds Section 6's strong-isolation non-transactional threads:
// each performs one probe — a table acquire of a random block, released at
// once — per simulated block step, and a denied probe is a conflict
// exactly like a transactional one. 0 disables them.
func Lockstep(cfg Config, ntThreads int) (LockstepResult, error) {
	if ntThreads < 0 {
		return LockstepResult{}, fmt.Errorf("sim: NT threads = %d must be >= 0", ntThreads)
	}
	tab, fps, err := setup(cfg)
	if err != nil {
		return LockstepResult{}, err
	}

	rng := xrand.New(cfg.Seed)
	var prop stats.Proportion
	var conflictStep stats.Sample
	additions, intraAliases := 0, 0
	for trial := 0; trial < cfg.Trials; trial++ {
		conflicted, step, adds, aliases := lockstepTrial(cfg, ntThreads, tab, fps, rng)
		prop.Record(conflicted)
		if conflicted {
			conflictStep.Add(float64(step))
		}
		additions += adds
		intraAliases += aliases
	}

	res := LockstepResult{
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

// lockstepTrial plays one trial: every transaction repeatedly adds α reads
// and one write, in lock step (round-robin per block), until each has
// written W blocks or a conflict occurs. It returns whether a conflict
// occurred, the write index at the time, and intra-transaction alias
// accounting.
func lockstepTrial(cfg Config, ntThreads int, tab otable.Table, fps []*otable.Footprint, rng *xrand.Rand) (conflicted bool, atWrite, additions, intraAliases int) {
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
				additions++
				switch access(fp, randomBlock(rng), isWrite) {
				case otable.AlreadyHeld, otable.Upgraded:
					intraAliases++
				case otable.ConflictWriter, otable.ConflictReaders:
					return true, w, additions, intraAliases
				}
			}
			if ntProbeConflicts(cfg.C, ntThreads, tab, rng) {
				return true, w, additions, intraAliases
			}
		}
	}
	return false, 0, additions, intraAliases
}

// ntProbeConflicts performs one strong-isolation probe per
// non-transactional thread: an acquire of a random block that is released
// immediately if granted. A denied probe is a conflict between a
// transaction and non-transactional code (Section 6). Probes use TxIDs
// above the c transactions'.
func ntProbeConflicts(c, ntThreads int, tab otable.Table, rng *xrand.Rand) bool {
	for nt := 0; nt < ntThreads; nt++ {
		id := otable.TxID(c + nt + 1)
		b := randomBlock(rng)
		if rng.Float64() < ntWriteFraction {
			out, _, h := tab.AcquireWriteH(id, b, 0, otable.NoHandle)
			if out.Conflict() {
				return true
			}
			tab.ReleaseWriteV(id, b, h, 0)
		} else {
			out, _, h := tab.AcquireReadH(id, b)
			if out.Conflict() {
				return true
			}
			tab.ReleaseReadH(id, b, h)
		}
	}
	return false
}
