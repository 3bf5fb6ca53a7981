package sim

import (
	"fmt"

	"tmbp/internal/addr"
	"tmbp/internal/otable"
	"tmbp/internal/stats"
	"tmbp/internal/trace"
	"tmbp/internal/xrand"
)

// AliasResult aggregates the trace-driven trials of one configuration.
type AliasResult struct {
	// Rate is the alias likelihood: the fraction of trials in which an
	// alias-induced conflict occurred before all streams finished.
	Rate float64
	// Aliased is the absolute count of aliased trials.
	Aliased int
	// TrueConflictsRemoved is the mean number of accesses per trial dropped
	// by the true-conflict filter.
	TrueConflictsRemoved float64
	// MeanWriteAtAlias is the mean per-stream write count when the alias
	// struck (aliased trials only).
	MeanWriteAtAlias float64
}

// stream is the per-thread trial state.
type stream struct {
	src     *trace.WarehouseThread
	fp      *otable.Footprint
	written map[addr.Block]struct{}
	done    bool
}

// Alias runs the trace-driven aliasing study of Section 2.2: C concurrent
// streams of the synthetic warehouse workload (trace.DefaultWarehouse)
// populate the table until each has written W blocks, and a trial records
// whether an alias-induced conflict occurred first. As in the paper, true
// conflicts are removed before they reach the table — every block belongs
// to the stream that touches it first, and other streams' accesses to it
// are dropped — so any conflict a tagless table reports comes from hashing
// distinct addresses to the same entry.
func Alias(cfg Config) (AliasResult, error) {
	if cfg.C < 2 {
		return AliasResult{}, fmt.Errorf("sim: alias needs C >= 2 streams, got %d", cfg.C)
	}
	_, fps, err := setup(cfg)
	if err != nil {
		return AliasResult{}, err
	}

	streams := make([]*stream, cfg.C)
	for i := range streams {
		streams[i] = &stream{fp: fps[i], written: make(map[addr.Block]struct{}, cfg.W)}
	}

	var prop stats.Proportion
	var atWrite stats.Sample
	removedTotal := 0
	for s := 0; s < cfg.Trials; s++ {
		// Each trial samples an independent window of the workload: fresh
		// per-sample layout randomness stands in for the paper's sampling
		// of distinct regions of one long trace, and keeps trials
		// uncorrelated.
		threads, werr := trace.NewWarehouse(trace.DefaultWarehouse(cfg.C), xrand.Mix64(cfg.Seed^uint64(s)*0x9e3779b97f4a7c15))
		if werr != nil {
			return AliasResult{}, werr
		}
		for i := range streams {
			streams[i].src = threads[i]
		}
		aliased, w, removed := aliasTrial(cfg.W, streams)
		prop.Record(aliased)
		if aliased {
			atWrite.Add(float64(w))
		}
		removedTotal += removed
	}

	return AliasResult{
		Rate:                 prop.Rate(),
		Aliased:              prop.Successes(),
		TrueConflictsRemoved: float64(removedTotal) / float64(cfg.Trials),
		MeanWriteAtAlias:     atWrite.Mean(),
	}, nil
}

// aliasTrial populates the table from successive windows of the streams
// until every stream has written w distinct blocks or an alias conflict
// occurs. It returns whether an alias struck, the striking stream's write
// count at that moment, and the number of true-conflict accesses removed.
func aliasTrial(w int, streams []*stream) (aliased bool, atWrite, removed int) {
	claimed := make(map[addr.Block]int, len(streams)*w*4)
	for _, st := range streams {
		st.done = false
		for b := range st.written {
			delete(st.written, b)
		}
	}
	defer func() {
		for _, st := range streams {
			st.fp.ReleaseAll()
		}
	}()

	for {
		active := 0
		for i, st := range streams {
			if st.done {
				continue
			}
			active++
			// Consume accesses until this stream contributes one table
			// operation (skipping filtered true conflicts), keeping the
			// streams roughly in lock step.
			for {
				acc := st.src.Next()
				if owner, ok := claimed[acc.Block]; ok && owner != i {
					removed++
					continue // true conflict removed, as in the paper
				}
				claimed[acc.Block] = i
				if access(st.fp, acc.Block, acc.Write).Conflict() {
					return true, len(st.written) + 1, removed
				}
				if acc.Write {
					st.written[acc.Block] = struct{}{}
					if len(st.written) >= w {
						st.done = true
					}
				}
				break
			}
		}
		if active == 0 {
			return false, 0, removed
		}
	}
}
