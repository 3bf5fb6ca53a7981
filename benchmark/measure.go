package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"tmbp/internal/otable"
	"tmbp/internal/stm"
)

const (
	// numSlices is the number of equal-count pieces each worker's interval is
	// cut into. Host interference only ever slows a one-worker slice down, so
	// rates and medians are taken per slice and the metric is read near the
	// undisturbed end of the 200: the 95th percentile slice rate, the 5th
	// percentile slice median. On a busy host the quartiles still moved by
	// 14-26 % between identical runs where these moved by 3-13 %.
	numSlices  = 200
	bestRate   = 0.95
	bestMedian = 0.05
	// latencyEvery is the latency sampling period: the timer costs tens of
	// nanoseconds against transactions of a few hundred.
	latencyEvery = 16
	// warmupFrac is the part of the measured count run, unmeasured, before
	// the interval starts; it belongs to set-up.
	warmupFrac = 10
	// fpBuckets bounds the footprint histogram of traced passes.
	fpBuckets = 1024
)

// A worker is one closed-loop client: it issues its next transaction only
// when the previous Atomic has returned.
type worker struct {
	id   int
	in   *instance
	th   *stm.Thread
	body func(tx *stm.Tx) error
	ring []uint16
	mask int      // ring length in transactions, minus one
	pos  int      // transactions issued so far; the ring position is pos&mask
	args []uint16 // input fields of the current transaction
	// bad is set by a body whose attempt violated an output check; it is
	// read after Atomic returns, so only a committed attempt counts.
	bad       bool
	footprint int // blocks touched by the last attempt
	failed    int
	tr        *tracer

	// Measurements of the current interval.
	base     time.Time
	latency  []uint32 // sampled Atomic latencies in ns, slice after slice
	sliceEnd []int64  // ns since base at the start and after each slice
	// Kept on traced passes only.
	retry3 int // commits that needed at least three attempts
	fp     []uint32
	_      [64]byte
}

// run executes nSlices slices of sliceLen transactions. With period > 0 one
// transaction in period is span-timed.
func (w *worker) run(nSlices, sliceLen, period int) {
	fields := w.in.sp.fields
	w.latency = w.latency[:0]
	w.sliceEnd = append(w.sliceEnd[:0], int64(time.Since(w.base)))
	for s := 0; s < nSlices; s++ {
		for i := 0; i < sliceLen; i++ {
			p := (w.pos & w.mask) * fields
			w.args = w.ring[p : p+fields]
			// Span-timed transactions are offset from the latency samples,
			// which they would otherwise always coincide with.
			spanned := period > 0 && w.pos%period == latencyEvery/2
			if spanned {
				w.tr.arm(uint32(w.pos))
			}
			var err error
			if i%latencyEvery == 0 {
				t0 := time.Since(w.base)
				err = w.th.Atomic(w.body)
				w.latency = append(w.latency, uint32(time.Since(w.base)-t0))
			} else {
				err = w.th.Atomic(w.body)
			}
			if spanned {
				w.tr.disarm()
			}
			if period > 0 {
				if w.th.Attempts() >= 3 {
					w.retry3++
				}
				w.fp[min(w.footprint, fpBuckets-1)]++
			}
			if err != nil || w.bad {
				w.failed++
				w.bad = false
			}
			w.pos++
		}
		w.sliceEnd = append(w.sliceEnd, int64(time.Since(w.base)))
	}
}

// counts are the program's own counters, read from outside through
// Runtime.Stats and Table.Stats, plus what only the decorators can see.
type counts struct {
	stm            stm.Stats
	tab            otable.Stats
	releaseReads   uint64
	releaseWrites  uint64
	versionSamples uint64
	indexCalls     uint64
	cmWaitNs       int64
}

func (in *instance) counts() counts {
	c := counts{stm: in.rt.Stats(), tab: in.tab.Stats()}
	if ts := in.trace; ts != nil {
		c.versionSamples = ts.versionSamples.total()
		c.indexCalls = ts.indexCalls.total()
		for _, t := range ts.tracers {
			c.releaseReads += t.releaseReads
			c.releaseWrites += t.releaseWrites
			c.cmWaitNs += t.cmWaitNs
		}
	}
	return c
}

// sub returns the counters accumulated since before.
func (c counts) sub(before counts) counts {
	d := c
	d.stm.Commits -= before.stm.Commits
	d.stm.Aborts -= before.stm.Aborts
	d.stm.FallbackCommits -= before.stm.FallbackCommits
	d.stm.ROCommits -= before.stm.ROCommits
	d.stm.ROValidationAborts -= before.stm.ROValidationAborts
	d.stm.ROPromotions -= before.stm.ROPromotions
	d.stm.ROExtensions -= before.stm.ROExtensions
	d.tab.ReadAcquires -= before.tab.ReadAcquires
	d.tab.WriteAcquires -= before.tab.WriteAcquires
	d.tab.Upgrades -= before.tab.Upgrades
	d.tab.Conflicts -= before.tab.Conflicts
	d.tab.Releases -= before.tab.Releases
	d.tab.ReleaseWalks -= before.tab.ReleaseWalks
	d.tab.ChainFollows -= before.tab.ChainFollows
	d.releaseReads -= before.releaseReads
	d.releaseWrites -= before.releaseWrites
	d.versionSamples -= before.versionSamples
	d.indexCalls -= before.indexCalls
	d.cmWaitNs -= before.cmWaitNs
	return d
}

// A pass is one set-up, warm-up, measured interval and output check of a
// workload on a fresh instance.
type pass struct {
	in        *instance
	active    int // workers that ran
	txns      int // transactions in the measured interval, all active workers
	attempted int // including the warm-up
	failed    int
	checkErr  error
	setup     time.Duration // instance construction, population, input drawing and warm-up
	counts    counts        // deltas over the measured interval
	mallocs   uint64
	gcCycles  uint32
	heapBytes uint64
	period    int // span-sampling period, 0 when untraced

	sliceRates []float64 // transactions per second, per slice, workers summed
	sliceP50   []float64 // median sampled latency per slice, workers pooled
	latencies  []uint32  // every sample of the interval, sorted
	wholeRate  float64   // transactions over first start to last end
}

// sliceLenFor converts an interval's transaction count into the per-worker
// slice length, a multiple of the latency sampling period.
func sliceLenFor(count, active int) int {
	n := count / active / numSlices
	return max(latencyEvery, n/latencyEvery*latencyEvery)
}

// setUp builds a fresh instance of sp and runs the warm-up on it with the
// first `active` workers, leaving it ready for a measured interval of
// sliceLen-transaction slices.
func setUp(sp *spec, seed uint64, sliceLen, active int, traced bool) (*instance, error) {
	in, err := newInstance(sp, seed, traced)
	if err != nil {
		return nil, err
	}
	perWorker := numSlices * sliceLen
	for _, w := range in.workers {
		w.latency = make([]uint32, 0, perWorker/latencyEvery)
		w.sliceEnd = make([]int64, 0, numSlices+1)
		if traced {
			w.fp = make([]uint32, fpBuckets)
		}
	}
	in.runWorkers(active, numSlices/warmupFrac, sliceLen, 0)
	return in, nil
}

// runWorkers runs the first `active` workers for nSlices slices each and
// waits for them; the others stay idle.
func (in *instance) runWorkers(active, nSlices, sliceLen, period int) {
	base := time.Now()
	var wg sync.WaitGroup
	for _, w := range in.workers[:active] {
		w.base, w.tr.base = base, base
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.run(nSlices, sliceLen, period)
		}()
	}
	wg.Wait()
}

// runPass measures count transactions (rounded to whole slices) of sp,
// issued by the first `active` of its workers. started is when set-up
// began: process start for the first pass of a process.
func runPass(sp *spec, seed uint64, count, active int, traced bool, started time.Time) (*pass, error) {
	sliceLen := sliceLenFor(count, active)
	in, err := setUp(sp, seed, sliceLen, active, traced)
	if err != nil {
		return nil, err
	}
	p := &pass{in: in, active: active, txns: active * numSlices * sliceLen}
	if traced {
		// A multiple of the latency period, so the offset in run holds.
		p.period = max(spanPeriod, numSlices*sliceLen/maxSpanTxns/latencyEvery*latencyEvery)
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	before := in.counts()
	p.setup = time.Since(started)

	in.runWorkers(active, numSlices, sliceLen, p.period)

	runtime.ReadMemStats(&ms1)
	p.counts = in.counts().sub(before)
	p.mallocs = ms1.Mallocs - ms0.Mallocs
	p.gcCycles = ms1.NumGC - ms0.NumGC
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	p.heapBytes = ms1.HeapAlloc

	p.reduce(sliceLen)
	for _, w := range in.workers {
		p.attempted += w.pos
		p.failed += w.failed
	}
	if got := int(p.counts.stm.Commits); got+p.failed < p.txns {
		p.checkErr = fmt.Errorf("%d transactions issued, %d committed, %d failed", p.txns, got, p.failed)
	} else {
		p.checkErr = sp.check(in)
	}
	return p, nil
}

// reduce turns the workers' raw timestamps and samples into per-slice
// rates and medians and the pooled, sorted latency sample.
func (p *pass) reduce(sliceLen int) {
	ws := p.in.workers[:p.active]
	perSlice := sliceLen / latencyEvery
	pooled := make([]uint32, 0, perSlice*len(ws))
	first, last := ws[0].sliceEnd[0], ws[0].sliceEnd[numSlices]
	for s := 0; s < numSlices; s++ {
		rate := 0.0
		pooled = pooled[:0]
		for _, w := range ws {
			rate += float64(sliceLen) / float64(w.sliceEnd[s+1]-w.sliceEnd[s]) * 1e9
			pooled = append(pooled, w.latency[s*perSlice:(s+1)*perSlice]...)
		}
		slices.Sort(pooled)
		p.sliceRates = append(p.sliceRates, rate)
		p.sliceP50 = append(p.sliceP50, float64(quantile(pooled, 0.5)))
	}
	for _, w := range ws {
		first = min(first, w.sliceEnd[0])
		last = max(last, w.sliceEnd[numSlices])
		p.latencies = append(p.latencies, w.latency...)
	}
	slices.Sort(p.latencies)
	slices.Sort(p.sliceRates)
	slices.Sort(p.sliceP50)
	p.wholeRate = float64(p.txns) / float64(last-first) * 1e9
}

// quantile returns the q-quantile of an ascending slice by nearest rank.
func quantile[T uint32 | float64](sorted []T, q float64) T {
	i := int(q*float64(len(sorted))+0.999999) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// ratio is a/b, and 0 where the denominator is: a count that did not occur
// has no rate.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
