package tmbp

// The benchmark harness: one benchmark per table/figure of the paper, plus
// microbenchmarks of the core data structures. Each figure benchmark runs a
// representative slice of its experiment per iteration and reports the
// headline metric alongside wall time, so `go test -bench=. -benchmem`
// doubles as a smoke reproduction:
//
//	BenchmarkFig2AliasLikelihood   alias rate at (C=2, W=20, N=16k)
//	BenchmarkFig3Overflow          cache utilization at overflow
//	BenchmarkFig4Lockstep          conflict rate vs the model at (2, 8, 512)
//	BenchmarkFig5Closed            closed-system conflicts at (2, 10, 4k)
//	BenchmarkFig6Concurrency       actual concurrency at (8, 20, 1k)
//	BenchmarkSizing                Eq. 8 table sizing
//	BenchmarkTagged*/Tagless*      ownership-table operation costs
//	BenchmarkTableDisjointParallel table synchronisation shared by threads on disjoint cells
//	BenchmarkSTM*                  end-to-end transaction throughput
//
// The full-fidelity figures are regenerated by `go run ./cmd/tmbp all`.

import (
	"runtime"
	"sync/atomic"
	"testing"

	"tmbp/internal/addr"
	"tmbp/internal/cache"
	"tmbp/internal/hash"
	"tmbp/internal/model"
	"tmbp/internal/otable"
	"tmbp/internal/overflow"
	"tmbp/internal/sim"
	"tmbp/internal/stm"
	"tmbp/internal/trace"
	"tmbp/internal/xrand"
)

// BenchmarkFig2AliasLikelihood reproduces one Figure 2 point per iteration:
// trace-driven aliasing at C=2, W=20, N=16k.
func BenchmarkFig2AliasLikelihood(b *testing.B) {
	var rate float64
	for i := 0; i < b.N; i++ {
		res, err := sim.Alias(sim.Config{
			C: 2, W: 20, N: 16384, Trials: 100, Seed: uint64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		rate = res.Rate
	}
	b.ReportMetric(100*rate, "alias-%")
}

// BenchmarkFig3Overflow reproduces one benchmark column of Figure 3 per
// iteration (the gcc-like profile).
func BenchmarkFig3Overflow(b *testing.B) {
	p, err := trace.ProfileByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	var util float64
	for i := 0; i < b.N; i++ {
		res, err := overflow.RunBenchmark(p, overflow.Config{
			Cache: cache.Default32K(0), Traces: 5, Seed: uint64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		util = res.Blocks.Mean() / 512
	}
	b.ReportMetric(100*util, "cache-util-%")
}

// BenchmarkFig4Lockstep reproduces a Figure 4(a) point per iteration and
// reports both the measured rate and the model's prediction.
func BenchmarkFig4Lockstep(b *testing.B) {
	var rate float64
	for i := 0; i < b.N; i++ {
		res, err := sim.Lockstep(sim.Config{
			C: 2, W: 8, Alpha: 2, N: 512, Trials: 300, Seed: uint64(i + 1),
		}, 0)
		if err != nil {
			b.Fatal(err)
		}
		rate = res.Rate
	}
	p := model.Params{W: 8, Alpha: 2, C: 2, N: 512}
	b.ReportMetric(100*rate, "conflict-%")
	b.ReportMetric(100*p.SaturatingConflict(), "model-%")
}

// BenchmarkFig5Closed reproduces a Figure 5 point per iteration.
func BenchmarkFig5Closed(b *testing.B) {
	var conflicts float64
	for i := 0; i < b.N; i++ {
		res, err := sim.Closed(sim.Config{
			C: 2, W: 10, Alpha: 2, N: 4096, Trials: 1, Seed: uint64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		conflicts = res.Conflicts
	}
	b.ReportMetric(conflicts, "conflicts")
}

// BenchmarkFig6Concurrency reproduces a Figure 6 point per iteration and
// reports the actual-concurrency compensation measure.
func BenchmarkFig6Concurrency(b *testing.B) {
	var actual float64
	for i := 0; i < b.N; i++ {
		res, err := sim.Closed(sim.Config{
			C: 8, W: 20, Alpha: 2, N: 1024, Trials: 1, Seed: uint64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		actual = res.ActualConcurrency
	}
	b.ReportMetric(actual, "actual-concurrency")
}

// BenchmarkSizing evaluates the Sections 3.1-3.2 closed-form sizing.
func BenchmarkSizing(b *testing.B) {
	var n float64
	for i := 0; i < b.N; i++ {
		var err error
		n, err = model.TableSizeFor(0.95, 71, 2, 8)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(n, "entries")
}

// BenchmarkModelClosedForm measures the model evaluation itself.
func BenchmarkModelClosedForm(b *testing.B) {
	p := model.Params{W: 40, Alpha: 2, C: 4, N: 65536}
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = p.SaturatingConflict()
	}
	_ = sink
}

// benchTableOps measures acquire+release throughput of a table kind.
func benchTableOps(b *testing.B, kind string) {
	b.ReportAllocs()
	h := hash.NewMask(4096)
	tab, err := otable.New(kind, h)
	if err != nil {
		b.Fatal(err)
	}
	fp := otable.NewFootprint(tab, 1)
	rng := xrand.New(1)
	blocks := make([]addr.Block, 64)
	for i := range blocks {
		blocks[i] = addr.Block(rng.Uint64n(1 << 40))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, blk := range blocks {
			if k%3 == 2 {
				fp.Write(blk)
			} else {
				fp.Read(blk)
			}
		}
		fp.ReleaseAll()
	}
	b.ReportMetric(float64(64), "ops/txn")
}

// BenchmarkTaglessTable measures the tagless organization's footprint ops.
func BenchmarkTaglessTable(b *testing.B) { benchTableOps(b, "tagless") }

// BenchmarkTaggedTable measures the tagged organization's footprint ops —
// the tag-storage/chaining overhead the paper argues is small (Section 5).
func BenchmarkTaggedTable(b *testing.B) { benchTableOps(b, "tagged") }

// BenchmarkTableDisjointParallel measures what goroutines that never touch
// the same first-level cell still share inside a table. Each goroutine
// cycles acquire-read → upgrade → publishing write release, through the raw
// table with handles, over its own 256 consecutive cells of a mask-hashed
// table — so no operation is ever denied, no table word is written by two
// goroutines, and whatever keeps -cpu 2 from halving the -cpu 1 ns/op is
// cache lines the organization makes every thread write, chiefly the
// accounting. (The gated timing of benchmark/'s two-worker workloads is solo
// by design and cannot see this.)
func BenchmarkTableDisjointParallel(b *testing.B) {
	const perG, maxG = 256, 64
	for _, kind := range otable.Kinds() {
		b.Run(kind, func(b *testing.B) {
			tab, err := otable.New(kind, hash.NewMask(perG*maxG))
			if err != nil {
				b.Fatal(err)
			}
			var ids atomic.Uint32
			b.RunParallel(func(pb *testing.PB) {
				id := ids.Add(1)
				if id > maxG {
					b.Errorf("goroutine %d has no cell range of its own (max %d)", id, maxG)
					return
				}
				tx, base := otable.TxID(id), uint64(id-1)*perG
				for k := uint64(0); pb.Next(); k++ {
					blk := addr.Block(base + k%perG)
					outR, _, h := tab.AcquireReadH(tx, blk)
					outW, _, _ := tab.AcquireWriteH(tx, blk, 1, h)
					if outR != otable.Granted || outW != otable.Upgraded {
						b.Errorf("block %v: read %v, upgrade %v on a private cell", blk, outR, outW)
						return
					}
					tab.ReleaseWriteV(tx, blk, h, k)
				}
			})
		})
	}
}

// BenchmarkTableWriteCycle prices the two write cycles
// BenchmarkTableDisjointParallel does not run, on the raw table with handles
// over 256 consecutive cells of a mask-hashed table: rmw-abortrelease is
// acquire-read → upgrade → ReleaseWriteH, a block a visible attempt reads
// and writes, released by an abort (which publishes no stamp);
// write-commitrelease is write-from-free → ReleaseWriteV, what an invisible
// attempt pays for a block it writes. Run at -cpu 1: the
// ns/op is the sum of the locked instructions docs/ARCHITECTURE.md
// ("Synchronisation budget") counts for each step.
func BenchmarkTableWriteCycle(b *testing.B) {
	const cells = 256
	for _, kind := range otable.Kinds() {
		tab, err := otable.New(kind, hash.NewMask(cells))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(kind+"/rmw-abortrelease", func(b *testing.B) {
			for k := 0; k < b.N; k++ {
				blk := addr.Block(k % cells)
				outR, _, h := tab.AcquireReadH(1, blk)
				outW, _, _ := tab.AcquireWriteH(1, blk, 1, h)
				if outR != otable.Granted || outW != otable.Upgraded {
					b.Fatalf("block %v: read %v, upgrade %v on a private cell", blk, outR, outW)
				}
				tab.ReleaseWriteH(1, blk, h)
			}
		})
		b.Run(kind+"/write-commitrelease", func(b *testing.B) {
			for k := 0; k < b.N; k++ {
				blk := addr.Block(k % cells)
				out, _, h := tab.AcquireWriteH(1, blk, 0, otable.NoHandle)
				if out != otable.Granted {
					b.Fatalf("block %v: write %v on a private cell", blk, out)
				}
				tab.ReleaseWriteV(1, blk, h, uint64(k))
			}
		})
	}
}

// benchSTM measures single-thread transaction throughput end to end. A
// steady-state transaction must not allocate: ReportAllocs makes any
// regression of the unified-log fast path fail review on sight.
func benchSTM(b *testing.B, kind string) {
	b.ReportAllocs()
	tab, err := NewTable(kind, 4096, "mask")
	if err != nil {
		b.Fatal(err)
	}
	mem := NewMemory(1 << 12)
	rt, err := NewSTM(STMConfig{Table: tab, Memory: mem, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	th := rt.NewThread()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := th.Atomic(func(tx *stm.Tx) error {
			for k := 0; k < 8; k++ {
				a := mem.WordAddr((i*8 + k) % 4096)
				tx.Write(a, tx.Read(a)+1)
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSTMTagless measures STM commit throughput on the tagless table.
func BenchmarkSTMTagless(b *testing.B) { benchSTM(b, "tagless") }

// BenchmarkSTMTagged measures STM commit throughput on the tagged table.
func BenchmarkSTMTagged(b *testing.B) { benchSTM(b, "tagged") }

// BenchmarkInvisibleReadThenWrite prices what an invisible attempt pays for
// the blocks it only reads once it also writes: one thread, four invisible
// reads and one write to a fifth block per transaction. The reads stay
// invisible through the commit, so the reported table read acquires per
// transaction must be 0.
func BenchmarkInvisibleReadThenWrite(b *testing.B) {
	for _, kind := range otable.Kinds() {
		b.Run(kind, func(b *testing.B) {
			b.ReportAllocs()
			tab, err := NewTable(kind, 4096, "mask")
			if err != nil {
				b.Fatal(err)
			}
			mem := NewMemory(1 << 12)
			rt, err := NewSTM(STMConfig{Table: tab, Memory: mem, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			th := rt.NewThread()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				err := th.Atomic(func(tx *stm.Tx) error {
					var sum uint64
					for k := 0; k < 4; k++ {
						sum += tx.Read(mem.WordAddr((i*40 + k*8) % 4096))
					}
					tx.Write(mem.WordAddr((i*40+32)%4096), sum+1)
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(tab.Stats().ReadAcquires)/float64(b.N), "read-acquires/op")
		})
	}
}

// BenchmarkInvisibleScan is the still-clock read path on its own: one thread,
// read-only transactions that read three words in each of 64 blocks, nobody
// committing a write. Each block costs one version sample for its first word
// and only the clock for the other two; the commit compares the clock and
// walks nothing.
func BenchmarkInvisibleScan(b *testing.B) {
	for _, kind := range otable.Kinds() {
		b.Run(kind, func(b *testing.B) {
			b.ReportAllocs()
			tab, err := NewTable(kind, 4096, "mask")
			if err != nil {
				b.Fatal(err)
			}
			mem := NewMemory(1 << 12)
			rt, err := NewSTM(STMConfig{Table: tab, Memory: mem, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			th := rt.NewThread()
			var sum uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				err := th.Atomic(func(tx *stm.Tx) error {
					base := i * 8
					for blk := 0; blk < 64; blk++ {
						for w := 0; w < 3; w++ {
							sum += tx.Read(mem.WordAddr((base + blk*8 + w) % 4096))
						}
					}
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			_ = sum
			if st := rt.Stats(); st.ROCommits != uint64(b.N) {
				b.Fatalf("invisible commits = %d of %d: the scan left the fast path", st.ROCommits, b.N)
			}
		})
	}
}

// benchSTMParallel measures multi-core transaction throughput on disjoint
// per-goroutine data: every committed transaction is conflict-free for the
// tagged table, so what keeps -cpu 2 from doubling -cpu 1 throughput is
// state the table makes disjoint transactions share. The tables are
// lock-free, so that is cache lines, not locks: every goroutine draws
// tagged records from one slab through striped free lists and counts events
// in striped accounting blocks, and two goroutines write the same line only
// when their cells pick the same stripe. BenchmarkTableDisjointParallel is
// the same question asked of the raw table, without the runtime around it.
func benchSTMParallel(b *testing.B, kind string) {
	b.ReportAllocs()
	const entries = 4096
	tab, err := NewTable(kind, entries, "mask")
	if err != nil {
		b.Fatal(err)
	}
	// A region of a table's worth of blocks per goroutine, indexed by its
	// thread ID (IDs count from 1; RunParallel starts GOMAXPROCS goroutines).
	mem := NewMemory((runtime.GOMAXPROCS(0) + 1) * entries * 8)
	rt, err := NewSTM(STMConfig{Table: tab, Memory: mem, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer() // the memory is setup, not per-transaction cost
	b.RunParallel(func(pb *testing.PB) {
		th := rt.NewThread()
		// Disjoint stripe per goroutine, aliasing across stripes in the
		// hashed index space (the `tmbp stm` disjoint-stripe layout).
		id := uint64(th.ID())
		region, skew := id*entries, id*379
		i := 0
		for pb.Next() {
			i++
			_ = th.Atomic(func(tx *stm.Tx) error {
				for k := 0; k < 8; k++ {
					blk := addr.Block(region + (skew+uint64((i*8+k)%256))%entries)
					if a := addr.BlockAddr(blk); k%3 == 2 {
						tx.Write(a, uint64(i))
					} else {
						tx.Read(a)
					}
				}
				return nil
			})
		}
	})
	st := rt.Stats()
	if total := st.Commits + st.Aborts; total > 0 {
		b.ReportMetric(100*st.AbortRate(), "abort-%")
	}
}

// BenchmarkSTMTaglessParallel is the parallel workload on the tagless table
// (its aborts here are all false conflicts).
func BenchmarkSTMTaglessParallel(b *testing.B) { benchSTMParallel(b, "tagless") }

// BenchmarkSTMTaggedParallel is the parallel workload on the tagged table.
func BenchmarkSTMTaggedParallel(b *testing.B) { benchSTMParallel(b, "tagged") }

// BenchmarkSTMContended measures throughput under real goroutine contention
// on a small table (heavy aliasing).
func BenchmarkSTMContended(b *testing.B) {
	b.ReportAllocs()
	tab, err := NewTable("tagless", 256, "mask")
	if err != nil {
		b.Fatal(err)
	}
	mem := NewMemory(1 << 12)
	rt, err := NewSTM(STMConfig{Table: tab, Memory: mem, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.RunParallel(func(pb *testing.PB) {
		th := rt.NewThread()
		i := 0
		for pb.Next() {
			i++
			_ = th.Atomic(func(tx *stm.Tx) error {
				a := mem.WordAddr((i * 8 * 31) % 4096)
				tx.Write(a, tx.Read(a)+1)
				return nil
			})
		}
	})
	st := rt.Stats()
	if total := st.Commits + st.Aborts; total > 0 {
		b.ReportMetric(100*st.AbortRate(), "abort-%")
	}
}

// BenchmarkWarehouseStream measures trace generation throughput.
func BenchmarkWarehouseStream(b *testing.B) {
	threads, err := trace.NewWarehouse(trace.DefaultWarehouse(4), 1)
	if err != nil {
		b.Fatal(err)
	}
	var sink trace.Access
	for i := 0; i < b.N; i++ {
		sink = threads[i%4].Next()
	}
	_ = sink
}

// BenchmarkSpecStream measures profile stream generation throughput.
func BenchmarkSpecStream(b *testing.B) {
	p, err := trace.ProfileByName("mcf")
	if err != nil {
		b.Fatal(err)
	}
	s, err := trace.NewSpecStream(p, 1)
	if err != nil {
		b.Fatal(err)
	}
	var sink trace.Access
	for i := 0; i < b.N; i++ {
		sink = s.Next()
	}
	_ = sink
}

// BenchmarkCacheAccess measures the cache simulator's access path.
func BenchmarkCacheAccess(b *testing.B) {
	c := cache.New(cache.Default32K(1))
	rng := xrand.New(1)
	blocks := make([]addr.Block, 256)
	for i := range blocks {
		blocks[i] = addr.Block(rng.Intn(400))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.Access(blocks[i%256], i%3 == 0) {
			c.Reset()
		}
	}
}
