package tmds

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"tmbp"
)

// benchIntset runs the classic sorted-list intset workload through the full
// stack (tmds.List over the STM) on one table organization.
func benchIntset(b *testing.B, kind string) {
	b.ReportAllocs()
	tab, err := tmbp.NewTable(kind, 4096, "mask")
	if err != nil {
		b.Fatal(err)
	}
	mem := tmbp.NewMemory(1 << 15)
	rt, err := tmbp.NewSTM(tmbp.STMConfig{Table: tab, Memory: mem, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	l, err := NewList(mem, 0, 256)
	if err != nil {
		b.Fatal(err)
	}
	th := rt.NewThread()
	for k := uint64(0); k < 128; k += 2 {
		if _, err := l.Insert(th, k); err != nil {
			b.Fatal(err)
		}
	}
	rng := uint64(7)
	next := func() uint64 { rng = rng*6364136223846793005 + 1442695040888963407; return rng >> 33 }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := next() % 128
		switch next() % 10 {
		case 0, 1:
			_, err = l.Insert(th, k)
		case 2, 3:
			_, err = l.Remove(th, k)
		default:
			_, err = l.Contains(th, k)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIntsetTagless measures list-set ops over the tagless table.
func BenchmarkIntsetTagless(b *testing.B) { benchIntset(b, "tagless") }

// BenchmarkIntsetTagged measures list-set ops over the tagged table.
func BenchmarkIntsetTagged(b *testing.B) { benchIntset(b, "tagged") }

// BenchmarkMapPutGet measures the transactional hash map.
func BenchmarkMapPutGet(b *testing.B) {
	b.ReportAllocs()
	tab, err := tmbp.NewTable("tagged", 4096, "fibonacci")
	if err != nil {
		b.Fatal(err)
	}
	mem := tmbp.NewMemory(1 << 15)
	rt, err := tmbp.NewSTM(tmbp.STMConfig{Table: tab, Memory: mem, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	m, err := NewMap(mem, 0, 1024)
	if err != nil {
		b.Fatal(err)
	}
	th := rt.NewThread()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := uint64(i % 512)
		if _, err := m.Put(th, k, uint64(i)); err != nil {
			b.Fatal(err)
		}
		if _, _, err := m.Get(th, k); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMapParallel runs a size-changing map mix (40 % put, 40 % delete,
// 20 % get) from RunParallel's goroutines, each on its own thread and its
// own key range, and reports attempts/op: transaction attempts per
// committed operation. The keys are disjoint and each has a home bucket of
// its own, so every abort comes from state the goroutines share without
// sharing keys: the stripe counters and the ownership table.
func BenchmarkMapParallel(b *testing.B) { benchMapParallel(b, false) }

// BenchmarkMapParallelSeparate runs BenchmarkMapParallel's loop with one
// runtime, table, memory and map per goroutine, so the goroutines share
// nothing. Its ns/op against BenchmarkMapParallel's at the same -cpu is the
// price of sharing one runtime on disjoint data.
func BenchmarkMapParallelSeparate(b *testing.B) { benchMapParallel(b, true) }

func benchMapParallel(b *testing.B, separate bool) {
	const keys = 64 // per goroutine
	procs := runtime.GOMAXPROCS(0)
	buckets := uint64(1)
	for buckets < uint64(4*keys*procs) {
		buckets <<= 1
	}
	// worlds[i] serves goroutine i; all of them share worlds[0] unless
	// separate. Each map has the shared one's size, and each goroutine keeps
	// its key range, so a goroutine's buckets are the same either way.
	n := 1
	if separate {
		n = procs // RunParallel starts GOMAXPROCS goroutines
	}
	type world struct {
		rt *tmbp.STM
		m  *Map
	}
	worlds := make([]world, n)
	for i := range worlds {
		rt, mem := newWorld(b, "tagged", 4096, spreadStride*(1+int(buckets)))
		m, err := NewMap(mem, 0, buckets)
		if err != nil {
			b.Fatal(err)
		}
		worlds[i] = world{rt, m}
	}
	stats := func() (commits, aborts uint64) {
		for _, w := range worlds {
			st := w.rt.Stats()
			commits, aborts = commits+st.Commits, aborts+st.Aborts
		}
		return
	}
	var ids atomic.Uint64
	commits0, aborts0 := stats()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := ids.Add(1) - 1
		w := worlds[id%uint64(n)]
		th := w.rt.NewThread()
		rng := id + 7
		next := func() uint64 { rng = rng*6364136223846793005 + 1442695040888963407; return rng >> 33 }
		for pb.Next() {
			k := id*keys + next()%keys
			var err error
			switch next() % 10 {
			case 0, 1, 2, 3:
				_, err = w.m.Put(th, k, k)
			case 4, 5, 6, 7:
				_, err = w.m.Delete(th, k)
			default:
				_, _, err = w.m.Get(th, k)
			}
			if err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	commits, aborts := stats()
	commits -= commits0
	b.ReportMetric(float64(commits+aborts-aborts0)/float64(commits), "attempts/op")
}

// skiplistBenchWorld builds a half-full skiplist (even keys of [0, 256))
// shared by the skiplist benchmarks and their allocation test.
func skiplistBenchWorld(tb testing.TB, kind string) (*tmbp.Thread, *Skiplist) {
	tb.Helper()
	rt, mem := newWorld(tb, kind, 4096, SkiplistWords(512))
	s, err := NewSkiplist(mem, 0, 512, 9)
	if err != nil {
		tb.Fatal(err)
	}
	th := rt.NewThread()
	for k := uint64(0); k < 256; k += 2 {
		if _, err := s.Put(th, k, k); err != nil {
			tb.Fatal(err)
		}
	}
	return th, s
}

// skiplistPointOp returns the point-operation mix (Get-heavy with occasional
// Put/Delete) as one op per call.
func skiplistPointOp(th *tmbp.Thread, s *Skiplist) func() error {
	rng := uint64(7)
	next := func() uint64 { rng = rng*6364136223846793005 + 1442695040888963407; return rng >> 33 }
	return func() error {
		k := next() % 256
		var err error
		switch next() % 10 {
		case 0, 1:
			_, err = s.Put(th, k, k)
		case 2:
			_, err = s.Delete(th, k)
		default:
			_, _, err = s.Get(th, k)
		}
		return err
	}
}

// skiplistScanOp returns a whole-structure range scan as one op per call:
// one transaction reading every level-0 node — a ~130-block footprint, far
// past the access set's 16 inline entries, so every scan spills. Body and
// callback are built once; a call creates no closure.
func skiplistScanOp(th *tmbp.Thread, s *Skiplist) func() error {
	n, blocks := 0, 0
	visit := func(_, _ uint64) error { n++; return nil }
	body := func(tx *tmbp.Tx) error {
		n = 0
		err := s.RangeScanTx(tx, 0, 255, visit)
		blocks = tx.FootprintBlocks()
		return err
	}
	return func() error {
		if err := th.Atomic(body); err != nil {
			return err
		}
		if n != 128 || blocks < 128 {
			return fmt.Errorf("scan saw %d entries over %d blocks, want 128 entries and a spilled footprint", n, blocks)
		}
		return nil
	}
}

// benchSkiplist runs one of the two skiplist ops over one table organization.
func benchSkiplist(b *testing.B, kind string, newOp func(*tmbp.Thread, *Skiplist) func() error) {
	b.ReportAllocs()
	op := newOp(skiplistBenchWorld(b, kind))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSkiplistTagless measures skiplist point ops over the tagless table.
func BenchmarkSkiplistTagless(b *testing.B) { benchSkiplist(b, "tagless", skiplistPointOp) }

// BenchmarkSkiplistTagged measures skiplist point ops over the tagged table.
func BenchmarkSkiplistTagged(b *testing.B) { benchSkiplist(b, "tagged", skiplistPointOp) }

// BenchmarkSkiplistScan measures the whole-structure scan. Its ~130 blocks
// go to the read log, not the access set.
func BenchmarkSkiplistScan(b *testing.B) { benchSkiplist(b, "tagged", skiplistScanOp) }

// TestSkiplistSteadyStateAllocationFree is the structure-level allocation
// gate, identical on every host: on every table organization the point mix
// (node allocation and reuse included) and the whole-structure scan
// allocate nothing once the thread's logs have grown to the footprint (the
// scan's blocks grow the read log; internal/stm's
// TestBigFootprintZeroAllocSteadyState covers a spilled access set).
// internal/stm's TestSteadyStateAllocationFree covers the raw
// transaction paths.
func TestSkiplistSteadyStateAllocationFree(t *testing.T) {
	ops := []struct {
		name  string
		newOp func(*tmbp.Thread, *Skiplist) func() error
	}{{"point", skiplistPointOp}, {"scan", skiplistScanOp}}
	for _, o := range ops {
		for _, kind := range sweepKinds() {
			t.Run(o.name+"/"+kind, func(t *testing.T) {
				op := o.newOp(skiplistBenchWorld(t, kind))
				run := func() {
					if err := op(); err != nil {
						t.Fatal(err)
					}
				}
				for i := 0; i < 200; i++ {
					run()
				}
				if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
					t.Fatalf("%v allocations per op, want 0", allocs)
				}
			})
		}
	}
}

// BenchmarkQueue measures enqueue/dequeue round trips.
func BenchmarkQueue(b *testing.B) {
	b.ReportAllocs()
	tab, err := tmbp.NewTable("tagged", 1024, "fibonacci")
	if err != nil {
		b.Fatal(err)
	}
	mem := tmbp.NewMemory(1 << 12)
	rt, err := tmbp.NewSTM(tmbp.STMConfig{Table: tab, Memory: mem, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	q, err := NewQueue(mem, 0, 64)
	if err != nil {
		b.Fatal(err)
	}
	th := rt.NewThread()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.Enqueue(th, uint64(i)); err != nil {
			b.Fatal(err)
		}
		if _, _, err := q.Dequeue(th); err != nil {
			b.Fatal(err)
		}
	}
}
