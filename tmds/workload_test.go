package tmds

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"tmbp"
	"tmbp/internal/xrand"
)

// newKeyedWorld builds a runtime plus a keyed workload structure of the
// given kind, sized for the key space [0, keys).
func newKeyedWorld(t testing.TB, kind string, keys int) (*tmbp.STM, Keyed) {
	t.Helper()
	words, err := KeyedWords(kind, keys)
	if err != nil {
		t.Fatal(err)
	}
	rt, mem := newWorld(t, "tagged", 4096, words)
	w, err := NewKeyed(kind, mem, 0, keys)
	if err != nil {
		t.Fatal(err)
	}
	return rt, w
}

// TestKeyedRejectsBadConfig pins the constructor's error contract.
func TestKeyedRejectsBadConfig(t *testing.T) {
	mem := tmbp.NewMemory(1 << 12)
	if _, err := NewKeyed("btree", mem, 0, 8); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := NewKeyed("hashmap", mem, 0, 0); err == nil {
		t.Error("zero key space accepted")
	}
	if _, err := KeyedWords("btree", 8); err == nil {
		t.Error("KeyedWords accepted unknown kind")
	}
	if _, err := KeyedWords("list", -1); err == nil {
		t.Error("KeyedWords accepted negative key space")
	}
}

// TestKeyedWordsSuffice checks that the advertised sizing is exactly what
// the constructor consumes: construction in a memory of KeyedWords words
// succeeds, and every kind survives a full-key-space write sweep.
func TestKeyedWordsSuffice(t *testing.T) {
	const keys = 33 // deliberately not a power of two
	for _, kind := range Kinds() {
		rt, w := newKeyedWorld(t, kind, keys)
		th := rt.NewThread()
		for k := uint64(0); k < keys; k++ {
			if err := th.Atomic(func(tx *tmbp.Tx) error {
				if err := w.WriteTx(tx, k, k*2); err != nil {
					return err
				}
				return w.ReadTx(tx, k)
			}); err != nil {
				t.Fatalf("%s: write/read of key %d: %v", kind, k, err)
			}
		}
	}
}

// TestKeyedMapMatchesOracle drives the hashmap workload adapter through a
// deterministic mixed sequence inside multi-operation transactions and
// compares the final contents against a Go map applying the adapter's
// documented semantics (WriteTx = Put, or Delete when v%16 == 15).
func TestKeyedMapMatchesOracle(t *testing.T) {
	const keys = 64
	words, err := KeyedWords("hashmap", keys)
	if err != nil {
		t.Fatal(err)
	}
	rt, mem := newWorld(t, "tagged", 4096, words)
	m, err := NewMap(mem, 0, mapWorkloadBuckets(keys))
	if err != nil {
		t.Fatal(err)
	}
	w := keyedMap{m}
	th := rt.NewThread()
	oracle := map[uint64]uint64{}
	for i := 0; i < 500; i++ {
		// Three keyed writes per transaction, from a cheap deterministic
		// stream; commit applies all three at once.
		ops := [3][2]uint64{}
		for j := range ops {
			k := uint64((i*7 + j*13) % keys)
			v := uint64(i*31 + j*5)
			ops[j] = [2]uint64{k, v}
			if v%16 == 15 {
				delete(oracle, k)
			} else {
				oracle[k] = v
			}
		}
		if err := th.Atomic(func(tx *tmbp.Tx) error {
			for _, kv := range ops {
				if err := w.WriteTx(tx, kv[0], kv[1]); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < keys; k++ {
		got, ok, err := m.Get(th, k)
		if err != nil {
			t.Fatal(err)
		}
		want, wantOK := oracle[k]
		if ok != wantOK || (ok && got != want) {
			t.Fatalf("key %d: map has (%d, %v), oracle has (%d, %v)", k, got, ok, want, wantOK)
		}
	}
	if n, _ := m.Len(th); n != len(oracle) {
		t.Fatalf("map size %d, oracle size %d", n, len(oracle))
	}
}

// TestKeyedListBoundedByKeySpace verifies the list adapter's no-ErrFull
// guarantee: inserting every key twice never exhausts the capacity-equals-
// key-space free list, and removes reclaim nodes.
func TestKeyedListBoundedByKeySpace(t *testing.T) {
	const keys = 16
	rt, w := newKeyedWorld(t, "list", keys)
	th := rt.NewThread()
	for pass := 0; pass < 2; pass++ {
		for k := uint64(0); k < keys; k++ {
			if err := th.Atomic(func(tx *tmbp.Tx) error {
				return w.WriteTx(tx, k, 0) // even value: insert
			}); err != nil {
				t.Fatalf("pass %d insert %d: %v", pass, k, err)
			}
		}
	}
	l := w.(keyedList).l
	if n, _ := l.Len(th); n != keys {
		t.Fatalf("list size %d after duplicate inserts, want %d", n, keys)
	}
	for k := uint64(0); k < keys; k += 2 {
		if err := th.Atomic(func(tx *tmbp.Tx) error {
			return w.WriteTx(tx, k, 1) // odd value: remove
		}); err != nil {
			t.Fatal(err)
		}
	}
	if n, _ := l.Len(th); n != keys/2 {
		t.Fatalf("list size %d after removes, want %d", n, keys/2)
	}
}

// TestKeyedQueueMissesComplete verifies the queue adapter's miss semantics:
// dequeue on empty and enqueue on full complete without error, and the
// element count never exceeds capacity.
func TestKeyedQueueMissesComplete(t *testing.T) {
	const keys = 4
	rt, w := newKeyedWorld(t, "queue", keys)
	th := rt.NewThread()
	if err := th.Atomic(func(tx *tmbp.Tx) error {
		return w.ReadTx(tx, 0) // dequeue on empty: a miss, not an error
	}); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 3*keys; i++ {
		if err := th.Atomic(func(tx *tmbp.Tx) error {
			return w.WriteTx(tx, 0, 100+i)
		}); err != nil {
			t.Fatal(err)
		}
	}
	q := w.(keyedQueue).q
	if n, _ := q.Len(th); n != keys {
		t.Fatalf("queue holds %d, want capacity %d", n, keys)
	}
	// FIFO order survived the overflow misses: the first capacity values
	// are the ones retained.
	for i := uint64(0); i < keys; i++ {
		v, ok, err := q.Dequeue(th)
		if err != nil || !ok || v != 100+i {
			t.Fatalf("dequeue %d = (%d, %v, %v), want %d", i, v, ok, err, 100+i)
		}
	}
}

// TestKeyedMultiOpTransactionAtomic pins what the Tx-level operations
// exist for: several keyed writes inside one transaction commit or abort
// together. A user error after two writes must leave no trace.
func TestKeyedMultiOpTransactionAtomic(t *testing.T) {
	boom := errors.New("user abort")
	for _, kind := range Kinds() {
		rt, w := newKeyedWorld(t, kind, 32)
		th := rt.NewThread()
		if err := th.Atomic(func(tx *tmbp.Tx) error {
			if err := w.WriteTx(tx, 1, 2); err != nil {
				return err
			}
			if err := w.WriteTx(tx, 3, 4); err != nil {
				return err
			}
			return boom
		}); !errors.Is(err, boom) {
			t.Fatalf("%s: Atomic returned %v, want the user error", kind, err)
		}
		// A fresh observing transaction must see the untouched structure.
		switch k := w.(type) {
		case keyedMap:
			if n, _ := k.m.Len(th); n != 0 {
				t.Errorf("hashmap: aborted writes leaked, size %d", n)
			}
		case keyedList:
			if n, _ := k.l.Len(th); n != 0 {
				t.Errorf("list: aborted writes leaked, size %d", n)
			}
		case keyedQueue:
			if n, _ := k.q.Len(th); n != 0 {
				t.Errorf("queue: aborted writes leaked, size %d", n)
			}
		case keyedSkiplist:
			if n, _ := k.s.Len(th); n != 0 {
				t.Errorf("skiplist: aborted writes leaked, size %d", n)
			}
		}
		_ = rt
	}
}

// TestKeyedTracesOpaque records concurrent closed-loop runs of every keyed
// structure × ownership-table kind and checks each history opaque (CI also
// replays the dumps through `tmbp check`). The runs are tuned hot — 16
// Zipf-skewed keys over a 256-entry table, half the operations writes, a
// 5 % fuzz yield — so the traces contain genuine conflicts and aborts, not
// just a serial history. FallbackAfter 1 sends every transaction that
// aborts once to the serial token, whose attempts read under read shares,
// so the sweep records visible reads too. Sweeping the structures matters:
// their constructors initialize memory with direct stores, and a missing
// Init event shows up here as a phantom inconsistent read.
func TestKeyedTracesOpaque(t *testing.T) {
	if fallbacks := keyedTraceSweep(t, 0.5, 1); fallbacks == 0 {
		t.Fatal("no serial commit in the sweep: it recorded no visible reads")
	}
}

// TestKeyedTracesOpaqueInvisible is TestKeyedTracesOpaque read-mostly and
// with no serial fallback, where the version-validated read path carries
// the runs while the writing minority keeps conflicts (and validation
// aborts) in the trace.
func TestKeyedTracesOpaqueInvisible(t *testing.T) {
	keyedTraceSweep(t, 0.9, 0)
}

// keyedTraceSweep runs keyedTraceRun for every keyed structure × table kind
// and returns the serial-token commits summed over the runs.
func keyedTraceSweep(t *testing.T, readFrac float64, fallbackAfter int) (fallbacks uint64) {
	if testing.Short() {
		t.Skip("12 recorded concurrent runs")
	}
	for _, kind := range Kinds() {
		for _, table := range sweepKinds() {
			t.Run(kind+"/"+table, func(t *testing.T) {
				fallbacks += keyedTraceRun(t, kind, table, readFrac, fallbackAfter).FallbackCommits
			})
		}
	}
	return fallbacks
}

// keyedTraceRun is one recorded TestKeyedTracesOpaque run: 4 workers each
// commit txnsPerWorker transactions of 1 + Geometric(1/4) keyed operations
// drawn Zipf(1.2) over 16 keys, a readFrac share of them reads.
func keyedTraceRun(t *testing.T, kind, table string, readFrac float64, fallbackAfter int) tmbp.STMStats {
	const (
		workers       = 4
		txnsPerWorker = 64
		keys          = 16
		zipfS         = 1.2
		meanOps       = 4
	)
	tab, err := tmbp.NewTable(table, 256, "fibonacci")
	if err != nil {
		t.Fatal(err)
	}
	words, err := KeyedWords(kind, keys)
	if err != nil {
		t.Fatal(err)
	}
	mem := tmbp.NewMemory(words)
	cfg := tmbp.STMConfig{Table: tab, Memory: mem, Seed: 1, FuzzYield: 0.05, FallbackAfter: fallbackAfter}
	log := attachLog(t, &cfg)
	samples := countSamples(&cfg)
	rt, err := tmbp.NewSTM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewKeyed(kind, mem, 0, keys)
	if err != nil {
		t.Fatal(err)
	}
	recordInitialWords(log, mem)

	type op struct {
		read bool
		k, v uint64
	}
	zipf := xrand.NewZipf(keys, zipfS)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(gid int) {
			defer wg.Done()
			th := rt.NewThread()
			rng := xrand.NewWithStream(1, uint64(gid))
			var ops []op
			for i := 0; i < txnsPerWorker; i++ {
				// Draw the transaction before running it, so a retry replays
				// the same operations.
				ops = ops[:0]
				for n := 1 + rng.Geometric(1.0/meanOps); n > 0; n-- {
					ops = append(ops, op{read: rng.Float64() < readFrac,
						k: uint64(zipf.Sample(rng)), v: rng.Uint64()})
				}
				if err := th.Atomic(func(tx *tmbp.Tx) error {
					for _, o := range ops {
						var err error
						if o.read {
							err = w.ReadTx(tx, o.k)
						} else {
							err = w.WriteTx(tx, o.k, o.v)
						}
						if err != nil {
							return err
						}
					}
					return nil
				}); err != nil {
					errs <- fmt.Errorf("worker %d: %w", gid, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	if st.Commits != workers*txnsPerWorker {
		t.Fatalf("%d commits, want %d", st.Commits, workers*txnsPerWorker)
	}
	checkOpaque(t, log)
	assertDrained(t, rt, samples, mem.WordAddr(0))
	return st
}
