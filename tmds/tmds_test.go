package tmds

import (
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"tmbp"
)

// newWorld builds a runtime over a fresh memory and the given table kind.
func newWorld(t testing.TB, kind string, entries uint64, words int) (*tmbp.STM, *tmbp.Memory) {
	t.Helper()
	tab, err := tmbp.NewTable(kind, entries, "mask")
	if err != nil {
		t.Fatal(err)
	}
	mem := tmbp.NewMemory(words)
	rt, err := tmbp.NewSTM(tmbp.STMConfig{Table: tab, Memory: mem, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return rt, mem
}

// sweepKinds is what the table sweeps run over: the organizations plus
// "sharded", the deprecated alias tmbp.NewTable still accepts for a tagged
// table. The frozen benchmark builds hot-mix's Map over that alias, so the
// structure sweeps keep it as a subtest until the alias goes.
func sweepKinds() []string { return append(tmbp.TableKinds(), "sharded") }

func TestListBasics(t *testing.T) {
	rt, mem := newWorld(t, "tagged", 1024, 1<<14)
	l, err := NewList(mem, 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	th := rt.NewThread()
	for _, k := range []uint64{5, 1, 9, 3} {
		added, err := l.Insert(th, k)
		if err != nil || !added {
			t.Fatalf("Insert(%d) = %v, %v", k, added, err)
		}
	}
	if added, _ := l.Insert(th, 5); added {
		t.Fatal("duplicate insert reported added")
	}
	keys, err := l.Snapshot(th)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{1, 3, 5, 9}
	if len(keys) != len(want) {
		t.Fatalf("snapshot = %v", keys)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("snapshot = %v, want %v (sorted)", keys, want)
		}
	}
	if found, _ := l.Contains(th, 3); !found {
		t.Fatal("Contains(3) = false")
	}
	if found, _ := l.Contains(th, 4); found {
		t.Fatal("Contains(4) = true")
	}
	if removed, _ := l.Remove(th, 3); !removed {
		t.Fatal("Remove(3) failed")
	}
	if removed, _ := l.Remove(th, 3); removed {
		t.Fatal("double remove succeeded")
	}
	if n, _ := l.Len(th); n != 3 {
		t.Fatalf("Len = %d", n)
	}
}

func TestListCapacityAndReuse(t *testing.T) {
	rt, mem := newWorld(t, "tagged", 1024, 1<<14)
	l, err := NewList(mem, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	th := rt.NewThread()
	for k := uint64(0); k < 4; k++ {
		if _, err := l.Insert(th, k); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.Insert(th, 99); err != ErrFull {
		t.Fatalf("over-capacity insert: %v, want ErrFull", err)
	}
	// Freed nodes are reusable.
	if _, err := l.Remove(th, 2); err != nil {
		t.Fatal(err)
	}
	if added, err := l.Insert(th, 7); err != nil || !added {
		t.Fatalf("insert after remove: %v, %v", added, err)
	}
}

// TestListMatchesMapOracle drives random operations against a map oracle.
func TestListMatchesMapOracle(t *testing.T) {
	check := func(seed uint64) bool {
		rt, mem := newWorld(t, "tagged", 4096, 1<<14)
		l, err := NewList(mem, 0, 128)
		if err != nil {
			return false
		}
		th := rt.NewThread()
		oracle := map[uint64]bool{}
		rng := seed
		next := func() uint64 { rng = rng*6364136223846793005 + 1442695040888963407; return rng >> 33 }
		for i := 0; i < 300; i++ {
			k := next() % 64
			switch next() % 3 {
			case 0:
				added, err := l.Insert(th, k)
				if err != nil || added == oracle[k] {
					return false
				}
				oracle[k] = true
			case 1:
				removed, err := l.Remove(th, k)
				if err != nil || removed != oracle[k] {
					return false
				}
				delete(oracle, k)
			case 2:
				found, err := l.Contains(th, k)
				if err != nil || found != oracle[k] {
					return false
				}
			}
		}
		keys, err := l.Snapshot(th)
		if err != nil || len(keys) != len(oracle) {
			return false
		}
		if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
			return false
		}
		for _, k := range keys {
			if !oracle[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestListConcurrent: disjoint key ranges from multiple goroutines; every
// thread's keys must all be present, and the size must add up. Run under
// -race this exercises the full STM stack through the data structure.
func TestListConcurrent(t *testing.T) {
	for _, kind := range []string{"tagless", "tagged"} {
		t.Run(kind, func(t *testing.T) {
			rt, mem := newWorld(t, kind, 512, 1<<15)
			l, err := NewList(mem, 0, 512)
			if err != nil {
				t.Fatal(err)
			}
			const goroutines = 4
			const each = 40
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(gid int) {
					defer wg.Done()
					th := rt.NewThread()
					for i := 0; i < each; i++ {
						k := uint64(gid*1000 + i)
						if _, err := l.Insert(th, k); err != nil {
							t.Errorf("insert: %v", err)
							return
						}
					}
					// Remove half again.
					for i := 0; i < each; i += 2 {
						k := uint64(gid*1000 + i)
						if _, err := l.Remove(th, k); err != nil {
							t.Errorf("remove: %v", err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			th := rt.NewThread()
			n, err := l.Len(th)
			if err != nil {
				t.Fatal(err)
			}
			if want := goroutines * each / 2; n != want {
				t.Fatalf("size = %d, want %d", n, want)
			}
			for g := 0; g < goroutines; g++ {
				for i := 0; i < each; i++ {
					found, err := l.Contains(th, uint64(g*1000+i))
					if err != nil {
						t.Fatal(err)
					}
					if want := i%2 == 1; found != want {
						t.Fatalf("key %d presence = %v, want %v", g*1000+i, found, want)
					}
				}
			}
		})
	}
}

func TestMapBasics(t *testing.T) {
	rt, mem := newWorld(t, "tagged", 1024, 1<<14)
	m, err := NewMap(mem, 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	th := rt.NewThread()
	if added, _ := m.Put(th, 10, 100); !added {
		t.Fatal("first Put not added")
	}
	if added, _ := m.Put(th, 10, 200); added {
		t.Fatal("overwrite reported added")
	}
	v, ok, _ := m.Get(th, 10)
	if !ok || v != 200 {
		t.Fatalf("Get = %d, %v", v, ok)
	}
	if _, ok, _ := m.Get(th, 11); ok {
		t.Fatal("missing key found")
	}
	if removed, _ := m.Delete(th, 10); !removed {
		t.Fatal("Delete failed")
	}
	if removed, _ := m.Delete(th, 10); removed {
		t.Fatal("double delete succeeded")
	}
	if n, _ := m.Len(th); n != 0 {
		t.Fatalf("Len = %d", n)
	}
}

func TestMapTombstoneReuse(t *testing.T) {
	rt, mem := newWorld(t, "tagged", 1024, 1<<14)
	m, err := NewMap(mem, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	th := rt.NewThread()
	// Fill, delete, refill through tombstones repeatedly.
	for round := 0; round < 5; round++ {
		for k := uint64(0); k < 8; k++ {
			if _, err := m.Put(th, k, k*10); err != nil {
				t.Fatalf("round %d Put(%d): %v", round, k, err)
			}
		}
		if _, err := m.Put(th, 99, 1); err != ErrFull {
			t.Fatalf("overfull Put: %v", err)
		}
		for k := uint64(0); k < 8; k++ {
			if removed, _ := m.Delete(th, k); !removed {
				t.Fatalf("round %d Delete(%d) failed", round, k)
			}
		}
	}
}

func TestMapInvalidBuckets(t *testing.T) {
	_, mem := newWorld(t, "tagged", 64, 1<<12)
	if _, err := NewMap(mem, 0, 100); err == nil {
		t.Fatal("non-power-of-two buckets accepted")
	}
}

func TestMapMatchesOracle(t *testing.T) {
	check := func(seed uint64) bool {
		m, th, oracle, ok := mapOracleStream(t, seed, 0)
		if !ok {
			return false
		}
		n, err := m.Len(th)
		return err == nil && n == len(oracle)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// mapOracleStream drives 300 random Put/Delete/Get operations over 96 keys
// into a fresh 128-bucket Map, checking each result against a map oracle.
// The keys are [0, 96) shifted left by spread: the multiplicative hash keeps
// a key's low bits, so at spread 0 every key has a home bucket of its own,
// and at spread s only one bucket in 2^s is a home and keys probe past it.
// It returns the Map, its thread and the oracle, with ok false at the first
// mismatch.
func mapOracleStream(t *testing.T, seed uint64, spread uint) (m *Map, th *tmbp.Thread, oracle map[uint64]uint64, ok bool) {
	rt, mem := newWorld(t, "tagged", 4096, 1<<14)
	m, err := NewMap(mem, 0, 128)
	if err != nil {
		return nil, nil, nil, false
	}
	th = rt.NewThread()
	oracle = map[uint64]uint64{}
	rng := seed | 1
	next := func() uint64 { rng = rng*6364136223846793005 + 1442695040888963407; return rng >> 33 }
	for i := 0; i < 300; i++ {
		k := next() % 96 << spread
		switch next() % 3 {
		case 0:
			v := next()
			_, wasIn := oracle[k]
			added, err := m.Put(th, k, v)
			if err != nil || added == wasIn {
				return m, th, oracle, false
			}
			oracle[k] = v
		case 1:
			_, wasIn := oracle[k]
			removed, err := m.Delete(th, k)
			if err != nil || removed != wasIn {
				return m, th, oracle, false
			}
			delete(oracle, k)
		case 2:
			want, wasIn := oracle[k]
			v, ok, err := m.Get(th, k)
			if err != nil || ok != wasIn || (ok && v != want) {
				return m, th, oracle, false
			}
		}
	}
	return m, th, oracle, true
}

func TestQueueFIFO(t *testing.T) {
	rt, mem := newWorld(t, "tagged", 1024, 1<<14)
	q, err := NewQueue(mem, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	th := rt.NewThread()
	for v := uint64(1); v <= 4; v++ {
		ok, err := q.Enqueue(th, v)
		if err != nil || !ok {
			t.Fatalf("Enqueue(%d) = %v, %v", v, ok, err)
		}
	}
	if ok, _ := q.Enqueue(th, 5); ok {
		t.Fatal("enqueue into full queue succeeded")
	}
	for want := uint64(1); want <= 4; want++ {
		v, ok, err := q.Dequeue(th)
		if err != nil || !ok || v != want {
			t.Fatalf("Dequeue = %d, %v, %v; want %d", v, ok, err, want)
		}
	}
	if _, ok, _ := q.Dequeue(th); ok {
		t.Fatal("dequeue from empty queue succeeded")
	}
	// Wraparound.
	for round := 0; round < 10; round++ {
		q.Enqueue(th, uint64(round))
		v, ok, _ := q.Dequeue(th)
		if !ok || v != uint64(round) {
			t.Fatalf("wraparound round %d: %d, %v", round, v, ok)
		}
	}
}

// TestQueueProducerConsumer: everything enqueued is dequeued exactly once.
func TestQueueProducerConsumer(t *testing.T) {
	rt, mem := newWorld(t, "tagless", 512, 1<<14)
	q, err := NewQueue(mem, 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	const items = 300
	seen := make([]int, items)
	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // producer
		defer wg.Done()
		th := rt.NewThread()
		for i := 0; i < items; {
			ok, err := q.Enqueue(th, uint64(i))
			if err != nil {
				t.Errorf("enqueue: %v", err)
				return
			}
			if ok {
				i++
			}
		}
	}()
	go func() { // consumer
		defer wg.Done()
		th := rt.NewThread()
		for n := 0; n < items; {
			v, ok, err := q.Dequeue(th)
			if err != nil {
				t.Errorf("dequeue: %v", err)
				return
			}
			if ok {
				mu.Lock()
				seen[v]++
				mu.Unlock()
				n++
			}
		}
	}()
	wg.Wait()
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("item %d dequeued %d times", i, c)
		}
	}
}

func TestRegionBounds(t *testing.T) {
	_, mem := newWorld(t, "tagged", 64, 128)
	if _, err := NewList(mem, 0, 1000); err == nil {
		t.Fatal("list larger than memory accepted")
	}
	if _, err := NewQueue(mem, 120, 64); err == nil {
		t.Fatal("queue overflowing memory accepted")
	}
	if _, err := NewQueue(mem, 0, 0); err == nil {
		t.Fatal("zero-capacity queue accepted")
	}
}
