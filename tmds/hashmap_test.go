package tmds

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"tmbp"
	"tmbp/internal/addr"
	"tmbp/internal/xrand"
)

// checkStripes reads the map with direct loads and checks that every
// stripe counter equals the live tags in its group.
func checkStripes(m *Map) error {
	group := uint64(1) << m.groupShift
	for first := uint64(0); first < m.buckets; first += group {
		live := uint64(0)
		for i := first; i < first+group; i++ {
			if m.mem.LoadDirect(m.tagAddr(i)) >= mapKeyBias {
				live++
			}
		}
		if got := m.mem.LoadDirect(m.stripeAddr(first)); got != live {
			return fmt.Errorf("stripe of buckets [%d, %d) = %d, the group holds %d live tags",
				first, first+group, got, live)
		}
	}
	return nil
}

// TestMapStripeInvariant drives TestMapMatchesOracle's random stream at 128
// buckets, where a group is 2 buckets. At key spread 2 every home bucket
// starts a group and its colliding keys probe into the next group, so keys
// often land (and are later tombstoned) in a group other than their home's.
// Every stripe must then count exactly its group's live tags, and Len must
// equal the oracle size.
func TestMapStripeInvariant(t *testing.T) {
	for _, spread := range []uint{0, 2} {
		check := func(seed uint64) bool {
			m, th, oracle, ok := mapOracleStream(t, seed, spread)
			if !ok {
				return false
			}
			if m.groupShift != 1 {
				t.Fatalf("128 buckets grouped %d to a stripe, want 2", 1<<m.groupShift)
			}
			if err := checkStripes(m); err != nil {
				t.Log(err)
				return false
			}
			n, err := m.Len(th)
			return err == nil && n == len(oracle)
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
			t.Fatalf("key spread %d: %v", spread, err)
		}
	}
}

// TestMapDisjointUpdatesFirstTry pins the point of the striped size: two
// size-changing transactions on buckets of different groups do not
// conflict. Thread A puts a new key and, still holding its writes, runs
// thread B's transaction nested in its body on the same goroutine. B puts a
// new key and deletes a present one, both in another group, on blocks A's
// probe never touched. With MaxAttempts 2, below the serial fallback's
// bound (B escalating would drain A, which cannot end first), B must
// commit on its first attempt and A after it. Over one size word, B's
// write of that word is denied by A's hold and B fails with
// ErrTooManyAttempts.
//
// The same-group case shares a stripe, so B may lose to A's hold: it
// asserts only that the final contents and Len match an oracle that
// applies B's operations exactly when B reports success.
func TestMapDisjointUpdatesFirstTry(t *testing.T) {
	for _, sameGroup := range []bool{false, true} {
		name := "disjoint"
		if sameGroup {
			name = "same-group"
		}
		for _, kind := range sweepKinds() {
			t.Run(name+"/"+kind, func(t *testing.T) { mapNestedUpdates(t, kind, sameGroup) })
		}
	}
}

func mapNestedUpdates(t *testing.T, kind string, sameGroup bool) {
	const (
		buckets = 256
		group   = buckets / 64 // buckets per stripe group
	)
	tab, err := tmbp.NewTable(kind, 4096, "mask")
	if err != nil {
		t.Fatal(err)
	}
	mem := tmbp.NewMemory(spreadStride * (1 + buckets))
	rt, err := tmbp.NewSTM(tmbp.STMConfig{Table: tab, Memory: mem, Seed: 1,
		MaxAttempts: 2, BackoffBase: -1})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMap(mem, 0, buckets)
	if err != nil {
		t.Fatal(err)
	}
	// Keys alone in their home buckets, so each lands where it hashes.
	byGroup := make([][]uint64, buckets/group)
	used := map[uint64]bool{}
	for k := uint64(0); k < 4*buckets; k++ {
		if h := m.slot(k); !used[h] {
			used[h] = true
			byGroup[h/group] = append(byGroup[h/group], k)
		}
	}
	var kA, kB, kD uint64
	found := false
	for gA := 0; gA < len(byGroup) && !found; gA++ {
		for gB := 0; gB < len(byGroup) && !found; gB++ {
			ka, kb := byGroup[gA], byGroup[gB]
			if (gA == gB) != sameGroup || len(ka) < 1 || len(kb) < 2 || (sameGroup && len(kb) < 3) {
				continue
			}
			kA, kB, kD = ka[0], kb[len(kb)-2], kb[len(kb)-1]
			found = true
		}
	}
	if !found {
		t.Fatal("no key triple fits the case")
	}
	setup := rt.NewThread()
	if _, err := m.Put(setup, kD, 4); err != nil {
		t.Fatal(err)
	}
	// The blocks each side touches: its probed buckets and its groups'
	// first buckets (the stripes).
	blocks := func(keys ...uint64) []tmbp.Block {
		var out []tmbp.Block
		for _, k := range keys {
			h := m.slot(k)
			out = append(out, addr.BlockOf(m.tagAddr(h)), addr.BlockOf(m.tagAddr(h/group*group)))
		}
		return out
	}
	if !sameGroup {
		for _, a := range blocks(kA) {
			for _, b := range blocks(kB, kD) {
				if a == b || tab.SlotOf(a) == tab.SlotOf(b) {
					t.Fatalf("A's block %v and B's block %v share table slot %d", a, b, tab.SlotOf(a))
				}
			}
		}
	}

	thA, thB := rt.NewThread(), rt.NewThread()
	var errB error
	bAttempts := 0
	errA := thA.Atomic(func(tx *tmbp.Tx) error {
		if added, err := m.PutTx(tx, kA, 1); err != nil || !added {
			return fmt.Errorf("A: PutTx(%d) = %v, %v", kA, added, err)
		}
		errB = thB.Atomic(func(tx *tmbp.Tx) error {
			if added, err := m.PutTx(tx, kB, 2); err != nil || !added {
				return fmt.Errorf("B: PutTx(%d) = %v, %v", kB, added, err)
			}
			if !m.DeleteTx(tx, kD) {
				return fmt.Errorf("B: DeleteTx(%d) found nothing", kD)
			}
			return nil
		})
		bAttempts = thB.Attempts()
		return nil
	})
	if errA != nil {
		t.Fatalf("A: %v", errA)
	}
	oracle := map[uint64]uint64{kA: 1, kD: 4}
	switch {
	case errB == nil:
		oracle[kB] = 2
		delete(oracle, kD)
	case !errors.Is(errB, tmbp.ErrTooManyAttempts):
		t.Fatalf("B: %v", errB)
	}
	if !sameGroup {
		if errB != nil || bAttempts != 1 {
			t.Fatalf("B on another group: err %v after %d attempts, want a first-attempt commit", errB, bAttempts)
		}
		if a := thA.Attempts(); a != 1 {
			t.Fatalf("A committed after %d attempts, want 1", a)
		}
	}
	th := rt.NewThread()
	for _, k := range []uint64{kA, kB, kD} {
		want, wantOK := oracle[k]
		v, ok, err := m.Get(th, k)
		if err != nil || ok != wantOK || v != want {
			t.Fatalf("Get(%d) = %d, %v, %v; want %d, %v", k, v, ok, err, want, wantOK)
		}
	}
	if n, err := m.Len(th); err != nil || n != len(oracle) {
		t.Fatalf("Len = %d, %v; want %d", n, err, len(oracle))
	}
	if err := checkStripes(m); err != nil {
		t.Fatal(err)
	}
}

// TestMapStripeHammer runs 4 goroutines on disjoint key ranges through a
// put/delete/get mix over every table kind, with a fuzz yield so
// transactions interleave, and records the history (-opacity-record dumps
// it for `tmbp check`). Disjoint keys still share stripe groups and, on the
// tagless table, table entries, so the run has real conflicts. Afterwards
// every key reads back as its goroutine's oracle says, Len equals the sum of
// the oracles, and every stripe counts its group's live tags.
func TestMapStripeHammer(t *testing.T) {
	for _, kind := range tmbp.TableKinds() {
		t.Run(kind, func(t *testing.T) { mapStripeHammer(t, kind) })
	}
}

func mapStripeHammer(t *testing.T, kind string) {
	const (
		workers = 4
		keys    = 24 // per worker
		txns    = 64 // per worker
		buckets = 256
	)
	tab, err := tmbp.NewTable(kind, 256, "fibonacci")
	if err != nil {
		t.Fatal(err)
	}
	mem := tmbp.NewMemory(spreadStride * (1 + buckets))
	cfg := tmbp.STMConfig{Table: tab, Memory: mem, Seed: 1}
	log := attachLog(t, &cfg)
	fuzzSchedule(&cfg, log, 0.05)
	samples := countSamples(&cfg)
	rt, err := tmbp.NewSTM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMap(mem, 0, buckets)
	if err != nil {
		t.Fatal(err)
	}
	recordInitialWords(log, mem)

	type op struct{ kind, k, v uint64 } // kind: 0 get, 1 put, 2 delete
	// Worker g owns keys key(g, 0..keys-1). The multiplicative hash keeps
	// a key's low two bits (its multiplier is 1 mod 4), so these keys' home
	// buckets are the last bucket of a 4-bucket group, and a collision
	// probes into the next group.
	key := func(g, j int) uint64 { return uint64(g*keys+j)<<2 | 3 }
	oracles := make([]map[uint64]uint64, workers)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		oracles[g] = map[uint64]uint64{}
		wg.Add(1)
		go func(gid int, oracle map[uint64]uint64) {
			defer wg.Done()
			th := rt.NewThread()
			rng := xrand.NewWithStream(1, uint64(gid))
			var ops []op
			for i := 0; i < txns; i++ {
				// Drawn before running, so a retry replays the same ops.
				ops = ops[:0]
				for n := 1 + rng.Intn(3); n > 0; n-- {
					ops = append(ops, op{kind: uint64(rng.Intn(3)),
						k: key(gid, rng.Intn(keys)), v: rng.Uint64()})
				}
				if err := th.Atomic(func(tx *tmbp.Tx) error {
					for _, o := range ops {
						switch o.kind {
						case 1:
							if _, err := m.PutTx(tx, o.k, o.v); err != nil {
								return err
							}
						case 2:
							m.DeleteTx(tx, o.k)
						default:
							m.GetTx(tx, o.k)
						}
					}
					return nil
				}); err != nil {
					errs <- fmt.Errorf("worker %d: %w", gid, err)
					return
				}
				// Only this goroutine writes its keys, so the committed
				// transaction's effect on them is its ops in order.
				for _, o := range ops {
					switch o.kind {
					case 1:
						oracle[o.k] = o.v
					case 2:
						delete(oracle, o.k)
					}
				}
			}
		}(g, oracles[g])
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	th := rt.NewThread()
	total := 0
	for g, oracle := range oracles {
		total += len(oracle)
		for j := 0; j < keys; j++ {
			k := key(g, j)
			want, wantOK := oracle[k]
			v, ok, err := m.Get(th, k)
			if err != nil || ok != wantOK || v != want {
				t.Fatalf("Get(%d) = %d, %v, %v; want %d, %v", k, v, ok, err, want, wantOK)
			}
		}
	}
	if n, err := m.Len(th); err != nil || n != total {
		t.Fatalf("Len = %d, %v; the oracles hold %d", n, err, total)
	}
	if err := checkStripes(m); err != nil {
		t.Fatal(err)
	}
	checkOpaque(t, log)
	assertDrained(t, rt, samples, mem.WordAddr(0))
}
