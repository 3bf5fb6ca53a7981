package fault_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"tmbp/internal/fault"
	"tmbp/internal/hash"
	"tmbp/internal/opacity"
	"tmbp/internal/otable"
	"tmbp/internal/stm"
)

// TestFaultStaleVersionBoundedAborts poisons version samples: with
// StaleVersionRate 1.0 each sampled invisible read observes an impossible
// "future" stamp, so every invisible attempt dies in validation. An attempt
// that begins drained takes no sample while the clock stands still, so each
// optimistic attempt first has a second thread commit a blind write of its
// own word, moving the clock past rv from inside the body: the attempt's reads
// then sample as they would beside any concurrent writer. The runtime must
// keep the damage bounded — exactly FallbackAfter validation aborts per
// transaction, after which it escalates to the serial token and commits:
// the serial attempt still reads by version validation, but it begins
// drained and nothing moves the clock under it, so it takes no sample to
// poison. Writing transactions stay invisible too, so the same bound must
// hold for a read-then-write workload, with exact sums; at rate 0.5 the
// poisoned samples also land on the stamp check behind a write acquire and
// on the re-sample after a load and, since the blind write keeps a writer's
// draw off rv+1, on commit-time validation, which may cost aborts up to the
// bound and nothing else. The two threads take turns on one goroutine, so
// each schedule is exactly reproducible.
func TestFaultStaleVersionBoundedAborts(t *testing.T) {
	const (
		fallbackAfter = 3
		txns          = 60 // fewer than memory words: each word is touched once
	)
	for _, tc := range []struct {
		name  string
		rate  float64
		write bool
	}{
		{"read-only", 1.0, false},
		{"read-then-write", 1.0, true},
		{"read-then-write-half", 0.5, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tab, err := otable.New("tagged", hash.NewMask(64))
			if err != nil {
				t.Fatal(err)
			}
			inj := fault.New(tab, fault.Config{Seed: 5, StaleVersionRate: tc.rate})
			mem := stm.NewMemory(64)
			cfg := stm.Config{Table: inj, Memory: mem, Seed: 5,
				FallbackAfter: fallbackAfter}
			log := recordTrace(t, &cfg)
			samples := countSamples(&cfg)
			rt, err := stm.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			th, other := rt.NewThread(), rt.NewThread()
			// The blind writes store 0 to a word no transaction writes.
			blind, blinds := mem.WordAddr(mem.Words()-1), uint64(0)
			for i := 0; i < txns; i++ {
				a, b := mem.WordAddr(i%mem.Words()), mem.WordAddr((i+8)%mem.Words())
				attempt := 0
				if err := th.Atomic(func(tx *stm.Tx) error {
					// Not on the serial attempt: the token it holds would park
					// other's transaction for good.
					if attempt++; attempt <= fallbackAfter {
						if err := other.Atomic(func(otx *stm.Tx) error {
							otx.Write(blind, 0)
							return nil
						}); err != nil {
							t.Fatalf("txn %d: blind write: %v", i, err)
						}
						blinds++
					}
					v := tx.Read(a)
					if v != 0 {
						t.Fatalf("txn %d read %d from untouched memory", i, v)
					}
					if tc.write {
						_ = tx.Read(b) // stays invisible through the commit
						tx.Write(a, v+1)
					}
					return nil
				}); err != nil {
					t.Fatalf("txn %d: %v", i, err)
				}
				if got := th.Attempts(); got > fallbackAfter+1 {
					t.Fatalf("txn %d took %d attempts, bound is %d", i, got, fallbackAfter+1)
				}
			}
			var sum uint64
			for w := 0; w < mem.Words(); w++ {
				sum += mem.LoadDirect(mem.WordAddr(w))
			}
			if want := uint64(txns); tc.write && sum != want || !tc.write && sum != 0 {
				t.Fatalf("memory sums to %d after %d one-word transactions (write=%v)", sum, txns, tc.write)
			}
			st := rt.Stats()
			if st.Commits != txns+blinds {
				t.Fatalf("commits = %d, want %d and %d blind writes", st.Commits, txns, blinds)
			}
			// Staleness only ever fails validations: every abort is one.
			if st.Aborts != st.ROValidationAborts {
				t.Fatalf("aborts = %d but only %d validation aborts: staleness must cost nothing else",
					st.Aborts, st.ROValidationAborts)
			}
			if tc.rate == 1.0 {
				// The poisoned samples cost each transaction exactly
				// fallbackAfter validation aborts before the serial attempt
				// commits — a read-only commit when it wrote nothing.
				if st.ROValidationAborts != fallbackAfter*txns {
					t.Fatalf("ROValidationAborts = %d, want %d (bounded at %d per transaction)",
						st.ROValidationAborts, fallbackAfter*txns, fallbackAfter)
				}
				wantRO := uint64(txns)
				if tc.write {
					wantRO = 0
				}
				if st.ROCommits != wantRO {
					t.Fatalf("ROCommits = %d under total sample poisoning, want %d", st.ROCommits, wantRO)
				}
				if st.FallbackCommits != txns {
					t.Fatalf("FallbackCommits = %d, want %d: the bound should reuse the serial escalation", st.FallbackCommits, txns)
				}
			} else if st.ROValidationAborts == 0 || st.FallbackCommits == txns {
				t.Fatalf("partial poisoning should abort some attempts and let others commit invisibly: %+v", st)
			}
			if fs := inj.FaultStats(); fs.Staled == 0 {
				t.Fatal("injector perturbed no samples: the test exercised nothing")
			}
			if err := otable.AuditQuiesced(inj.Underlying()); err != nil {
				t.Error(err)
			}
			if res, err := opacity.CheckTrace(log.Events()); err != nil || !res.Opaque {
				t.Fatalf("stale-version trace: opaque=%v err=%v", res != nil && res.Opaque, err)
			}
			assertDrained(t, rt, samples, mem.WordAddr(0))
		})
	}
}

// TestFaultStaleVersionReadMostlyGrid is the concurrent stale-sample hammer:
// invisible readers assert a two-word invariant writers maintain, while a
// quarter of all version samples are poisoned. Staleness may only ever cost
// aborts — never a torn observation, a lost increment, a leaked record, or
// a non-opaque history.
func TestFaultStaleVersionReadMostlyGrid(t *testing.T) {
	for _, kind := range otable.Kinds() {
		t.Run(kind, func(t *testing.T) {
			t.Parallel()
			tab, err := otable.New(kind, hash.NewMask(64))
			if err != nil {
				t.Fatal(err)
			}
			inj := fault.New(tab, fault.Config{Seed: 31, StaleVersionRate: 0.25})
			mem := stm.NewMemory(256)
			cfg := stm.Config{Table: inj, Memory: mem, Seed: 31, FallbackAfter: 6}
			log := recordTrace(t, &cfg)
			fuzzSchedule(&cfg, log, 0.2)
			samples := countSamples(&cfg)
			rt, err := stm.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			x, y := mem.WordAddr(0), mem.WordAddr(128)
			const (
				writers  = 2
				readers  = 4
				txnsEach = 50
			)
			var torn atomic.Bool
			var bumps, reads atomic.Uint64
			var readersLeft atomic.Int32
			readersLeft.Store(readers)
			// An attempt that begins drained samples only once a commit moves
			// the clock under it, so a run can take few samples and poison
			// none. Until one is poisoned, past txnsEach, readers go on (up
			// to 20 times as long) and writers go on while readers do.
			unexercised := func() bool { return inj.FaultStats().Staled == 0 }
			var wg sync.WaitGroup
			errs := make(chan error, writers+readers)
			for g := 0; g < writers; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					th := rt.NewThread()
					for i := 0; i < txnsEach || readersLeft.Load() > 0 && unexercised(); i++ {
						if err := th.Atomic(func(tx *stm.Tx) error {
							tx.Write(x, tx.Read(x)+1)
							tx.Write(y, tx.Read(y)+1)
							return nil
						}); err != nil {
							errs <- err
							return
						}
						bumps.Add(1)
					}
				}()
			}
			for g := 0; g < readers; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer readersLeft.Add(-1)
					th := rt.NewThread()
					for i := 0; i < txnsEach || i < 20*txnsEach && unexercised(); i++ {
						if err := th.Atomic(func(tx *stm.Tx) error {
							if a, b := tx.Read(x), tx.Read(y); a != b {
								torn.Store(true)
							}
							return nil
						}); err != nil {
							errs <- err
							return
						}
						reads.Add(1)
					}
				}()
			}
			wg.Wait()
			close(errs)
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
			if torn.Load() {
				t.Fatal("reader observed a torn writer commit under stale samples")
			}
			want := bumps.Load()
			if gx, gy := mem.LoadDirect(x), mem.LoadDirect(y); gx != want || gy != want {
				t.Fatalf("x/y = %d/%d, want %d", gx, gy, want)
			}
			st := rt.Stats()
			if st.Commits != want+reads.Load() {
				t.Fatalf("commits = %d, want %d", st.Commits, want+reads.Load())
			}
			if fs := inj.FaultStats(); fs.Staled == 0 {
				t.Error("no samples perturbed: rate/seed combination exercised nothing")
			}
			if err := otable.AuditQuiesced(inj.Underlying()); err != nil {
				t.Error(err)
			}
			res, err := opacity.CheckTrace(log.Events())
			if err != nil {
				t.Fatalf("recorded trace malformed: %v", err)
			}
			if !res.Opaque {
				t.Fatalf("recorded history not opaque under stale samples: %s", res)
			}
			assertDrained(t, rt, samples, x)
		})
	}
}
