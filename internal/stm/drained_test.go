package stm

import (
	"testing"

	"tmbp/internal/addr"
)

// Tests of drained reads: an attempt that loads rv and then finds done == rv
// began with no write-back in flight, so its first reads record Ver = rv
// with no version sample, accepting each load while the clock still reads rv.
// Each test kills one mutant of that path deterministically on one P: the
// schedules run the writer's steps (stepWriter) from the reader's own
// goroutine, and sampleTable's hooks watch the count of finished stamps from
// inside the table calls that publish them.

// TestDrainedBeginComparesDone: a writer has drawn its stamp and written back
// the first of two words when the reader begins, so rv already covers the
// stamp and only done, one behind, says a write-back is in flight. Beginning
// drained on rv alone would accept the half-written word and then, on a clock
// that never moves again, the unwritten one: a torn pair. Beginning
// undrained, the first read samples and finds the writer.
func TestDrainedBeginComparesDone(t *testing.T) {
	for _, kind := range sweepKinds() {
		for _, r := range stillClockReaders {
			t.Run(kind+"/"+r.name, func(t *testing.T) {
				parked := func(env *stillClockEnv) {
					env.w.enter()
					env.w.store(env.x0, 1)
				}
				runStillClockSchedule(t, kind, r.writes, parked, func(tx *Tx, env *stillClockEnv) {
					defer env.w.store(env.x1, 1)
					a, b := tx.Read(env.x0), tx.Read(env.x1)
					t.Fatalf("read x0/x1 = %d/%d: began drained with a write-back in flight", a, b)
				})
			})
		}
	}
}

// TestDrainedReadAsksTheClock: the reader begins drained; then, inside the
// body and before its first read, a writer acquires the chunk, draws its
// stamp and writes back the first of two words. The drained read takes no
// sample, so only the clock, moved past rv after the load, says the word is
// half a commit; the read must then go back for the sample, which finds the
// writer. Returning from the read fails the test.
func TestDrainedReadAsksTheClock(t *testing.T) {
	for _, kind := range sweepKinds() {
		for _, r := range stillClockReaders {
			t.Run(kind+"/"+r.name, func(t *testing.T) {
				runStillClockSchedule(t, kind, r.writes, nil, func(tx *Tx, env *stillClockEnv) {
					env.w.enter()
					env.w.store(env.x0, 1)
					defer env.w.store(env.x1, 1)
					v := tx.Read(env.x0)
					t.Fatalf("drained read returned %d: half of a commit in flight, accepted without asking the clock", v)
				})
			})
		}
	}
}

// TestDrainedEndsAtExtension: an extension reloads rv, and below the new rv a
// write-back may be in flight, so drained reads end there. The reader begins
// drained and writes z0 without reading it after a foreign commit of z1; a
// writer then draws and half-writes block 2. Reading z1 extends the snapshot
// over both stamps from the one place a drained attempt samples first — the
// cover check of a chunk it holds. Still reading drained, the clock standing
// at the new rv would accept both words of block 2, one of them half a
// commit.
func TestDrainedEndsAtExtension(t *testing.T) {
	for _, kind := range sweepKinds() {
		t.Run(kind, func(t *testing.T) {
			st := runStillClockSchedule(t, kind, false, nil, func(tx *Tx, env *stillClockEnv) {
				z0, z1 := env.rt.cfg.Memory.WordAddr(88), env.rt.cfg.Memory.WordAddr(89) // block 11
				if err := env.rt.NewThread().Atomic(func(otx *Tx) error { otx.Write(z1, 1); return nil }); err != nil {
					t.Fatal(err)
				}
				env.w.enter()
				env.w.store(env.x0, 1)
				defer env.w.store(env.x1, 1)
				tx.Write(z0, 1)
				tx.Read(z1)
				a, b := tx.Read(env.x0), tx.Read(env.x1)
				t.Fatalf("read x0/x1 = %d/%d: drained reads went on past an extension", a, b)
			})
			if st.ROExtensions != 1 {
				t.Fatalf("stats = %+v, want the one extension", st)
			}
		})
	}
}

// TestDrainedCountAfterRelease: a stamp counts as finished only once its
// drawer is done with it. Every path that draws one — a writing commit, one
// that must revalidate, one whose validation fails after the draw, a StoreNT
// under its own hold and under the caller's transaction's hold — is watched
// from the table: while a stamp is being published, and while commit
// validation samples after the draw, done must be behind epoch. Once the
// path has returned the two must be level again.
func TestDrainedCountAfterRelease(t *testing.T) {
	for _, kind := range sweepKinds() {
		t.Run(kind, func(t *testing.T) {
			onOneP(t)
			rt, tab, mem := newSampledRuntime(t, kind, Config{Isolation: StrongIsolation})
			th, other := rt.NewThread(), rt.NewThread()
			x, y, z := mem.WordAddr(8), mem.WordAddr(40), mem.WordAddr(80)
			watched := 0
			inFlight := func(where string) {
				watched++
				if d, e := rt.done.Load(), rt.epoch.Load(); d >= e {
					t.Fatalf("%s: done = %d, epoch = %d: the stamp in flight already counts as finished", where, d, e)
				}
			}
			tab.publishing = func() { inFlight("stamp publication") }
			// Armed at the end of a body: the next samples are the commit's.
			validating := func() { tab.after = func(addr.Block) { inFlight("commit validation") } }
			commit := func(fn func(tx *Tx)) {
				t.Helper()
				if err := th.Atomic(func(tx *Tx) error { fn(tx); return nil }); err != nil {
					t.Fatal(err)
				}
			}
			step := func(what string, fn func()) {
				t.Helper()
				watched = 0
				fn()
				tab.after = nil
				if watched == 0 {
					t.Fatalf("%s: no stamp publication or commit validation was watched", what)
				}
				assertDrained(t, rt)
			}

			step("writing commit", func() {
				commit(func(tx *Tx) { tx.Write(y, 1) })
			})
			step("commit that revalidates", func() {
				commit(func(tx *Tx) {
					tx.Read(x)
					if err := other.Atomic(func(otx *Tx) error { otx.Write(y, 2); return nil }); err != nil {
						t.Fatal(err)
					}
					tx.Write(z, 1)
					validating()
				})
			})
			step("commit validation failed after the draw", func() {
				attempt := 0
				commit(func(tx *Tx) {
					attempt++
					tx.Read(x)
					if attempt == 1 {
						if err := other.Atomic(func(otx *Tx) error { otx.Write(x, 1); return nil }); err != nil {
							t.Fatal(err)
						}
					}
					tx.Write(z, 2)
					validating()
				})
				if attempt != 2 {
					t.Fatalf("committed on attempt %d, want 2", attempt)
				}
			})
			step("StoreNT", func() {
				if err := th.StoreNT(y, 3); err != nil {
					t.Fatal(err)
				}
			})
			step("StoreNT under the caller's own write hold", func() {
				commit(func(tx *Tx) {
					tx.Write(y, 4)
					if err := th.StoreNT(y, 5); err != nil {
						t.Fatal(err)
					}
				})
			})
			if st := rt.Stats(); st.ROValidationAborts != 1 {
				t.Fatalf("stats = %+v, want exactly the one failed commit validation", st)
			}
		})
	}
}

// TestDrainedVerIsUpperBound: a drained read records rv as its Ver, which may
// lie above the cell's stamp — here rv is 1 from a commit to another cell
// while the read chunk's own cell still reads 0. So every check of a Ver asks
// "stamp above Ver", never "stamp other than Ver": after an unrelated foreign
// commit has moved the clock, a further read of the chunk, the revalidation
// of an extension, the revalidation of a read-only commit and the stamp check
// after a write acquire must all pass, with no abort.
func TestDrainedVerIsUpperBound(t *testing.T) {
	for _, kind := range sweepKinds() {
		for _, site := range []string{"further-read", "extension", "read-only-commit", "write-acquire"} {
			t.Run(kind+"/"+site, func(t *testing.T) {
				onOneP(t)
				rt, _, mem := newInvisibleRuntime(t, kind, 64, 256, Config{})
				th, other := rt.NewThread(), rt.NewThread()
				x0, x1 := mem.WordAddr(8), mem.WordAddr(9) // block 1, cell 1
				elsewhere := func(w int) {
					if err := other.Atomic(func(otx *Tx) error { otx.Write(mem.WordAddr(w), 1); return nil }); err != nil {
						t.Fatal(err)
					}
				}
				elsewhere(40) // block 5: rv will be 1, cell 1 stays at 0
				attempt := 0
				if err := th.Atomic(func(tx *Tx) error {
					attempt++
					tx.Read(x0)
					elsewhere(48) // block 6: the clock moves past rv
					switch site {
					case "further-read":
						tx.Read(x1)
					case "extension":
						tx.Read(mem.WordAddr(48))
					case "write-acquire":
						tx.Write(x0, 2)
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				st := rt.Stats()
				if attempt != 1 || st.Aborts != 0 {
					t.Fatalf("%d attempts, stats %+v: a stamp below the drained Ver failed validation", attempt, st)
				}
				if site == "extension" && st.ROExtensions != 1 {
					t.Fatalf("stats = %+v, want one extension", st)
				}
				assertDrained(t, rt)
			})
		}
	}
}

// TestDrainedPinSamplesOnMovedClock is the lost-update schedule: T reads a
// counter, a foreign increment commits, and T writes the counter back
// incremented. The write acquire's stamp check (checkPinned) is all that
// stands between T and a lost update — the write retires the entry from
// commit validation — and since the clock has moved it must sample, whether
// the read recorded a drained Ver or a sampled one.
func TestDrainedPinSamplesOnMovedClock(t *testing.T) {
	for _, kind := range sweepKinds() {
		for _, drained := range []bool{true, false} {
			name := kind + "/drained"
			if !drained {
				name = kind + "/sampled"
			}
			t.Run(name, func(t *testing.T) {
				onOneP(t)
				rt, _, mem := newInvisibleRuntime(t, kind, 64, 256, Config{})
				if !drained {
					undrain(rt)
				}
				th, other := rt.NewThread(), rt.NewThread()
				ctr := mem.WordAddr(24)
				attempt := 0
				if err := th.Atomic(func(tx *Tx) error {
					attempt++
					v := tx.Read(ctr)
					if attempt == 1 {
						if err := other.Atomic(func(otx *Tx) error { otx.Write(ctr, otx.Read(ctr)+1); return nil }); err != nil {
							t.Fatal(err)
						}
					}
					tx.Write(ctr, v+1)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				if got := mem.LoadDirect(ctr); got != 2 || attempt != 2 {
					t.Fatalf("counter = %d after %d attempts, want 2 after 2: an increment was lost", got, attempt)
				}
				if st := rt.Stats(); st.ROValidationAborts != 1 {
					t.Fatalf("ROValidationAborts = %d, want 1", st.ROValidationAborts)
				}
			})
		}
	}
}
