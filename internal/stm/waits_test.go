package stm

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"tmbp/internal/addr"
	"tmbp/internal/hash"
	"tmbp/internal/opacity"
	"tmbp/internal/otable"
)

// Tests of the waits inside an attempt (invisible.go): a foreign writer that
// has drawn no stamp is waited out, not aborted on; a tagless denial waits
// for its holder; a tagless pin whose stamp moved is checked by value. The
// schedules run as drainedlog_test.go's do — one P, the history recorded and
// required opaque — but the other thread may run on a goroutine of its own:
// stopped inside its body holding a write (during), or, as a stepWriter,
// finishing its write-back. On one P that goroutine runs only when the
// reader yields, which it does only inside a wait, so every schedule is
// fixed. Each names the mutant it kills and how: a history that is not
// opaque, a wrong value, or the wrong attempt count.

// waitEnv is the stage of one schedule: the reader th and the other thread
// on a runtime over an 8-entry table under the mask hash, wrapped in a
// sampleTable, so chunks c and c+8 share a tagless entry.
type waitEnv struct {
	t         *testing.T
	rt        *Runtime
	st        *sampleTable
	mem       *Memory
	th, other *Thread
	wg        sync.WaitGroup // goroutines the schedule started
	releases  []func()
}

// at returns the address of word w of chunk c.
func (env *waitEnv) at(c, w int) addr.Addr { return env.mem.WordAddr(8*c + w) }

// commit runs one transaction of the other thread, which must commit.
func (env *waitEnv) commit(fn func(u *Tx)) {
	env.t.Helper()
	if err := env.other.Atomic(func(u *Tx) error { fn(u); return nil }); err != nil {
		env.t.Fatal(err)
	}
}

// during runs fn as the other thread's transaction on a goroutine of its own
// and returns once fn has run, with the transaction stopped inside its body,
// holding what fn wrote and having drawn no stamp. The function it returns
// lets the transaction commit, which on one P happens at the reader's next
// yield; the schedule lets it go at the end if the body did not.
func (env *waitEnv) during(fn func(u *Tx)) (release func()) {
	held, rel := make(chan struct{}), make(chan struct{})
	env.wg.Add(1)
	go func() {
		defer env.wg.Done()
		stop := true
		if err := env.other.Atomic(func(u *Tx) error {
			fn(u)
			if stop {
				stop = false
				close(held)
				<-rel
			}
			return nil
		}); err != nil {
			env.t.Error(err)
		}
	}()
	<-held
	var once sync.Once
	release = func() { once.Do(func() { close(rel) }) }
	env.releases = append(env.releases, release)
	return release
}

// runWaitSchedule runs body as the reader's transaction on a fresh runtime of
// every kind given. The reader must commit on attempt wantAttempts, and the
// recorded history must be opaque. A schedule names word 0 of its chunks,
// where data word c of stm_test.go's word layout lies too, so the two
// layouts run the same accesses: each schedule runs the block layout alone,
// as subtest <kind>/block. TestWaitsHammer runs both.
func runWaitSchedule(t *testing.T, kinds []string, wantAttempts int, body func(env *waitEnv, tx *Tx, attempt int)) {
	for _, kind := range kinds {
		t.Run(kind+"/block", func(t *testing.T) {
			onOneP(t)
			tab, err := otable.New(kind, hash.NewMask(8))
			if err != nil {
				t.Fatal(err)
			}
			var cfg Config
			log := attachRecorder(t, &cfg)
			if log == nil {
				log = opacity.NewLog()
				cfg.Recorder = log
			}
			st := &sampleTable{Table: tab}
			rt, mem := newInvisibleRuntimeOn(t, st, 512, cfg)
			env := &waitEnv{t: t, rt: rt, st: st, mem: mem, th: rt.NewThread(), other: rt.NewThread()}
			attempt := 0
			err = env.th.Atomic(func(tx *Tx) error {
				attempt++
				body(env, tx, attempt)
				return nil
			})
			for _, release := range env.releases {
				release()
			}
			env.wg.Wait()
			if err != nil {
				t.Fatal(err)
			}
			res, err := opacity.CheckTrace(log.Events())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Opaque {
				t.Fatalf("history %s is not opaque: the reader committed on attempt %d", res, attempt)
			}
			if attempt != wantAttempts {
				t.Fatalf("reader committed on attempt %d (%+v), want attempt %d", attempt, rt.Stats(), wantAttempts)
			}
			if occ := tab.Occupied(); occ != 0 {
				t.Fatalf("occupancy after the schedule = %d", occ)
			}
			assertDrained(t, rt)
		})
	}
}

// TestWaitsAliasDenial: the reader reads a; the other thread, writing a
// chunk that shares a's tagless entry, takes the entry and is let go; the
// reader's write of a is denied. It waits while the entry shows the holder,
// which commits meanwhile, then takes the entry: the stamp moved past rv,
// but only through the alias, so a's word still holds the value read and
// the pin passes by value. One attempt; without the waits the denial aborts
// and the reader commits on attempt 2.
func TestWaitsAliasDenial(t *testing.T) {
	runWaitSchedule(t, []string{"tagless"}, 1, func(env *waitEnv, tx *Tx, attempt int) {
		v := tx.Read(env.at(1, 0))
		if attempt == 1 {
			env.during(func(u *Tx) { u.Write(env.at(9, 0), 7) })()
		}
		tx.Write(env.at(1, 0), v+1)
		if got := env.mem.LoadDirect(env.at(9, 0)); got != 7 {
			env.t.Errorf("the holder of the aliasing chunk has not committed: it reads %d", got)
		}
	})
}

// TestWaitsTrueWriterFailsPin is TestWaitsAliasDenial with the other thread
// writing a itself: the pin finds a's word changed and aborts, and the
// retry reads the other thread's value. A pin that passed without the value
// check would commit a lost update: a history that is not opaque.
func TestWaitsTrueWriterFailsPin(t *testing.T) {
	runWaitSchedule(t, []string{"tagless"}, 2, func(env *waitEnv, tx *Tx, attempt int) {
		a := env.at(1, 0)
		v := tx.Read(a)
		if attempt == 1 {
			env.during(func(u *Tx) { u.Write(a, u.Read(a)+10) })()
		} else if v != 10 {
			env.t.Errorf("attempt %d read a = %d, want the other thread's 10", attempt, v)
		}
		tx.Write(a, v+1)
	})
}

// TestWaitsUnreadWordsOweCover: the reader reads word 0 of a and reads d;
// the other thread commits word 3 of a and d. The reader's write of a pins
// it: word 0 is unchanged, so the pin passes by value, but word 3 was not
// read and the entry's stamp is past rv, so its read owes the snapshot-cover
// check, whose extension fails on d. A pin that kept PermRead would return
// the new word 3 beside the old d: not opaque.
func TestWaitsUnreadWordsOweCover(t *testing.T) {
	runWaitSchedule(t, []string{"tagless"}, 2, func(env *waitEnv, tx *Tx, attempt int) {
		a0, a3, d := env.at(1, 0), env.at(1, 3), env.at(2, 0)
		v0, vd := tx.Read(a0), tx.Read(d)
		if attempt == 1 {
			env.commit(func(u *Tx) { u.Write(a3, 5); u.Write(d, 5) })
		}
		tx.Write(a0, v0+1)
		if v3 := tx.Read(a3); v3 != vd {
			env.t.Errorf("attempt %d read word 3 of a = %d beside d = %d: half of one commit", attempt, v3, vd)
		}
	})
}

// TestWaitsReadBesideHolder: the clock has moved, so the reader's first read
// of x samples, and the other thread holds x with no stamp drawn. No
// write-back is in flight, so the read extends to the clock, reads drained
// and returns the value from before the holder's; the holder commits after
// the reader. Without the wait the sample aborts the reader.
func TestWaitsReadBesideHolder(t *testing.T) {
	runWaitSchedule(t, otable.Kinds(), 1, func(env *waitEnv, tx *Tx, attempt int) {
		x := env.at(1, 0)
		if attempt == 1 {
			env.commit(func(u *Tx) { u.Write(env.at(3, 0), 1) })
			env.during(func(u *Tx) { u.Write(x, 5) })
		} else {
			env.releases[0]() // without the wait: let the holder finish
		}
		if v := tx.Read(x); v != 0 {
			env.t.Errorf("attempt %d read x = %d, want 0 from before the holder's write", attempt, v)
		}
	})
}

// TestWaitsReadAfterWriteBack: a writer of x and z has drawn its stamp and
// written x back when the reader's first read of x samples it. The read
// waits until the writer has finished (z written back, both released, the
// stamp counted), extends, and reads x and z drained: both new. A wait that
// ended without done == epoch would read the new x beside the old z: a
// wrong value and a history that is not opaque.
func TestWaitsReadAfterWriteBack(t *testing.T) {
	runWaitSchedule(t, otable.Kinds(), 1, func(env *waitEnv, tx *Tx, attempt int) {
		x, z := env.at(1, 0), env.at(3, 0)
		if attempt == 1 {
			w := newStepWriter(env.t, env.rt, addr.BlockOf(x), addr.BlockOf(z))
			w.enter()
			w.store(x, 5)
			env.wg.Add(1)
			go func() {
				defer env.wg.Done()
				w.store(z, 5)
				w.leave()
			}()
		}
		if a, b := tx.Read(x), tx.Read(z); a != 5 || b != 5 {
			env.t.Errorf("attempt %d read x/z = %d/%d, want the writer's 5/5", attempt, a, b)
		}
	})
}

// TestWaitsValidationResamples: the reader reads x, a writer of x draws its
// stamp and writes x back, and the reader writes y and commits. Validation
// finds x held, waits until the writer has finished, and samples x again:
// its stamp is now past rv, so the reader aborts and its retry reads the new
// x. An excuse that kept the first sample (taken before the writer
// published) would commit the old x on attempt 1.
func TestWaitsValidationResamples(t *testing.T) {
	runWaitSchedule(t, otable.Kinds(), 2, func(env *waitEnv, tx *Tx, attempt int) {
		x := env.at(1, 0)
		v := tx.Read(x)
		if attempt == 1 {
			w := newStepWriter(env.t, env.rt, addr.BlockOf(x))
			w.enter()
			w.store(x, 5)
			env.wg.Add(1)
			go func() { defer env.wg.Done(); w.leave() }()
		} else if v != 5 {
			env.t.Errorf("attempt %d read x = %d, want the writer's 5", attempt, v)
		}
		tx.Write(env.at(2, 0), v+1)
	})
}

// TestWaitsWritingCommitExcuse: the reader reads x; writer 1 draws stamp S−1
// on x and stays in its write-back; the reader writes y and draws S; and,
// just before validation samples x, writer 2 draws S+1 on z and finishes. So
// done == S−1 holds by count while writer 1 is in flight. epoch == S does
// not, and the reader aborts without waiting; its retry reads writer 1's x.
// An excuse that asked only done == S−1 would commit the old x on attempt 1.
func TestWaitsWritingCommitExcuse(t *testing.T) {
	runWaitSchedule(t, otable.Kinds(), 2, func(env *waitEnv, tx *Tx, attempt int) {
		x := env.at(1, 0)
		chunk := addr.BlockOf
		if attempt == 2 {
			env.releases[0]() // writer 1 finishes
		}
		v := tx.Read(x)
		if attempt == 1 {
			w1 := newStepWriter(env.t, env.rt, chunk(x))
			w1.enter()
			w1.store(x, 5)
			var once sync.Once
			env.releases = append(env.releases, func() { once.Do(w1.leave) })
			w2 := newStepWriter(env.t, env.rt, chunk(env.at(3, 0)))
			env.st.before = func(b addr.Block, _ int) {
				if b == chunk(x) {
					env.st.before = nil
					w2.enter()
					w2.leave()
				}
			}
		} else if v != 5 {
			env.t.Errorf("attempt %d read x = %d, want writer 1's 5", attempt, v)
		}
		tx.Write(env.at(2, 0), v+1)
	})
}

// TestWaitsTaggedDenialAborts: the other thread holds a and is let go, and
// the reader writes a blindly. A tagged denial aborts at once — the holder
// writes that very block — so the reader commits on attempt 2; on tagless
// it waits and commits on attempt 1.
func TestWaitsTaggedDenialAborts(t *testing.T) {
	body := func(env *waitEnv, tx *Tx, attempt int) {
		if attempt == 1 {
			env.during(func(u *Tx) { u.Write(env.at(1, 0), 7) })()
		}
		tx.Write(env.at(1, 0), 8)
	}
	runWaitSchedule(t, []string{"tagged"}, 2, body)
	runWaitSchedule(t, []string{"tagless"}, 1, body)
}

// TestWaitsCtxCancel: an AtomicCtx cancelled while its attempt waits — on a
// tagless holder that never leaves, or on a write-back that never finishes —
// ends the wait at its next poll and returns the context's error after one
// attempt.
func TestWaitsCtxCancel(t *testing.T) {
	for _, what := range []string{"denial", "write-back"} {
		t.Run(what, func(t *testing.T) {
			onOneP(t)
			tab, err := otable.New("tagless", hash.NewMask(8))
			if err != nil {
				t.Fatal(err)
			}
			st := &sampleTable{Table: tab}
			rt, mem := newInvisibleRuntimeOn(t, st, 512, Config{})
			a := mem.WordAddr(8)
			w := newStepWriter(t, rt, addr.BlockOf(a))
			w.enter()
			ctx, cancel := context.WithCancel(context.Background())
			th := rt.NewThread()
			err = th.AtomicCtx(ctx, func(tx *Tx) error {
				go cancel() // runs at the wait's first yield
				st.samples = 0
				if what == "denial" {
					tx.Write(a, 1)
				} else {
					tx.Read(a)
				}
				return nil
			})
			if !errors.Is(err, context.Canceled) || th.Attempts() != 1 {
				t.Fatalf("AtomicCtx = %v after %d attempts, want context.Canceled after 1", err, th.Attempts())
			}
			if st.samples > 2 {
				t.Fatalf("the wait took %d samples after the cancel, want it over at the next poll", st.samples)
			}
			w.leave()
		})
	}
}

// TestWaitsHammer runs the waits under real interleaving: four threads
// each read one data word and increment two others of 256 through an
// 8-entry table, so on tagless nearly every two chunks alias — denials
// wait out holders and pins are checked by value — and a fuzz yield between
// accesses stretches attempts across each other's write-backs. The history
// must be opaque, no increment lost, the table empty and every stamp
// finished.
func TestWaitsHammer(t *testing.T) {
	for _, kind := range otable.Kinds() {
		for _, l := range layouts {
			t.Run(fmt.Sprintf("%s/%s", kind, l), func(t *testing.T) {
				tab, err := otable.New(kind, hash.NewMask(8))
				if err != nil {
					t.Fatal(err)
				}
				cfg := Config{Seed: 5}
				log := attachRecorder(t, &cfg)
				if log == nil {
					log = opacity.NewLog()
					cfg.Recorder = log
				}
				fuzzSchedule(&cfg, 0.2)
				const words = 256
				rt, mem := newInvisibleRuntimeOn(t, tab, words*l.spread(), cfg)
				const goroutines, txnsEach = 4, 60
				var wg sync.WaitGroup
				for g := 0; g < goroutines; g++ {
					wg.Add(1)
					go func(gid int) {
						defer wg.Done()
						th := rt.NewThread()
						for i := 0; i < txnsEach; i++ {
							if err := th.Atomic(func(tx *Tx) error {
								tx.Read(l.at(mem, (gid*37+i*13)%words))
								for k := 0; k < 2; k++ {
									a := l.at(mem, (gid*29+i*5+k*11)%words)
									tx.Write(a, tx.Read(a)+1)
								}
								return nil
							}); err != nil {
								t.Error(err)
								return
							}
						}
					}(g)
				}
				wg.Wait()
				var sum uint64
				for w := 0; w < mem.Words(); w++ {
					sum += mem.LoadDirect(mem.WordAddr(w))
				}
				if want := uint64(goroutines * txnsEach * 2); sum != want {
					t.Fatalf("words sum to %d, want %d increments", sum, want)
				}
				res, err := opacity.CheckTrace(log.Events())
				if err != nil {
					t.Fatal(err)
				}
				if !res.Opaque || res.Exhausted {
					t.Fatalf("recorded history: %s", res)
				}
				if occ := tab.Occupied(); occ != 0 {
					t.Fatalf("occupancy after the hammer = %d", occ)
				}
				assertDrained(t, rt)
			})
		}
	}
}
