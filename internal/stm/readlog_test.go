package stm

import (
	"fmt"
	"testing"

	"tmbp/internal/addr"
	"tmbp/internal/opacity"
	"tmbp/internal/otable"
)

// Tests of the one read set: every read, drained or sampled, goes in the log
// and is validated against the current rv, and the access set holds writes
// only. The schedules run as drainedlog_test.go's do (one P, the other
// thread's commits made from inside the reader's body, the history recorded
// and required opaque), but the reader's first reads come after the other
// thread has moved the clock, so they take the sample bracket, not the
// drained path.

// TestReadLogReReadOnMovedClock: the reader reads x after the clock moved,
// the other thread commits x, and the reader reads x again. The re-read
// finds the clock moved past the value its bracket read, so it samples x,
// finds x's new stamp and extends, which fails on x. A re-read that trusted
// the chunk's place in the read set without asking the clock would return the
// other thread's x beside the reader's first read of it.
func TestReadLogReReadOnMovedClock(t *testing.T) {
	runDrainedLogSchedule(t, 2, func(env *drainedLogEnv, tx *Tx, attempt int) {
		if attempt == 1 {
			env.commit(func(u *Tx) { u.Write(env.z, 1) })
		}
		a := tx.Read(env.x)
		if attempt == 1 {
			env.commit(func(u *Tx) { u.Write(env.x, u.Read(env.x)+1) })
		}
		if b := tx.Read(env.x); b != a {
			env.t.Errorf("attempt %d read x = %d, then %d", attempt, a, b)
		}
	})
}

// TestReadLogBracketMemoClearedEachAttempt: a re-read of the chunk last
// bracketed skips the bracket while the clock stands where the bracket read
// it, and that memo must admit only a chunk in the read set. Attempt 1
// brackets x on a clock a parked writer has moved, and aborts. Attempt 2
// begins on that clock, not drained (the parked stamp is unfinished), so its
// first read of x must sample and log x; the other thread then commits x,
// and the re-read of x must extend and fail. A memo that carried attempt 1's
// bracket over to attempt 2's first read, without logging x, would let the
// re-read return the other thread's x beside the first.
func TestReadLogBracketMemoClearedEachAttempt(t *testing.T) {
	var w *stepWriter
	runDrainedLogSchedule(t, 3, func(env *drainedLogEnv, tx *Tx, attempt int) {
		switch attempt {
		case 1:
			w = newStepWriter(env.t, env.rt, addr.BlockOf(env.z))
			w.enter()
			tx.Read(env.x)
			env.th.conflict(otable.NoConflict)
		case 2:
			a := tx.Read(env.x)
			env.commit(func(u *Tx) { u.Write(env.x, u.Read(env.x)+1) })
			if b := tx.Read(env.x); b != a {
				env.t.Errorf("attempt 2 read x = %d, then %d", a, b)
			}
		case 3:
			w.leave()
			tx.Read(env.x)
		}
	})
}

// TestReadLogWriteSkewSampled is TestDrainedLogWriteSkew over sampled reads:
// the reader reads x and y after the clock moved, the other thread reads both
// and writes y, and the reader then writes x. Its commit draws a stamp above
// rv+1, so it revalidates its read set: a validation that walked only the
// chunks read drained, or a sampled read that stayed out of the log, would
// commit the write skew.
func TestReadLogWriteSkewSampled(t *testing.T) {
	runDrainedLogSchedule(t, 2, func(env *drainedLogEnv, tx *Tx, attempt int) {
		if attempt == 1 {
			env.commit(func(u *Tx) { u.Write(env.z, 1) })
		}
		vx, vy := tx.Read(env.x), tx.Read(env.y)
		if attempt == 1 {
			env.commit(func(u *Tx) { u.Write(env.y, u.Read(env.x)+u.Read(env.y)+1) })
		}
		tx.Write(env.x, vx+vy+1)
	})
}

// TestReadLogSetHoldsWritesOnly counts the access set: after reads on a
// moved clock — a first read of x and y, a re-read of x — and one write of a
// chunk not read, it holds one entry, the write, and the footprint is three
// chunks. The reads are in the log alone.
func TestReadLogSetHoldsWritesOnly(t *testing.T) {
	for _, kind := range otable.Kinds() {
		for _, l := range layouts {
			t.Run(fmt.Sprintf("%s/%s", kind, l), func(t *testing.T) {
				rt, _, mem := newInvisibleRuntime(t, kind, 64, 512*l.spread(), Config{})
				th, other := rt.NewThread(), rt.NewThread()
				x, y, z, w := l.at(mem, 8), l.at(mem, 16), l.at(mem, 24), l.at(mem, 32)
				if err := th.Atomic(func(tx *Tx) error {
					if err := other.Atomic(func(u *Tx) error { u.Write(w, 1); return nil }); err != nil {
						t.Fatal(err)
					}
					tx.Read(x)
					tx.Read(y)
					tx.Read(x)
					tx.Write(z, 1)
					if n, fp := AccessSetLen(th), tx.FootprintBlocks(); n != 1 || fp != 3 {
						t.Fatalf("access set of %d entries and footprint %d, want 1 and 3", n, fp)
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				if st := rt.Stats(); st.Aborts != 0 || st.ROExtensions != 0 {
					t.Fatalf("stats = %+v, want no abort and no extension: the reads are bracketed", st)
				}
			})
		}
	}
}

// TestReadLogOwnHoldKeepsStampCheck: on a two-entry tagless table A and B
// share one cell. The reader reads B; the other thread reads A and commits B;
// the reader then writes A, taking the shared cell, and commits on a moved
// clock. Validation samples B, meets the reader's own hold and must still
// check B's stamp: a hold that excused the stamp would commit the write skew.
func TestReadLogOwnHoldKeepsStampCheck(t *testing.T) {
	for _, l := range layouts {
		t.Run(string(l), func(t *testing.T) {
			onOneP(t)
			var cfg Config
			log := attachRecorder(t, &cfg)
			if log == nil {
				log = opacity.NewLog()
				cfg.Recorder = log
			}
			rt, _, mem := newInvisibleRuntime(t, "tagless", 2, 512*l.spread(), cfg)
			// Chunks 0 and 2 (block) or 0 and 16 (word) share entry 0.
			a, b := l.at(mem, 0), l.at(mem, 16)
			th, other := rt.NewThread(), rt.NewThread()
			attempt := 0
			if err := th.Atomic(func(tx *Tx) error {
				attempt++
				vb := tx.Read(b)
				if attempt == 1 {
					if err := other.Atomic(func(u *Tx) error { u.Write(b, u.Read(a)+u.Read(b)+1); return nil }); err != nil {
						t.Fatal(err)
					}
				}
				tx.Write(a, vb+1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			res, err := opacity.CheckTrace(log.Events())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Opaque {
				t.Fatalf("history %s is not opaque: the reader committed on attempt %d", res, attempt)
			}
			if st := rt.Stats(); attempt != 2 || st.ROValidationAborts != 1 || st.ROPromotions == 0 {
				t.Fatalf("reader committed on attempt %d (%+v), want attempt 2 after one validation abort that met its own hold", attempt, st)
			}
		})
	}
}
