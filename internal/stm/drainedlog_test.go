package stm

import (
	"fmt"
	"testing"

	"tmbp/internal/addr"
	"tmbp/internal/hash"
	"tmbp/internal/opacity"
	"tmbp/internal/otable"
	"tmbp/internal/xrand"
)

// Tests of the read log on drained attempts: a drained first read leaves no
// access-set entry, only the chunk in the log, and the log must be checked
// wherever the read set is (readlog_test.go has the sampled reads' side).
// Each schedule runs on one P with
// the other thread's commits made from inside the reader's body, records
// the history and requires it to be opaque, and kills one mutant of the log:
// under it a stale read commits — beside a newer one, so the recorded
// history is not opaque, except where a read-only commit is concerned (see
// TestDrainedLogReadOnlyCommit).

// drainedLogEnv is the stage of one schedule: x, y and z are data words 8,
// 16 and 24 on a 64-entry table under the mask hash — three chunks with
// cells of their own in either layout.
type drainedLogEnv struct {
	t       *testing.T
	rt      *Runtime
	th      *Thread // the reader
	other   *Thread
	x, y, z addr.Addr
}

// commit runs one transaction of the other thread, which must commit.
func (env *drainedLogEnv) commit(fn func(u *Tx)) {
	env.t.Helper()
	if err := env.other.Atomic(func(u *Tx) error { fn(u); return nil }); err != nil {
		env.t.Fatal(err)
	}
}

// runDrainedLogSchedule runs body as the reader's transaction on a fresh
// runtime, so its first attempt begins drained, for every table kind in both
// layouts. The reader must commit on attempt wantAttempts after exactly
// one validation abort, and the recorded history must be opaque.
func runDrainedLogSchedule(t *testing.T, wantAttempts int, body func(env *drainedLogEnv, tx *Tx, attempt int)) {
	for _, kind := range otable.Kinds() {
		for _, l := range layouts {
			t.Run(fmt.Sprintf("%s/%s", kind, l), func(t *testing.T) {
				onOneP(t)
				tab, err := otable.New(kind, hash.NewMask(64))
				if err != nil {
					t.Fatal(err)
				}
				var cfg Config
				log := attachRecorder(t, &cfg)
				if log == nil {
					log = opacity.NewLog()
					cfg.Recorder = log
				}
				rt, mem := newInvisibleRuntimeOn(t, tab, 512*l.spread(), cfg)
				env := &drainedLogEnv{t: t, rt: rt, th: rt.NewThread(), other: rt.NewThread(),
					x: l.at(mem, 8), y: l.at(mem, 16), z: l.at(mem, 24)}
				attempt := 0
				if err := env.th.Atomic(func(tx *Tx) error {
					attempt++
					body(env, tx, attempt)
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
				if st := rt.Stats(); attempt != wantAttempts || st.ROValidationAborts != 1 {
					t.Fatalf("reader committed on attempt %d (%+v), want attempt %d after one validation abort", attempt, st, wantAttempts)
				}
				assertDrained(t, rt)
			})
		}
	}
}

// TestDrainedLogWriteSkew: the reader reads x and y drained, the other
// thread reads both and writes y, and the reader then writes x. Its commit
// draws rv+2, so it revalidates its read set, and only the log holds y:
// a revalidateReadSet that skipped the log would commit the write skew.
func TestDrainedLogWriteSkew(t *testing.T) {
	runDrainedLogSchedule(t, 2, func(env *drainedLogEnv, tx *Tx, attempt int) {
		vx, vy := tx.Read(env.x), tx.Read(env.y)
		if attempt == 1 {
			env.commit(func(u *Tx) { u.Write(env.y, u.Read(env.x)+u.Read(env.y)+1) })
		}
		tx.Write(env.x, vx+vy+1)
	})
}

// TestDrainedLogExtension: the reader reads x drained, the other thread
// commits x and z, and the reader's read of z finds a stamp above rv and
// extends the snapshot. Only the log holds x: an extension that skipped it
// would pair the old x with the new z.
func TestDrainedLogExtension(t *testing.T) {
	runDrainedLogSchedule(t, 2, func(env *drainedLogEnv, tx *Tx, attempt int) {
		tx.Read(env.x)
		if attempt == 1 {
			env.commit(func(u *Tx) { u.Write(env.x, 1); u.Write(env.z, 1) })
		}
		tx.Read(env.z)
	})
}

// TestDrainedLogReadOnlyCommit: the reader reads x drained and the other
// thread commits x before the reader's read-only commit, which finds the
// clock moved and revalidates: only the log holds x. A commit that skipped
// the log would commit the stale x on attempt 1. That history is still
// opaque — the reader serializes before the writer — so the rule this pins is
// the runtime's own (a read-only commit on a moved clock validates every
// read), not opacity, and the attempt count is what rejects the mutant.
func TestDrainedLogReadOnlyCommit(t *testing.T) {
	runDrainedLogSchedule(t, 2, func(env *drainedLogEnv, tx *Tx, attempt int) {
		tx.Read(env.x)
		if attempt == 1 {
			env.commit(func(u *Tx) { u.Write(env.x, 1) })
		}
	})
}

// TestDrainedLogClearedEachAttempt: attempt 1 reads x drained and aborts.
// Attempt 2 reads x drained again, the other thread commits x and z, and the
// read of z extends the snapshot. Had attempt 1's bit for x survived into
// attempt 2, its read of x would have found the bit set and never been
// logged, and the extension would pair the old x with the new z.
func TestDrainedLogClearedEachAttempt(t *testing.T) {
	runDrainedLogSchedule(t, 3, func(env *drainedLogEnv, tx *Tx, attempt int) {
		tx.Read(env.x)
		switch attempt {
		case 1:
			env.th.conflict(otable.NoConflict)
		case 2:
			env.commit(func(u *Tx) { u.Write(env.x, 1); u.Write(env.z, 1) })
		}
		tx.Read(env.z)
	})
}

// TestDrainedLogFootprintOracle runs random mixes of reads, re-reads,
// ReadWords runs and writes, with commits of another thread that move the
// clock in between, and compares FootprintBlocks after every operation with
// a map of the distinct chunks touched. A chunk read and then written,
// drained or sampled, or re-read after the clock moved must count once.
// Attempts begin drained or sampled (undrain), or, "moved", sampled with the
// clock moved before their first read, where every read takes the bracket;
// for both table kinds in both layouts (a ReadWords run reads consecutive
// memory words from its data word). The other thread writes only data word
// 200, whose chunk aliases none of the reader's, so every transaction
// commits on its first attempt.
func TestDrainedLogFootprintOracle(t *testing.T) {
	const (
		words = 128 // the reader's words; memory has 256
		txns  = 30
		ops   = 24
	)
	for _, kind := range otable.Kinds() {
		for li, l := range layouts {
			for _, mode := range []string{"drained", "sampled", "moved"} {
				t.Run(fmt.Sprintf("%s/%s/%s", kind, l, mode), func(t *testing.T) {
					tab, err := otable.New(kind, hash.NewMask(256))
					if err != nil {
						t.Fatal(err)
					}
					rt, mem := newInvisibleRuntimeOn(t, tab, 256*l.spread(), Config{})
					if mode != "drained" {
						undrain(rt)
					}
					th, other := rt.NewThread(), rt.NewThread()
					otherCommit := func(v uint64) {
						if err := other.Atomic(func(u *Tx) error { u.Write(l.at(mem, 200), v); return nil }); err != nil {
							t.Fatal(err)
						}
					}
					r := xrand.New(uint64(len(kind)) + uint64(li)*7 + uint64(len(mode))*31)
					for tn := 0; tn < txns; tn++ {
						if err := th.Atomic(func(tx *Tx) error {
							seen := map[addr.Block]bool{}
							if mode == "moved" {
								otherCommit(0)
							}
							for i := 0; i < ops; i++ {
								w := r.Uint64n(words)
								var what string
								a := l.at(mem, int(w))
								switch op := r.Intn(10); {
								case op < 4:
									tx.Read(a)
									seen[addr.BlockOf(a)], what = true, "read"
								case op < 6:
									n := 1 + r.Uint64n(min(12, words-w))
									tx.ReadWords(a, make([]uint64, n))
									for j := uint64(0); j < n; j++ {
										seen[addr.BlockOf(a+addr.Addr(j)*addr.WordBytes)] = true
									}
									what = fmt.Sprintf("read %d words", n)
								case op < 7:
									b := a | (addr.BlockBytes - addr.WordBytes) // the last word of a's chunk
									tx.Read(b)
									seen[addr.BlockOf(b)], what = true, "read of the chunk's last word"
								case op < 9:
									tx.Write(a, uint64(tn))
									seen[addr.BlockOf(a)], what = true, "write"
								default:
									otherCommit(uint64(i))
									what = "other thread's commit"
								}
								if got := tx.FootprintBlocks(); got != len(seen) {
									t.Fatalf("txn %d op %d (%s of word %d): footprint %d, want %d distinct chunks", tn, i, what, w, got, len(seen))
								}
							}
							return nil
						}); err != nil {
							t.Fatal(err)
						}
						if a := th.Attempts(); a != 1 {
							t.Fatalf("txn %d committed on attempt %d, want 1", tn, a)
						}
					}
				})
			}
		}
	}
}
