package stm

import (
	"sync"
	"sync/atomic"
	"testing"

	"tmbp/internal/addr"
	"tmbp/internal/hash"
	"tmbp/internal/otable"
)

// Tests of the still-clock read shortcut: an invisible load followed by
// epoch == rv is accepted on the entry's Ver without visiting the version
// cell. The counting test pins the gain in samples per read on any host; the
// schedule tests park a writer at the exact points where the shortcut's
// obligations matter — the clock is asked at all, it is not asked before the
// sample, and a sample that made the snapshot extend never becomes a Ver. They
// run on the reader's own goroutine: the writer's steps are made from a hook
// on the reader's SampleVersion call or from the transaction body, so there is
// no scheduling to get lucky with. The hammer at the end covers the one
// ordering no script can reach. An attempt that begins drained takes no
// sample at a first read, so the schedules that hang the writer on one start
// from a runtime with a stamp left unfinished (undrain); drained_test.go
// schedules the drained reads themselves.

// sampleTable counts SampleVersion calls and can run a script between one
// sample and whatever its caller does with it, or just before a stamp is
// published.
type sampleTable struct {
	otable.Table
	samples int
	// after runs once a sample of any block has been taken, before the caller
	// sees the result; a script disarms itself by clearing the field.
	after func(b addr.Block)
	// publishing runs at the start of every ReleaseWriteV and StampVersion,
	// before the stamp reaches the cell.
	publishing func()
}

func (st *sampleTable) SampleVersion(b addr.Block) (uint64, bool) {
	s, locked := st.Table.SampleVersion(b)
	st.samples++
	if f := st.after; f != nil {
		f(b)
	}
	return s, locked
}

func (st *sampleTable) ReleaseWriteV(tx otable.TxID, b addr.Block, h otable.Handle, stamp uint64) {
	if f := st.publishing; f != nil {
		f()
	}
	st.Table.ReleaseWriteV(tx, b, h, stamp)
}

func (st *sampleTable) StampVersion(b addr.Block, stamp uint64) {
	if f := st.publishing; f != nil {
		f()
	}
	st.Table.StampVersion(b, stamp)
}

// newSampledRuntime builds an invisible-reader runtime from cfg over a
// sampleTable of the given kind: 64 entries under the mask hash, so blocks
// 0..63 have a cell each.
func newSampledRuntime(t *testing.T, kind string, cfg Config) (*Runtime, *sampleTable, *Memory) {
	t.Helper()
	tab, err := otable.New(kind, hash.NewMask(64))
	if err != nil {
		t.Fatal(err)
	}
	st := &sampleTable{Table: tab}
	rt, mem := newInvisibleRuntimeOn(t, st, 512, cfg)
	return rt, st, mem
}

// stepWriter is a writing commit of one chunk taken apart into the steps
// commit makes, in commit's order — write acquire, stamp draw, write-back
// word by word, stamped release and the count of the stamp as finished — so
// a test can stop the writer between any two of them. A real transaction
// cannot be parked between two words of its write-back, which is where a
// torn read comes from.
type stepWriter struct {
	t     *testing.T
	rt    *Runtime
	id    otable.TxID
	chunk addr.Block
	hnd   otable.Handle
	stamp uint64
}

func newStepWriter(t *testing.T, rt *Runtime, chunk addr.Block) *stepWriter {
	return &stepWriter{t: t, rt: rt, id: rt.NewThread().ID(), chunk: chunk}
}

// enter acquires the chunk and draws the commit stamp.
func (w *stepWriter) enter() {
	w.t.Helper()
	out, ci, hnd := w.rt.cfg.Table.AcquireWriteH(w.id, w.chunk, 0, otable.NoHandle)
	if out != otable.Granted {
		w.t.Fatalf("step writer's acquire of block %d: %v (%v)", w.chunk, out, ci)
	}
	w.hnd = hnd
	w.stamp = w.rt.epoch.Add(1)
}

func (w *stepWriter) store(a addr.Addr, v uint64) { w.rt.cfg.Memory.StoreDirect(a, v) }

func (w *stepWriter) leave() {
	w.rt.cfg.Table.ReleaseWriteV(w.id, w.chunk, w.hnd, w.stamp)
	w.rt.done.Add(1)
}

// TestInvisibleSamplesPerRead counts version samples per read, the
// host-independent form of the shortcut's gain. An attempt that begins
// drained reads without a single sample while the clock stands at rv. Once a
// foreign writing commit has moved the clock the reads are bracketed and
// validated as before the shortcut existed (2 / 1 / 0), and one snapshot
// extension — here forced by reading the chunk that commit wrote — restores
// the still-clock regime, though not the drained one: the first read of a
// chunk takes exactly one sample and every later read of the chunk, and the
// read-only commit, none. An attempt that begins with a stamp unfinished
// reads in that regime from the start.
func TestInvisibleSamplesPerRead(t *testing.T) {
	for _, kind := range sweepKinds() {
		for _, block := range []bool{false, true} {
			name := kind + "/word"
			if block {
				name = kind + "/block"
			}
			t.Run(name, func(t *testing.T) {
				rt, st, mem := newSampledRuntime(t, kind, Config{})
				th, other := rt.NewThread(), rt.NewThread()
				word := func(blk, w int) addr.Addr { return mem.WordAddr(8*blk + w) }
				// first is the first access of block blk: a Read of its word 0,
				// or the footprint-only ReadBlock, which loads nothing and so
				// never needs its sample bracketed.
				first := func(tx *Tx, blk int) {
					if block {
						tx.ReadBlock(addr.BlockOf(word(blk, 0)))
					} else {
						tx.Read(word(blk, 0))
					}
				}
				// expect runs op and checks how many samples it took.
				expect := func(what string, want int, op func()) {
					t.Helper()
					before := st.samples
					op()
					if got := st.samples - before; got != want {
						t.Fatalf("%s took %d version samples, want %d", what, got, want)
					}
				}
				// rereadWord0 reads word 0 of block 1 twice. After ReadBlock no
				// word is cached yet, so there the first of the two is still a
				// fresh load of a known chunk, costing fresh samples.
				rereadWord0 := func(tx *Tx, fresh int) {
					if block {
						expect("word 0 after ReadBlock", fresh, func() { tx.Read(word(1, 0)) })
					}
					expect("repeat read", 0, func() { tx.Read(word(1, 0)) })
				}
				// commitFree runs fn as a transaction whose commit must not
				// sample at all.
				commitFree := func(what string, fn func(tx *Tx)) {
					t.Helper()
					var atEnd int
					if err := th.Atomic(func(tx *Tx) error { fn(tx); atEnd = st.samples; return nil }); err != nil {
						t.Fatal(err)
					}
					if got := st.samples - atEnd; got != 0 {
						t.Fatalf("%s took %d version samples, want 0", what, got)
					}
				}

				commitFree("drained read-only commit", func(tx *Tx) {
					expect("drained: first read of a chunk", 0, func() { first(tx, 1) })
					expect("drained: another word of it", 0, func() { tx.Read(word(1, 1)) })
					rereadWord0(tx, 0)
				})

				commitFree("read-only commit after an extension", func(tx *Tx) {
					if err := other.Atomic(func(otx *Tx) error { otx.Write(word(5, 0), 1); return nil }); err != nil {
						t.Fatal(err)
					}
					firstWant := 2
					if block {
						firstWant = 1
					}
					expect("moved clock: first read of a chunk", firstWant, func() { first(tx, 1) })
					expect("moved clock: another word of it", 1, func() { tx.Read(word(1, 1)) })
					rereadWord0(tx, 1)
					// Block 5 carries the foreign stamp: its sample, one
					// revalidation of the one entry so far, and the sample
					// taken again after the extension.
					expect("first read that extends", 3, func() { first(tx, 5) })
					expect("extended: first read of a chunk", 1, func() { first(tx, 2) })
					expect("extended: another word of it", 0, func() { tx.Read(word(2, 1)) })
					expect("extended: new word of an old chunk", 0, func() { tx.Read(word(1, 2)) })
				})

				undrain(rt)
				commitFree("undrained still-clock read-only commit", func(tx *Tx) {
					expect("still clock: first read of a chunk", 1, func() { first(tx, 3) })
					expect("still clock: another word of it", 0, func() { tx.Read(word(3, 1)) })
				})
				if s := rt.Stats(); s.Aborts != 0 || s.ROCommits != 3 || s.ROExtensions != 1 {
					t.Fatalf("stats = %+v, want three invisible commits, one extension, no abort", s)
				}
			})
		}
	}
}

// stillClockReaders are the reader shapes of the schedule tests: a read-only
// attempt aborts on a writer it samples (roConflict), a writing one tries to
// pin the chunk and is denied by the step writer's hold.
var stillClockReaders = []struct {
	name   string
	writes bool
}{{"read-only", false}, {"writing", true}}

// stillClockEnv is the stage of one schedule: words x0 and x1 share block 2
// and start at 0/0, y lives in a block of its own, and w is the step writer of
// block 2. A writer raises x0 and x1 to one new value, so a reader that
// returns one old and one new word has seen half a commit.
type stillClockEnv struct {
	rt        *Runtime
	tab       *sampleTable
	w         *stepWriter
	x0, x1, y addr.Addr
}

// enterAfterSample arms the table to let the writer in — acquire, stamp draw,
// write-back of x0 alone — right after the next sample of block 2 is taken.
func (env *stillClockEnv) enterAfterSample(v uint64) {
	env.tab.after = func(b addr.Block) {
		if b != env.w.chunk {
			return
		}
		env.tab.after = nil
		env.w.enter()
		env.w.store(env.x0, v)
	}
}

// runStillClockSchedule drives one schedule. before, if not nil, runs ahead of
// the reader's transaction. first is the reader's first attempt, which must
// end in a conflict abort inside one of its reads, having left the writer
// parked with one of the two words written back; whatever first defers runs
// while that abort unwinds and completes the write-back. The writer is let
// out at the start of the retry, which must read the new pair.
func runStillClockSchedule(t *testing.T, kind string, writes bool, before func(env *stillClockEnv), first func(tx *Tx, env *stillClockEnv)) Stats {
	t.Helper()
	onOneP(t)
	rt, tab, mem := newSampledRuntime(t, kind, Config{})
	env := &stillClockEnv{rt: rt, tab: tab, x0: mem.WordAddr(16), x1: mem.WordAddr(17), y: mem.WordAddr(80)}
	env.w = newStepWriter(t, rt, addr.BlockOf(env.x0))
	if before != nil {
		before(env)
	}
	th := rt.NewThread()
	attempt := 0
	if err := th.Atomic(func(tx *Tx) error {
		attempt++
		if writes {
			tx.Write(mem.WordAddr(40), uint64(attempt))
		}
		if attempt == 1 {
			first(tx, env)
		}
		if attempt == 2 {
			env.w.leave()
		}
		if a, b := tx.Read(env.x0), tx.Read(env.x1); a != b || a == 0 {
			t.Fatalf("attempt %d read x0/x1 = %d/%d after the writer left", attempt, a, b)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if attempt != 2 {
		t.Fatalf("committed on attempt %d, want 2", attempt)
	}
	if occ := tab.Occupied(); occ != 0 {
		t.Fatalf("occupancy after commit = %d", occ)
	}
	return rt.Stats()
}

// TestStillClockScheduleWriterAfterSample: a writer acquires the chunk, draws
// its stamp and writes back the first of two words between a first read's
// sample and its load. The sample was clean and the load returns the new
// word; only the moved clock says so, and the fallback sample then finds the
// writer. Returning from the read fails the test: that is the shortcut taken
// without asking the clock, or the clock asked before the sample was taken.
// The runtime starts undrained, so the first read takes its sample.
func TestStillClockScheduleWriterAfterSample(t *testing.T) {
	for _, kind := range sweepKinds() {
		for _, r := range stillClockReaders {
			t.Run(kind+"/"+r.name, func(t *testing.T) {
				undrained := func(env *stillClockEnv) { undrain(env.rt) }
				runStillClockSchedule(t, kind, r.writes, undrained, func(tx *Tx, env *stillClockEnv) {
					env.enterAfterSample(1)
					defer env.w.store(env.x1, 1)
					v := tx.Read(env.x0)
					t.Fatalf("first read returned %d: loaded after the writer drew its stamp, accepted on a sample from before", v)
				})
			})
		}
	}
}

// TestStillClockScheduleWriterBeforeExtension: the chunk's stamp is above rv,
// so the first read's sample makes the snapshot extend; a writer enters, draws
// and half-writes between that sample and the extension's reload of rv. The
// new rv covers the writer's stamp, the clock then stands still, and nothing
// else in the read set is touched — only taking the sample again shows the
// writer. Keeping the pre-extension sample returns the half-written word
// (Read), or records a Ver the next two reads trust (ReadBlock). The attempt
// begins drained; the foreign commit ends that at the read of block 2, which
// then takes its sample.
func TestStillClockScheduleWriterBeforeExtension(t *testing.T) {
	for _, kind := range sweepKinds() {
		for _, block := range []bool{false, true} {
			name := kind + "/Read"
			if block {
				name = kind + "/ReadBlock"
			}
			t.Run(name, func(t *testing.T) {
				st := runStillClockSchedule(t, kind, false, nil, func(tx *Tx, env *stillClockEnv) {
					tx.Read(env.y) // something for the extension to revalidate
					if err := env.rt.NewThread().Atomic(func(otx *Tx) error {
						otx.Write(env.x0, 1)
						otx.Write(env.x1, 1)
						return nil
					}); err != nil {
						t.Fatal(err)
					}
					env.enterAfterSample(2)
					defer env.w.store(env.x1, 2)
					if block {
						tx.ReadBlock(env.w.chunk)
					}
					a, b := tx.Read(env.x0), tx.Read(env.x1)
					t.Fatalf("read x0/x1 = %d/%d on a sample taken before the extension reloaded rv", a, b)
				})
				if st.ROExtensions != 1 || st.ROValidationAborts != 1 {
					t.Fatalf("stats = %+v, want the extension to succeed and the sample after it to abort", st)
				}
			})
		}
	}
}

// TestStillClockScheduleSecondWord: the reader knows the chunk — word 0 is
// cached, a sampled Ver recorded — when a writer enters and writes back word
// 1. The read of word 1 takes no sample on a still clock, so the clock is all
// that stands between it and half a commit. (TestDrainedBeginComparesDone
// makes the same read on a Ver the drained first read recorded.)
func TestStillClockScheduleSecondWord(t *testing.T) {
	for _, kind := range sweepKinds() {
		for _, r := range stillClockReaders {
			t.Run(kind+"/"+r.name, func(t *testing.T) {
				undrained := func(env *stillClockEnv) { undrain(env.rt) }
				runStillClockSchedule(t, kind, r.writes, undrained, func(tx *Tx, env *stillClockEnv) {
					a := tx.Read(env.x0)
					env.w.enter()
					env.w.store(env.x1, 1)
					defer env.w.store(env.x0, 1)
					b := tx.Read(env.x1)
					t.Fatalf("read x0/x1 = %d/%d: the second word was accepted without asking the clock", a, b)
				})
			})
		}
	}
}

// TestStillClockHammer is the free-running companion of the schedules: the
// one ordering they cannot reach is the clock asked after the sample but
// before the data load (and its analogue in readInvisibleHit), because nothing
// is called between the two loads for a script to hang on. A writer commits
// z, x0 and x1 in lockstep as fast as it can while a reader compares them from
// inside invisible attempts; with two processors a writer's draw and
// write-back fall between the reader's two loads often enough for a run of
// this length to see it.
func TestStillClockHammer(t *testing.T) {
	atLeastTwoPs(t)
	for _, kind := range sweepKinds() {
		t.Run(kind, func(t *testing.T) {
			rt, tab, mem := newInvisibleRuntime(t, kind, 64, 512, Config{})
			z, x0, x1 := mem.WordAddr(80), mem.WordAddr(16), mem.WordAddr(17)
			const reads = 60000
			var stop atomic.Bool
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				th := rt.NewThread()
				for !stop.Load() {
					if err := th.Atomic(func(tx *Tx) error {
						v := tx.Read(z) + 1
						tx.Write(z, v)
						tx.Write(x0, v)
						tx.Write(x1, v)
						return nil
					}); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			th := rt.NewThread()
			torn := 0
			for i := 0; i < reads; i++ {
				if err := th.Atomic(func(tx *Tx) error {
					// Compared read by read: the next read of a torn attempt
					// would find the clock moved and abort it.
					a, b := tx.Read(z), tx.Read(x0)
					if a != b {
						torn++
					}
					if tx.Read(x1) != b {
						torn++
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}
			stop.Store(true)
			wg.Wait()
			if torn != 0 {
				t.Fatalf("%d of %d attempts read z, x0 and x1 from different commits", torn, reads)
			}
			if occ := tab.Occupied(); occ != 0 {
				t.Fatalf("occupancy after drain = %d", occ)
			}
			assertDrained(t, rt)
		})
	}
}
