package stm

import (
	"errors"
	"fmt"
	"testing"

	"tmbp/internal/addr"
	"tmbp/internal/hash"
	"tmbp/internal/opacity"
	"tmbp/internal/otable"
	"tmbp/internal/xrand"
)

// Tests of Tx.ReadWords: it must be indistinguishable from one Read per
// word, and the chunk snapshot it shares with Read must keep every check of
// the per-word path.

// sampleRecTable is recTable that also logs version samples and stamp
// raises, so a log pins every table operation an attempt makes.
type sampleRecTable struct {
	recTable
}

func (r *sampleRecTable) SampleVersion(b addr.Block) (uint64, bool) {
	s, locked := r.Table.SampleVersion(b)
	r.log = append(r.log, fmt.Sprintf("SV %d -> %d %v", b, s, locked))
	return s, locked
}

func (r *sampleRecTable) StampVersion(b addr.Block, stamp uint64) {
	r.Table.StampVersion(b, stamp)
	r.log = append(r.log, fmt.Sprintf("ST %d %d", b, stamp))
}

// readWordsOp is one scripted operation of the ReadWords oracle.
type readWordsOp struct {
	kind  int // 0 read n words from word, 1 write, 2 read, 3 read and write, 4 foreign commit
	word  uint64
	n     int
	val   uint64
	abort bool // on the last op: end the transaction with a user error
}

// readWordsModes are the attempt kinds the oracle runs every script under.
var readWordsModes = []string{"drained", "sampled", "serial"}

// TestReadWordsMatchesReadOracle runs one random script twice per table
// kind × layout × attempt kind, reading with ReadWords on one runtime
// and with one Read per word on another, and requires the two runs to be
// identical op by op: the values read (checked against a plain model too),
// the footprint after every op, the sequence of table operations — version
// samples included — and the recorded opacity events, then final memory and
// statistics. Reads start anywhere, cross chunks, run into the partial last
// chunk of a memory that is not a whole number of blocks, and follow the
// attempt's own writes. A run reads consecutive memory words from its data
// word, so in the word layout it stays in one or two chunks. A drained attempt begins with every stamp finished,
// a sampled one with one left unfinished, and a serial one holds the serial
// token after a forced abort. A foreign commit — a stamp drawn, published to
// one chunk and finished, memory untouched — moves the clock under the first
// attempt of a transaction, so first reads bracket their loads, reads of a
// known chunk validate, extensions revalidate and stale snapshots abort.
func TestReadWordsMatchesReadOracle(t *testing.T) {
	for _, kind := range otable.Kinds() {
		for _, l := range layouts {
			for _, mode := range readWordsModes {
				t.Run(fmt.Sprintf("%s/%s/%s", kind, l, mode), func(t *testing.T) {
					for seed := uint64(1); seed <= 6; seed++ {
						script := readWordsScript(seed)
						a := runReadWordsScript(t, kind, l, mode, seed, script, true)
						b := runReadWordsScript(t, kind, l, mode, seed, script, false)
						if len(a) != len(b) {
							t.Fatalf("seed %d: ReadWords run logged %d lines, Read run %d", seed, len(a), len(b))
						}
						for i := range a {
							if a[i] != b[i] {
								t.Fatalf("seed %d: line %d differs:\nReadWords: %s\nRead:      %s", seed, i, a[i], b[i])
							}
						}
					}
				})
			}
		}
	}
}

const (
	readWordsMemWords = 100 // data words; memory ends in a partial chunk in either layout
	readWordsEntries  = 8   // small: chunks alias under tagless in either layout
)

// readWordsScript draws 30 transactions of up to 10 ops.
func readWordsScript(seed uint64) [][]readWordsOp {
	r := xrand.New(seed)
	script := make([][]readWordsOp, 30)
	for i := range script {
		ops := make([]readWordsOp, r.Intn(10)+1)
		for j := range ops {
			op := readWordsOp{kind: r.Intn(5), val: r.Uint64()}
			if op.kind == 0 {
				op.n = r.Intn(20) + 1
				op.word = r.Uint64n(uint64(readWordsMemWords - op.n + 1))
			} else {
				op.word = r.Uint64n(readWordsMemWords)
			}
			ops[j] = op
		}
		ops[len(ops)-1].abort = r.Intn(6) == 0
		script[i] = ops
	}
	return script
}

// runReadWordsScript runs script on a fresh runtime and returns its log: one
// line per op of every attempt, then the table traffic and recorded events
// of every transaction, then final memory and statistics.
func runReadWordsScript(t *testing.T, kind string, l layout, mode string, seed uint64, script [][]readWordsOp, words bool) []string {
	t.Helper()
	inner, err := otable.New(kind, hash.NewMask(readWordsEntries))
	if err != nil {
		t.Fatal(err)
	}
	tab := &sampleRecTable{recTable{Table: inner}}
	// The last data word is the first of its chunk in the word layout.
	mem := NewMemory((readWordsMemWords-1)*l.spread() + 1)
	cfg := Config{Table: tab, Memory: mem, Seed: seed}
	if mode == "serial" {
		cfg.FallbackAfter = 1
	}
	events := attachRecorder(t, &cfg)
	if events == nil {
		events = opacity.NewLog()
		cfg.Recorder = events
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if mode == "sampled" {
		undrain(rt)
	}
	th := rt.NewThread()
	model := make([]uint64, mem.Words())
	var out []string
	sentinel := errors.New("scripted abort")
	for tn, ops := range script {
		var pending map[uint64]uint64
		err := th.Atomic(func(tx *Tx) error {
			attempt := th.attempts
			if mode == "serial" && attempt == 1 {
				th.conflict(otable.NoConflict) // the retry holds the serial token
			}
			pending = map[uint64]uint64{}
			for i, op := range ops {
				line := fmt.Sprintf("txn %d attempt %d op %d:", tn, attempt, i)
				a := l.at(mem, int(op.word))
				m := uint64(a / addr.WordBytes) // memory word of a
				read := func(w, v uint64) {
					want, ok := pending[w]
					if !ok {
						want = model[w]
					}
					if v != want {
						t.Fatalf("%s %s: word %d = %d, want %d", kind, line, w, v, want)
					}
				}
				switch op.kind {
				case 0:
					got := make([]uint64, op.n)
					if words {
						tx.ReadWords(a, got)
					} else {
						for j := range got {
							got[j] = tx.Read(a + addr.Addr(j)*addr.WordBytes)
						}
					}
					for j, v := range got {
						read(m+uint64(j), v)
					}
					line += fmt.Sprintf(" read %d+%d = %v", m, op.n, got)
				case 1:
					tx.Write(a, op.val)
					pending[m] = op.val
					line += fmt.Sprintf(" write %d", m)
				case 2:
					v := tx.Read(a)
					read(m, v)
					line += fmt.Sprintf(" read %d = %d", m, v)
				case 3:
					v := tx.Read(a)
					read(m, v)
					tx.Write(a, v+op.val)
					pending[m] = v + op.val
					line += fmt.Sprintf(" read %d = %d and write", m, v)
				case 4:
					if attempt != 1 {
						continue
					}
					chunk := addr.BlockOf(a)
					stamp := rt.epoch.Add(1)
					tab.StampVersion(chunk, stamp)
					rt.done.Add(1)
					line += fmt.Sprintf(" foreign commit of chunk %d", chunk)
				}
				out = append(out, fmt.Sprintf("%s footprint %d", line, tx.FootprintBlocks()))
			}
			if ops[len(ops)-1].abort {
				return sentinel
			}
			return nil
		})
		switch {
		case ops[len(ops)-1].abort && !errors.Is(err, sentinel):
			t.Fatalf("txn %d: err = %v, want the scripted abort", tn, err)
		case !ops[len(ops)-1].abort && err != nil:
			t.Fatalf("txn %d: %v", tn, err)
		case err == nil:
			for w, v := range pending {
				model[w] = v
			}
		}
		out = append(out, tab.log...)
		tab.log = tab.log[:0]
	}
	for _, ev := range events.Events() {
		out = append(out, fmt.Sprintf("%+v", ev))
	}
	for w := range model {
		if got := mem.LoadDirect(mem.WordAddr(w)); got != model[w] {
			t.Fatalf("final word %d = %d, model %d", w, got, model[w])
		}
	}
	if occ := inner.Occupied(); occ != 0 {
		t.Fatalf("occupancy after the script = %d", occ)
	}
	return append(out, fmt.Sprintf("%+v", rt.Stats()))
}

// TestReadWordsReadsOwnWrites: a word the attempt wrote reads as its redo
// value, whether the chunk was read before the write, written before any
// read, or is held by a serial attempt, and whether the run of words starts
// in the chunk or crosses into it: in the block layout the run crosses from
// a chunk not accessed into both, in the word layout it starts in the chunk
// written before any read and crosses into the one read first.
func TestReadWordsReadsOwnWrites(t *testing.T) {
	for _, kind := range otable.Kinds() {
		for _, l := range layouts {
			for _, serial := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/invisible", kind, l)
				if serial {
					name = fmt.Sprintf("%s/%s/serial", kind, l)
				}
				t.Run(name, func(t *testing.T) {
					var cfg Config
					if serial {
						cfg.FallbackAfter = 1
					}
					rt, _, mem := newInvisibleRuntime(t, kind, 64, 256, cfg)
					for w := 0; w < 32; w++ {
						mem.StoreDirect(mem.WordAddr(w), uint64(100+w))
					}
					// Memory words: a run of 12 from start; r is read, then
					// w2 is written in r's chunk, and w1 is written before
					// any read of its chunk.
					start, r, w1, w2 := 6, 9, 17, 10
					if l == "word" {
						start, r, w1, w2 = 3, 8, 4, 9
					}
					th := rt.NewThread()
					var got [12]uint64
					if err := th.Atomic(func(tx *Tx) error {
						if serial && th.attempts == 1 {
							th.conflict(otable.NoConflict)
						}
						tx.Read(mem.WordAddr(r))
						tx.Write(mem.WordAddr(w2), 7)
						tx.Write(mem.WordAddr(w1), 8)
						tx.ReadWords(mem.WordAddr(start), got[:])
						return nil
					}); err != nil {
						t.Fatal(err)
					}
					for j, v := range got {
						want := uint64(100 + start + j)
						switch start + j {
						case w2:
							want = 7
						case w1:
							want = 8
						}
						if v != want {
							t.Fatalf("ReadWords word %d = %d, want %d: %v", start+j, v, want, got)
						}
					}
					if st := rt.Stats(); serial != (st.FallbackCommits == 1) {
						t.Fatalf("stats = %+v: serial = %v", st, serial)
					}
				})
			}
		}
	}
}

// TestReadWordsDrainedAsksTheClock is TestDrainedReadAsksTheClock for a
// whole-chunk ReadWords: the drained snapshot loads both words of a commit
// half written back, and only the clock, moved past rv after the loads, says
// so. Accepting the snapshot fails the test.
func TestReadWordsDrainedAsksTheClock(t *testing.T) {
	for _, kind := range otable.Kinds() {
		for _, r := range stillClockReaders {
			t.Run(kind+"/"+r.name, func(t *testing.T) {
				runStillClockSchedule(t, kind, r.writes, nil, func(tx *Tx, env *stillClockEnv) {
					env.w.enter()
					env.w.store(env.x0, 1)
					defer env.w.store(env.x1, 1)
					var got [2]uint64
					tx.ReadWords(env.x0, got[:])
					t.Fatalf("drained ReadWords returned x0/x1 = %d/%d: half of a commit in flight, accepted without asking the clock", got[0], got[1])
				})
			})
		}
	}
}

// TestReadWordsSampledLoadsInsideTheBracket: on a moved clock a sampled
// first read brackets its loads between two samples. Here a writer enters
// the chunk, draws its stamp and writes back the chunk's last word right
// after the second sample: a snapshot that loaded any word after that
// sample would pair the old first word with the new last one. The loads
// inside the bracket are all old, and commit validation then aborts the
// attempt on the writer's stamp; the retry reads the finished commit.
func TestReadWordsSampledLoadsInsideTheBracket(t *testing.T) {
	for _, kind := range otable.Kinds() {
		t.Run(kind, func(t *testing.T) {
			onOneP(t)
			rt, tab, mem := newSampledRuntime(t, kind, Config{})
			undrain(rt)
			x0, x7 := mem.WordAddr(16), mem.WordAddr(23) // block 2
			w := newStepWriter(t, rt, addr.BlockOf(x0))
			th, other := rt.NewThread(), rt.NewThread()
			attempt := 0
			var got [8]uint64
			if err := th.Atomic(func(tx *Tx) error {
				attempt++
				if attempt == 1 {
					if err := other.Atomic(func(otx *Tx) error { otx.Write(mem.WordAddr(80), 1); return nil }); err != nil {
						t.Fatal(err)
					}
					samples := 0
					tab.after = func(b addr.Block) {
						if b != w.chunk {
							return
						}
						if samples++; samples == 2 {
							tab.after = nil
							w.enter()
							w.store(x7, 1)
						}
					}
				}
				tx.ReadWords(x0, got[:])
				if got[0] != got[7] {
					t.Fatalf("attempt %d read x0/x7 = %d/%d: a word loaded outside the sample bracket", attempt, got[0], got[7])
				}
				if attempt == 1 {
					w.store(x0, 1)
					w.leave()
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if attempt != 2 || got[0] != 1 {
				t.Fatalf("committed on attempt %d reading x0 = %d, want attempt 2 reading the writer's 1", attempt, got[0])
			}
			if st := rt.Stats(); st.ROValidationAborts != 1 {
				t.Fatalf("stats = %+v, want the one validation abort", st)
			}
		})
	}
}
