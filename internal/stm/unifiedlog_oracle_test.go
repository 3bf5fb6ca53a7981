package stm

import (
	"fmt"
	"testing"
	"testing/quick"

	"tmbp/internal/addr"
	"tmbp/internal/hash"
	"tmbp/internal/otable"
	"tmbp/internal/xrand"
)

// This file oracle-tests the unified access set against the structures it
// replaced: the map-backed blockSet read/write footprints, the writeLog
// redo map, and the slot-keyed otable.Footprint. A model STM built from the
// old triple (replicating the pre-unification Tx logic operation for
// operation) and the real runtime are driven through identical random
// transaction sequences over recording tables, and must produce
//
//   - the identical sequence of ownership-table operations and outcomes
//     (same acquires in the same order with the same heldReads, same
//     releases in the same first-acquire order),
//   - the same read values (read-own-writes included),
//   - the same footprint sizes after every operation, and
//   - the same final memory contents,
//
// across every kind of sweepKinds and both granularities, with aborted
// transactions leaving no trace. The old triple acquired every read, so the
// real runtime runs each transaction on the visible escape (atomicVisible).

// recTable wraps a Table and logs every ownership operation with its
// outcome. Handles pass through unlogged: the runtime (which carries them)
// and the old-triple model (which drives the table through the NoHandle
// helpers of otable.Footprint) must log the same logical operations.
type recTable struct {
	otable.Table
	log []string
}

func (r *recTable) AcquireReadH(tx otable.TxID, b addr.Block) (otable.Outcome, otable.ConflictInfo, otable.Handle) {
	out, ci, h := r.Table.AcquireReadH(tx, b)
	r.log = append(r.log, fmt.Sprintf("AR %d -> %v", b, out))
	return out, ci, h
}

func (r *recTable) AcquireWriteH(tx otable.TxID, b addr.Block, heldReads uint32, h otable.Handle) (otable.Outcome, otable.ConflictInfo, otable.Handle) {
	out, ci, nh := r.Table.AcquireWriteH(tx, b, heldReads, h)
	r.log = append(r.log, fmt.Sprintf("AW %d held=%d -> %v", b, heldReads, out))
	return out, ci, nh
}

func (r *recTable) ReleaseReadH(tx otable.TxID, b addr.Block, h otable.Handle) {
	r.Table.ReleaseReadH(tx, b, h)
	r.log = append(r.log, fmt.Sprintf("RR %d", b))
}

func (r *recTable) ReleaseWriteH(tx otable.TxID, b addr.Block, h otable.Handle) {
	r.Table.ReleaseWriteH(tx, b, h)
	r.log = append(r.log, fmt.Sprintf("RW %d", b))
}

func (r *recTable) ReleaseWriteV(tx otable.TxID, b addr.Block, h otable.Handle, stamp uint64) {
	r.Table.ReleaseWriteV(tx, b, h, stamp)
	r.log = append(r.log, fmt.Sprintf("RW %d", b))
}

// writeLog is a redo log: the speculative value of every word written by
// the transaction, applied to memory only at commit. Insertion order is
// preserved so write-back is deterministic.
//
// writeLog and blockSet are the original map-backed log structures. The
// unified txn.AccessSet subsumes both with a single probe; they remain here
// as the executable specification the AccessSet is oracle-tested against.
type writeLog struct {
	vals  map[uint64]uint64 // word index -> speculative value
	order []uint64          // word indices in first-write order
}

func newWriteLog() *writeLog {
	return &writeLog{vals: make(map[uint64]uint64)}
}

// Set records the speculative value for a word, overwriting any prior value.
func (l *writeLog) Set(word uint64, val uint64) {
	if _, ok := l.vals[word]; !ok {
		l.order = append(l.order, word)
	}
	l.vals[word] = val
}

// Get returns the speculative value for a word, if one was written.
func (l *writeLog) Get(word uint64) (uint64, bool) {
	v, ok := l.vals[word]
	return v, ok
}

// Len returns the number of distinct words written.
func (l *writeLog) Len() int { return len(l.order) }

// Range calls fn for every (word, value) pair in first-write order.
func (l *writeLog) Range(fn func(word uint64, val uint64)) {
	for _, w := range l.order {
		fn(w, l.vals[w])
	}
}

// Reset clears the log, retaining capacity.
func (l *writeLog) Reset() {
	for _, w := range l.order {
		delete(l.vals, w)
	}
	l.order = l.order[:0]
}

// blockSet is an insertion-ordered set of cache blocks: the read or write
// footprint of a transaction at ownership granularity.
type blockSet struct {
	m     map[addr.Block]struct{}
	order []addr.Block
}

func newBlockSet() *blockSet {
	return &blockSet{m: make(map[addr.Block]struct{})}
}

// Add inserts b, reporting whether it was new.
func (s *blockSet) Add(b addr.Block) bool {
	if _, ok := s.m[b]; ok {
		return false
	}
	s.m[b] = struct{}{}
	s.order = append(s.order, b)
	return true
}

// Has reports membership.
func (s *blockSet) Has(b addr.Block) bool {
	_, ok := s.m[b]
	return ok
}

// Remove deletes b, reporting whether it was present. Footprints are small,
// so the O(n) order-slice fix-up is immaterial.
func (s *blockSet) Remove(b addr.Block) bool {
	if _, ok := s.m[b]; !ok {
		return false
	}
	delete(s.m, b)
	for i, x := range s.order {
		if x == b {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	return true
}

// Len returns the set size.
func (s *blockSet) Len() int { return len(s.order) }

// Range calls fn for each block in insertion order.
func (s *blockSet) Range(fn func(b addr.Block)) {
	for _, b := range s.order {
		fn(b)
	}
}

// Reset clears the set, retaining capacity.
func (s *blockSet) Reset() {
	for _, b := range s.order {
		delete(s.m, b)
	}
	s.order = s.order[:0]
}

func TestWriteLogBasics(t *testing.T) {
	l := newWriteLog()
	l.Set(3, 30)
	l.Set(1, 10)
	l.Set(3, 33) // overwrite keeps first-write order
	if l.Len() != 2 {
		t.Fatalf("Len = %d", l.Len())
	}
	if v, ok := l.Get(3); !ok || v != 33 {
		t.Fatalf("Get(3) = %v, %v", v, ok)
	}
	if _, ok := l.Get(99); ok {
		t.Fatal("Get(99) found a value")
	}
	var order []uint64
	l.Range(func(w, v uint64) { order = append(order, w) })
	if len(order) != 2 || order[0] != 3 || order[1] != 1 {
		t.Fatalf("Range order = %v, want [3 1]", order)
	}
}

func TestWriteLogReset(t *testing.T) {
	l := newWriteLog()
	l.Set(1, 1)
	l.Set(2, 2)
	l.Reset()
	if l.Len() != 0 {
		t.Fatalf("Len after reset = %d", l.Len())
	}
	if _, ok := l.Get(1); ok {
		t.Fatal("stale value after reset")
	}
	l.Set(1, 7)
	if v, _ := l.Get(1); v != 7 {
		t.Fatal("reuse after reset broken")
	}
}

func TestWriteLogMatchesMapModel(t *testing.T) {
	check := func(seed uint64) bool {
		r := xrand.New(seed)
		l := newWriteLog()
		model := make(map[uint64]uint64)
		for i := 0; i < 200; i++ {
			w := r.Uint64n(32)
			v := r.Uint64()
			l.Set(w, v)
			model[w] = v
		}
		if l.Len() != len(model) {
			return false
		}
		for w, v := range model {
			got, ok := l.Get(w)
			if !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockSet(t *testing.T) {
	s := newBlockSet()
	if !s.Add(5) || s.Add(5) {
		t.Fatal("Add newness reporting wrong")
	}
	s.Add(7)
	if !s.Has(5) || !s.Has(7) || s.Has(6) {
		t.Fatal("membership wrong")
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	var got []addr.Block
	s.Range(func(b addr.Block) { got = append(got, b) })
	if len(got) != 2 || got[0] != 5 || got[1] != 7 {
		t.Fatalf("Range = %v", got)
	}
	s.Reset()
	if s.Len() != 0 || s.Has(5) {
		t.Fatal("reset incomplete")
	}
}

// oldModel is the pre-unification per-thread log: the exact Tx.Read/Write/
// ReadBlock/WriteBlock/commit/rollback logic over blockSet+writeLog+
// Footprint, kept as the executable specification.
type oldModel struct {
	tab      *recTable
	fp       *otable.Footprint
	reads    *blockSet
	writes   *blockSet
	redo     *writeLog
	mem      []uint64
	wordGran bool
}

func newOldModel(tab *recTable, id otable.TxID, words int, wordGran bool) *oldModel {
	return &oldModel{
		tab:      tab,
		fp:       otable.NewFootprint(tab, id),
		reads:    newBlockSet(),
		writes:   newBlockSet(),
		redo:     newWriteLog(),
		mem:      make([]uint64, words),
		wordGran: wordGran,
	}
}

func (m *oldModel) chunkOf(word uint64) addr.Block {
	if m.wordGran {
		return addr.Block(word)
	}
	return addr.Block(word >> (addr.BlockShift - addr.WordShift))
}

func (m *oldModel) read(word uint64) uint64 {
	if v, ok := m.redo.Get(word); ok {
		return v
	}
	chunk := m.chunkOf(word)
	if !m.writes.Has(chunk) && m.reads.Add(chunk) {
		if out := m.fp.Read(chunk); out.Conflict() {
			panic("oracle model conflicted single-threaded")
		}
	}
	return m.mem[word]
}

func (m *oldModel) write(word uint64, v uint64) {
	chunk := m.chunkOf(word)
	if m.writes.Add(chunk) {
		if out := m.fp.Write(chunk); out.Conflict() {
			panic("oracle model conflicted single-threaded")
		}
		m.reads.Remove(chunk)
	}
	m.redo.Set(word, v)
}

func (m *oldModel) readBlock(b addr.Block) {
	if !m.writes.Has(b) && m.reads.Add(b) {
		if out := m.fp.Read(b); out.Conflict() {
			panic("oracle model conflicted single-threaded")
		}
	}
}

func (m *oldModel) writeBlock(b addr.Block) {
	if m.writes.Add(b) {
		if out := m.fp.Write(b); out.Conflict() {
			panic("oracle model conflicted single-threaded")
		}
		m.reads.Remove(b)
	}
}

func (m *oldModel) footprint() int { return m.reads.Len() + m.writes.Len() }

func (m *oldModel) finish(commit bool) {
	if commit {
		m.redo.Range(func(word, val uint64) { m.mem[word] = val })
	}
	m.fp.ReleaseAll()
	m.reads.Reset()
	m.writes.Reset()
	m.redo.Reset()
}

// oracleOp is one scripted transactional operation.
type oracleOp struct {
	kind int // 0 read, 1 write, 2 readBlock, 3 writeBlock
	word uint64
	blk  addr.Block
	val  uint64
}

func TestUnifiedLogMatchesOldTripleOracle(t *testing.T) {
	const (
		words   = 64
		entries = 16 // small: heavy aliasing under tagless
		txns    = 60
		seeds   = 8
	)
	for _, kind := range sweepKinds() {
		for _, gran := range []Granularity{BlockGranularity, WordGranularity} {
			name := fmt.Sprintf("%s/%s", kind, gran)
			t.Run(name, func(t *testing.T) {
				for seed := uint64(1); seed <= seeds; seed++ {
					runUnifiedLogOracle(t, kind, gran, words, entries, txns, seed, "backoff")
				}
			})
		}
	}
}

// TestUnifiedLogOracleAcrossCMPolicies repeats the oracle sweep for every
// contention-management policy. A policy that changed the table-op sequence,
// any read value, a footprint, or final memory would diverge from the model
// here — proving CM choice only ever reschedules retries and never changes
// serialization.
func TestUnifiedLogOracleAcrossCMPolicies(t *testing.T) {
	const (
		words   = 64
		entries = 16
		txns    = 40
		seeds   = 3
	)
	for _, kind := range sweepKinds() {
		for _, gran := range []Granularity{BlockGranularity, WordGranularity} {
			for _, policy := range cmPolicies() {
				name := fmt.Sprintf("%s/%s/%s", kind, gran, policy)
				t.Run(name, func(t *testing.T) {
					for seed := uint64(1); seed <= seeds; seed++ {
						runUnifiedLogOracle(t, kind, gran, words, entries, txns, seed, policy)
					}
				})
			}
		}
	}
}

func runUnifiedLogOracle(t *testing.T, kind string, gran Granularity, words int, entries uint64, txns int, seed uint64, policy string) {
	t.Helper()
	newRec := func() *recTable {
		tab, err := otable.New(kind, hash.NewMask(entries))
		if err != nil {
			t.Fatal(err)
		}
		return &recTable{Table: tab}
	}
	realTab, modelTab := newRec(), newRec()
	mem := NewMemory(words)
	cfg := Config{Table: realTab, Memory: mem, Granularity: gran, Seed: seed}
	withPolicy(&cfg, policy)
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	th := rt.NewThread()
	model := newOldModel(modelTab, th.ID(), words, gran == WordGranularity)

	r := xrand.New(seed)
	for tn := 0; tn < txns; tn++ {
		nops := r.Intn(12) + 1
		ops := make([]oracleOp, nops)
		for i := range ops {
			ops[i] = oracleOp{
				kind: r.Intn(4),
				word: r.Uint64n(uint64(words)),
				blk:  addr.Block(r.Uint64n(10)),
				val:  r.Uint64(),
			}
		}
		abort := r.Intn(5) == 0

		// Model pass: compute expected read values and footprints.
		expReads := make([]uint64, nops)
		expFeet := make([]int, nops)
		for i, op := range ops {
			switch op.kind {
			case 0:
				expReads[i] = model.read(op.word)
			case 1:
				model.write(op.word, op.val)
			case 2:
				model.readBlock(op.blk)
			case 3:
				model.writeBlock(op.blk)
			}
			expFeet[i] = model.footprint()
		}
		model.finish(!abort)

		// Real pass over the same script.
		sentinel := fmt.Errorf("scripted abort")
		err := atomicVisible(th, func(tx *Tx) error {
			for i, op := range ops {
				switch op.kind {
				case 0:
					if got := tx.Read(mem.WordAddr(int(op.word))); got != expReads[i] {
						t.Fatalf("%s seed=%d txn=%d op=%d: Read(word %d) = %d, model %d",
							kind, seed, tn, i, op.word, got, expReads[i])
					}
				case 1:
					tx.Write(mem.WordAddr(int(op.word)), op.val)
				case 2:
					tx.ReadBlock(op.blk)
				case 3:
					tx.WriteBlock(op.blk)
				}
				if got := tx.FootprintBlocks(); got != expFeet[i] {
					t.Fatalf("%s seed=%d txn=%d op=%d: footprint = %d, model %d",
						kind, seed, tn, i, got, expFeet[i])
				}
			}
			if abort {
				return sentinel
			}
			return nil
		})
		if abort != (err != nil) {
			t.Fatalf("%s seed=%d txn=%d: err = %v, abort = %v", kind, seed, tn, err, abort)
		}

		// Ownership traffic must be operation-for-operation identical.
		if len(realTab.log) != len(modelTab.log) {
			t.Fatalf("%s seed=%d txn=%d: table op counts diverge: real %d vs model %d\nreal: %v\nmodel: %v",
				kind, seed, tn, len(realTab.log), len(modelTab.log), realTab.log, modelTab.log)
		}
		for i := range realTab.log {
			if realTab.log[i] != modelTab.log[i] {
				t.Fatalf("%s seed=%d txn=%d: table op %d diverges: real %q vs model %q",
					kind, seed, tn, i, realTab.log[i], modelTab.log[i])
			}
		}
		realTab.log, modelTab.log = realTab.log[:0], modelTab.log[:0]
	}

	// Final memory identical; both tables drained.
	for w := 0; w < words; w++ {
		if got := mem.LoadDirect(mem.WordAddr(w)); got != model.mem[w] {
			t.Fatalf("%s seed=%d: final word %d = %d, model %d", kind, seed, w, got, model.mem[w])
		}
	}
	if occ := realTab.Occupied(); occ != 0 {
		t.Fatalf("%s seed=%d: real table occupancy = %d", kind, seed, occ)
	}
	if occ := modelTab.Occupied(); occ != 0 {
		t.Fatalf("%s seed=%d: model table occupancy = %d", kind, seed, occ)
	}
}
