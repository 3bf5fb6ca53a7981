package stm

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"tmbp/internal/addr"
	"tmbp/internal/hash"
	"tmbp/internal/otable"
	"tmbp/internal/xrand"
)

// This file oracle-tests the unified access set against the structures it
// replaced: the map-backed blockSet read/write footprints, the writeLog
// redo map, and slot-keyed holdings. A model STM built from the old triple
// (replicating the pre-unification Tx logic operation for operation) and
// the real runtime are driven through identical random transaction
// sequences over recording tables, and must produce
//
//   - the identical sequence of ownership-table operations and outcomes
//     (same acquires in the same order with the same heldReads, same
//     releases in the same order: first access of the chunk whose acquire
//     created the holding),
//   - the same read values (read-own-writes included),
//   - the same footprint sizes after every operation, and
//   - the same final memory contents,
//
// across every kind of sweepKinds and both data layouts, drained and
// sampled, with aborted transactions leaving no trace. A read goes to the
// runtime's log, never to the access set, so a chunk read and later written
// releases after its first write, not its first read: the model's order of
// holdings counts writes only (oldModel.touch). A read is never a
// table op. A first read that samples a writer in its chunk's version cell
// is answered from the access set (pinOrWait); single-threaded that writer
// is the transaction itself, so it happens only on sampled attempts, to a
// tagless read whose entry the transaction holds through an aliasing write.
// The recording table still logs read acquires and releases, so a runtime
// that took a read share would diverge from the model, which takes none.

// recTable wraps a Table and logs every ownership operation with its
// outcome. Handles pass through unlogged: the runtime and the old-triple
// model each keep the handles their acquires return, and must log the same
// logical operations.
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
// commit/rollback logic over blockSet+writeLog and slot-keyed holdings, kept
// as the executable specification.
type oldModel struct {
	tab    *recTable
	id     otable.TxID
	held   map[uint64]*holding // slot -> this transaction's permission
	first  map[addr.Block]int  // chunk -> first-write order
	reads  *blockSet
	writes *blockSet
	redo   *writeLog
	mem    []uint64
	// sampled: first reads take a version sample (the runtime is
	// undrained), so a read can find a writer in its chunk's cell and pin.
	sampled bool
}

// holding is the model's write hold on one table slot: the block that
// acquired it, which releases go through, and that chunk's first-write
// order — the runtime releases from its entry, in access-set order.
type holding struct {
	block addr.Block
	hnd   otable.Handle
	first int
}

func newOldModel(tab *recTable, id otable.TxID, words int, sampled bool) *oldModel {
	return &oldModel{
		tab:     tab,
		id:      id,
		held:    make(map[uint64]*holding),
		first:   make(map[addr.Block]int),
		reads:   newBlockSet(),
		writes:  newBlockSet(),
		redo:    newWriteLog(),
		mem:     make([]uint64, words),
		sampled: sampled,
	}
}

func wordChunk(word uint64) addr.Block {
	return addr.Block(word >> (addr.BlockShift - addr.WordShift))
}

// touch records chunk's first write.
func (m *oldModel) touch(chunk addr.Block) {
	if _, ok := m.first[chunk]; !ok {
		m.first[chunk] = len(m.first)
	}
}

// readChunk is a chunk's first read. The model's table holds exactly the
// model's acquires, so a writer its sample shows is the model's own write
// hold on the slot — the pin, which takes no table op.
func (m *oldModel) readChunk(chunk addr.Block) {
	if !m.sampled {
		return
	}
	if _, writer := m.tab.SampleVersion(chunk); writer && m.held[m.tab.SlotOf(chunk)] == nil {
		panic("oracle model sampled a writer it does not hold single-threaded")
	}
}

// writeChunk acquires exclusive permission on chunk. The table must answer
// AlreadyHeld when the model already write-holds chunk's slot, through an
// aliasing chunk, and Granted otherwise; only a grant is a holding.
func (m *oldModel) writeChunk(chunk addr.Block) {
	m.touch(chunk)
	slot := m.tab.SlotOf(chunk)
	want := otable.Granted
	if m.held[slot] != nil {
		want = otable.AlreadyHeld
	}
	out, _, hnd := m.tab.AcquireWriteH(m.id, chunk, 0, otable.NoHandle)
	if out != want {
		panic(fmt.Sprintf("oracle model's write acquire single-threaded: %v, want %v", out, want))
	}
	if want == otable.Granted {
		m.held[slot] = &holding{block: chunk, hnd: hnd, first: m.first[chunk]}
	}
}

// read is a transactional Read: the chunk joins the runtime's log and
// leaves the access set alone, so it takes its place in the order releases
// follow at its first write, not at its read.
func (m *oldModel) read(word uint64) uint64 {
	if v, ok := m.redo.Get(word); ok {
		return v
	}
	chunk := wordChunk(word)
	if !m.writes.Has(chunk) && m.reads.Add(chunk) && m.sampled {
		m.readChunk(chunk)
	}
	return m.mem[word]
}

func (m *oldModel) write(word uint64, v uint64) {
	chunk := wordChunk(word)
	if m.writes.Add(chunk) {
		m.writeChunk(chunk)
		m.reads.Remove(chunk)
	}
	m.redo.Set(word, v)
}

func (m *oldModel) footprint() int { return m.reads.Len() + m.writes.Len() }

func (m *oldModel) finish(commit bool) {
	if commit {
		m.redo.Range(func(word, val uint64) { m.mem[word] = val })
	}
	hs := make([]*holding, 0, len(m.held))
	for _, h := range m.held {
		hs = append(hs, h)
	}
	sort.Slice(hs, func(i, j int) bool { return hs[i].first < hs[j].first })
	for _, h := range hs {
		m.tab.ReleaseWriteV(m.id, h.block, h.hnd, 0)
	}
	clear(m.held)
	clear(m.first)
	m.reads.Reset()
	m.writes.Reset()
	m.redo.Reset()
}

// oracleOp is one scripted transactional operation.
type oracleOp struct {
	kind int    // 0 read, 1 write
	word uint64 // memory word
	blk  uint64
	val  uint64
}

func TestUnifiedLogMatchesOldTripleOracle(t *testing.T) {
	const (
		words   = 64
		entries = 4 // small: chunks alias under tagless in either layout
		txns    = 60
		seeds   = 8
	)
	for _, kind := range sweepKinds() {
		for _, l := range layouts {
			name := fmt.Sprintf("%s/%s", kind, l)
			t.Run(name, func(t *testing.T) {
				var pins [2]uint64 // drained, sampled
				for seed := uint64(1); seed <= seeds; seed++ {
					pins[0] += runUnifiedLogOracle(t, kind, l, words, entries, txns, seed, "backoff", false)
					pins[1] += runUnifiedLogOracle(t, kind, l, words, entries, txns, seed, "backoff", true)
				}
				// A drained read takes no sample, so it never pins. Tagless
				// chunks alias (8 or 64 chunks, 4 entries): the sampled runs
				// must reach the pin. A tagged sample answers for its own
				// chunk, which a lone attempt samples only before it holds
				// it: no pin ever.
				switch {
				case pins[0] != 0,
					kind == "tagless" && pins[1] == 0,
					kind != "tagless" && pins[1] != 0:
					t.Fatalf("pins drained/sampled = %d/%d", pins[0], pins[1])
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
		for _, l := range layouts {
			for _, policy := range cmPolicies() {
				name := fmt.Sprintf("%s/%s/%s", kind, l, policy)
				t.Run(name, func(t *testing.T) {
					for seed := uint64(1); seed <= seeds; seed++ {
						for _, sampled := range []bool{false, true} {
							runUnifiedLogOracle(t, kind, l, words, entries, txns, seed, policy, sampled)
						}
					}
				})
			}
		}
	}
}

// runUnifiedLogOracle drives the model and the runtime through one random
// script over words data words laid out by l and returns the runtime's pin
// count. sampled leaves the runtime undrained, so every first read takes its
// version sample.
func runUnifiedLogOracle(t *testing.T, kind string, l layout, words int, entries uint64, txns int, seed uint64, policy string, sampled bool) uint64 {
	t.Helper()
	newRec := func() *recTable {
		tab, err := otable.New(kind, hash.NewMask(entries))
		if err != nil {
			t.Fatal(err)
		}
		return &recTable{Table: tab}
	}
	realTab, modelTab := newRec(), newRec()
	mem := NewMemory(words * l.spread())
	cfg := Config{Table: realTab, Memory: mem, Seed: seed}
	withPolicy(&cfg, policy)
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sampled {
		undrain(rt)
	}
	th := rt.NewThread()
	model := newOldModel(modelTab, th.ID(), mem.Words(), sampled)

	r := xrand.New(seed)
	for tn := 0; tn < txns; tn++ {
		nops := r.Intn(12) + 1
		ops := make([]oracleOp, nops)
		for i := range ops {
			ops[i] = oracleOp{
				kind: r.Intn(4),
				word: uint64(l.spread()) * r.Uint64n(uint64(words)),
				blk:  r.Uint64n(uint64(mem.Words() / chunkWords)),
				val:  r.Uint64(),
			}
			if ops[i].kind >= 2 { // half the ops name the first word of a chunk
				ops[i].kind -= 2
				ops[i].word = chunkWords * ops[i].blk
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
			}
			expFeet[i] = model.footprint()
		}
		model.finish(!abort)

		// Real pass over the same script.
		sentinel := fmt.Errorf("scripted abort")
		err := th.Atomic(func(tx *Tx) error {
			for i, op := range ops {
				switch op.kind {
				case 0:
					if got := tx.Read(mem.WordAddr(int(op.word))); got != expReads[i] {
						t.Fatalf("%s seed=%d txn=%d op=%d: Read(word %d) = %d, model %d",
							kind, seed, tn, i, op.word, got, expReads[i])
					}
				case 1:
					tx.Write(mem.WordAddr(int(op.word)), op.val)
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
	for w := range model.mem {
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
	return rt.Stats().ROPromotions
}
