package otable

import (
	"testing"
	"testing/quick"

	"tmbp/internal/addr"
	"tmbp/internal/hash"
	"tmbp/internal/xrand"
)

// This file checks both table implementations against a trivially correct
// reference model: a map from slot key to an explicit permission state,
// driven by the same random operation sequences. Any divergence in granted/
// denied decisions or in final occupancy is a bug in the real tables.

// oracleState is the reference permission state of one slot.
type oracleState struct {
	mode    Mode
	owner   TxID
	sharers map[TxID]uint32 // read shares per transaction
}

// oracle is the reference ownership table.
type oracle struct {
	slotOf func(addr.Block) uint64
	slots  map[uint64]*oracleState
}

func newOracle(slotOf func(addr.Block) uint64) *oracle {
	return &oracle{slotOf: slotOf, slots: make(map[uint64]*oracleState)}
}

func (o *oracle) state(b addr.Block) *oracleState {
	k := o.slotOf(b)
	s, ok := o.slots[k]
	if !ok {
		s = &oracleState{mode: Free, sharers: make(map[TxID]uint32)}
		o.slots[k] = s
	}
	return s
}

func (o *oracle) acquireRead(tx TxID, b addr.Block) Outcome {
	s := o.state(b)
	switch s.mode {
	case Free:
		s.mode = Read
		s.sharers[tx]++
		return Granted
	case Read:
		s.sharers[tx]++
		return Granted
	default:
		if s.owner == tx {
			return AlreadyHeld
		}
		return ConflictWriter
	}
}

func (o *oracle) acquireWrite(tx TxID, b addr.Block, heldReads uint32) Outcome {
	s := o.state(b)
	switch s.mode {
	case Free:
		s.mode = Write
		s.owner = tx
		return Granted
	case Read:
		total := uint32(0)
		for _, n := range s.sharers {
			total += n
		}
		if heldReads == total {
			s.mode = Write
			s.owner = tx
			clear(s.sharers)
			return Upgraded
		}
		return ConflictReaders
	default:
		if s.owner == tx {
			return AlreadyHeld
		}
		return ConflictWriter
	}
}

func (o *oracle) releaseRead(tx TxID, b addr.Block) {
	s := o.state(b)
	s.sharers[tx]--
	if s.sharers[tx] == 0 {
		delete(s.sharers, tx)
	}
	if len(s.sharers) == 0 {
		s.mode = Free
	}
}

func (o *oracle) releaseWrite(tx TxID, b addr.Block) {
	s := o.state(b)
	s.mode = Free
	s.owner = 0
}

func (o *oracle) occupied() uint64 {
	n := uint64(0)
	for _, s := range o.slots {
		if s.mode != Free {
			n++
		}
	}
	return n
}

// runOracleComparison drives identical random operations through a real
// table and the oracle, comparing every outcome. Footprints (the real
// clients) are bypassed: the test talks to the Table interface directly,
// tracking per-tx held reads the way Footprint does.
func runOracleComparison(t *testing.T, mk func() Table, seed uint64) bool {
	t.Helper()
	tab := mk()
	orc := newOracle(tab.SlotOf)
	r := xrand.New(seed)

	// heldReads[tx][slot] mirrors what a Footprint would know.
	type key struct {
		tx   TxID
		slot uint64
	}
	heldReads := make(map[key]uint32)
	heldWrite := make(map[key]addr.Block)
	readBlock := make(map[key]addr.Block)

	for step := 0; step < 500; step++ {
		tx := TxID(r.Intn(3) + 1)
		b := addr.Block(r.Intn(48))
		k := key{tx, tab.SlotOf(b)}
		switch r.Intn(4) {
		case 0: // read
			if _, w := heldWrite[k]; w || heldReads[k] > 0 {
				continue // footprint fast path would skip the table
			}
			got, _ := AcquireRead(tab, tx, b)
			want := orc.acquireRead(tx, b)
			if got != want {
				t.Logf("step %d: AcquireRead(%d, %v) = %v, oracle %v", step, tx, b, got, want)
				return false
			}
			if got == Granted {
				heldReads[k]++
				readBlock[k] = b
			}
		case 1: // write
			if _, w := heldWrite[k]; w {
				continue
			}
			hr := heldReads[k]
			got, _ := AcquireWrite(tab, tx, b, hr)
			want := orc.acquireWrite(tx, b, hr)
			if got != want {
				t.Logf("step %d: AcquireWrite(%d, %v, %d) = %v, oracle %v", step, tx, b, hr, got, want)
				return false
			}
			if got == Granted || got == Upgraded {
				heldWrite[k] = b
				heldReads[k] = 0
			}
		case 2: // release one read
			if heldReads[k] == 0 {
				continue
			}
			rb := readBlock[k]
			ReleaseRead(tab, tx, rb)
			orc.releaseRead(tx, rb)
			heldReads[k]--
		case 3: // release write
			wb, ok := heldWrite[k]
			if !ok {
				continue
			}
			ReleaseWrite(tab, tx, wb)
			orc.releaseWrite(tx, wb)
			delete(heldWrite, k)
		}
	}
	// Drain everything and compare occupancy.
	for k, n := range heldReads {
		for i := uint32(0); i < n; i++ {
			ReleaseRead(tab, k.tx, readBlock[k])
			orc.releaseRead(k.tx, readBlock[k])
		}
	}
	for k, wb := range heldWrite {
		ReleaseWrite(tab, k.tx, wb)
		orc.releaseWrite(k.tx, wb)
	}
	if tab.Occupied() != orc.occupied() {
		t.Logf("occupancy %d, oracle %d", tab.Occupied(), orc.occupied())
		return false
	}
	return tab.Occupied() == 0
}

func TestTaglessMatchesOracle(t *testing.T) {
	check := func(seed uint64) bool {
		return runOracleComparison(t, func() Table { return NewTagless(hash.NewMask(16)) }, seed)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestTaggedMatchesOracle(t *testing.T) {
	// The tagged table's slots are blocks, so the oracle keys adapt via
	// SlotOf automatically; conflicts only occur on identical blocks.
	check := func(seed uint64) bool {
		return runOracleComparison(t, func() Table { return NewTagged(hash.NewMask(8)) }, seed)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
