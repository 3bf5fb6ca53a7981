package otable

import "fmt"

// ConflictInfo identifies the opponent that denied an acquire: the conflict
// *target* the contention-management literature's greedy/timestamp policies
// are built on. It is extracted from the slot state word observed at the
// denying load or CAS — the same single word every acquire linearizes on —
// so producing it costs no extra synchronization, and the opponent it names
// truly held the slot at the instant the denial was decided.
//
// The word packs {mode, payload} exactly like a slot state:
//
//   - ConflictWriter denials carry the owning transaction's TxID: the one
//     opponent whose completion releases the slot.
//   - ConflictReaders denials carry the number of *foreign* read sharers
//     (the caller's own shares are subtracted out). Sharers are anonymous
//     in every table organization — a read entry stores only a count — so
//     a count is the whole sharer snapshot there is.
//
// On the tagged table the state word is generation-validated
// against the record link before it is unpacked (exactly as handles are),
// so a record that was released, reaped, and reused under a new tag can
// never leak a stale owner: the acquire re-walks instead of reporting it.
//
// The zero value (NoConflict) means "no opponent": the acquire was granted,
// or the denying state could not name one.
type ConflictInfo uint64

// NoConflict is the zero ConflictInfo: no denying opponent to report.
const NoConflict ConflictInfo = 0

// WriterConflict builds the ConflictInfo for a denial by the writing owner
// tx (Outcome ConflictWriter).
func WriterConflict(tx TxID) ConflictInfo {
	return ConflictInfo(packEntry(Write, uint32(tx)))
}

// ReadersConflict builds the ConflictInfo for a denial by n foreign read
// sharers (Outcome ConflictReaders).
func ReadersConflict(n uint32) ConflictInfo {
	return ConflictInfo(packEntry(Read, n))
}

// Valid reports whether c names an opponent. A granted acquire and the
// zero value are both invalid; every conflict outcome carries a valid info.
func (c ConflictInfo) Valid() bool { return c != NoConflict }

// Writer returns the denying writer's TxID. ok is false when the denial was
// not by a writer (reader conflict, or NoConflict). Note that the zero TxID
// is a valid transaction identity, so the boolean — not the ID — is the
// presence test.
func (c ConflictInfo) Writer() (TxID, bool) {
	m, payload := unpackEntry(uint64(c))
	if m != Write {
		return 0, false
	}
	return TxID(payload), true
}

// Readers returns the number of foreign read sharers that denied the
// acquire. ok is false when the denial was not by readers.
func (c ConflictInfo) Readers() (uint32, bool) {
	m, payload := unpackEntry(uint64(c))
	if m != Read {
		return 0, false
	}
	return payload, true
}

// String names the opponent for diagnostics.
func (c ConflictInfo) String() string {
	if tx, ok := c.Writer(); ok {
		return fmt.Sprintf("writer tx %d", tx)
	}
	if n, ok := c.Readers(); ok {
		return fmt.Sprintf("%d reader(s)", n)
	}
	return "no opponent"
}
