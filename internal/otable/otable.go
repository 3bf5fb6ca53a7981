// Package otable implements the ownership tables at the center of the paper:
// the metadata structure a word-based STM uses to track which transactions
// hold read and write permissions on which regions of memory.
//
// Two organizations are provided:
//
//   - Tagless (Section 2.1, Figure 1): a flat table of entries, each packing
//     {mode, owner-or-sharer-count} into one atomic word. Addresses are
//     hashed to entries and the address itself is not stored, so two
//     distinct addresses that map to the same entry are indistinguishable —
//     the source of the false conflicts the paper quantifies.
//
//   - Tagged (Section 5, Figure 7): buckets hold chains of records, each
//     carrying the address tag. Aliasing addresses get separate records, so
//     false conflicts cannot occur; the cost is tag storage and (rarely)
//     chain traversal. Chains are lock-free: heads and links are CAS-able
//     words and every acquire/release is one CAS on a record's packed state
//     word — see the Tagged type for the record lifecycle and its
//     invariants. Each record also carries its block's version stamp, so
//     invisible readers are validated per block as well (version.go). Its
//     record free lists and event counters are striped, so threads working
//     on different buckets rarely share a cache line.
//
// Both implementations are lock-free and safe for concurrent use, keep the
// statistics the experiments report, and implement the one Table interface.
// Every acquire returns a Handle, and the holder releases and upgrades
// through it only; a release without a handle panics.
//
// Accounting costs every successful operation exactly one atomic add, on a
// cache-line-padded counter block picked by the low bits of the cell index
// (see counters): the counters record events split by whether they opened
// or closed a slot (a tagless entry, a tagged record), and both Stats and
// Occupied are sums over them. docs/ARCHITECTURE.md ("Synchronisation
// budget") lists every lock-prefixed instruction each operation executes
// and what it is for.
package otable

import (
	"fmt"
	"sync/atomic"

	"tmbp/internal/addr"
	"tmbp/internal/hash"
)

// TxID identifies a transaction (equivalently, the thread executing it; the
// paper uses the terms interchangeably for ownership purposes). The zero
// value is a valid ID.
type TxID uint32

// Mode is the state of an ownership slot.
type Mode uint8

// Slot modes, matching the paper's Figure 1 entry types.
const (
	Free Mode = iota
	Read
	Write
)

// String returns the mode name as used in the paper's figures.
func (m Mode) String() string {
	switch m {
	case Free:
		return "Free"
	case Read:
		return "Read"
	case Write:
		return "Write"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// Outcome is the result of an acquire attempt.
type Outcome uint8

const (
	// Granted means the permission was newly obtained; the caller owes a
	// matching release.
	Granted Outcome = iota
	// AlreadyHeld means the transaction already had sufficient permission
	// on the slot; no new release obligation is created.
	AlreadyHeld
	// Upgraded means the transaction's read share(s) were converted to
	// exclusive write ownership; its read obligations on the slot are
	// replaced by a single write obligation.
	Upgraded
	// ConflictWriter means another transaction holds write permission.
	ConflictWriter
	// ConflictReaders means one or more other transactions hold read
	// permission, blocking a write acquire.
	ConflictReaders
)

// Conflict reports whether the outcome denied the acquire.
func (o Outcome) Conflict() bool { return o == ConflictWriter || o == ConflictReaders }

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Granted:
		return "Granted"
	case AlreadyHeld:
		return "AlreadyHeld"
	case Upgraded:
		return "Upgraded"
	case ConflictWriter:
		return "ConflictWriter"
	case ConflictReaders:
		return "ConflictReaders"
	default:
		return fmt.Sprintf("Outcome(%d)", uint8(o))
	}
}

// Table is the one interface of the ownership table organizations: identity
// and slotting, handle-carrying acquire and release, the per-cell version
// state of the invisible-reader protocol (see version.go), and accounting.
// Every built-in table implements all of it, and so does every wrapper
// (fault.Injector, the tracing and recording tables of the benchmark and
// tests), so a consumer never probes for optional capabilities.
//
// Callers are responsible for tracking their own holdings per slot (see
// Footprint): AcquireWriteH must be told how many read shares the calling
// transaction already holds on the target slot so that read→write upgrades
// can be distinguished from reader conflicts — the tagless table cannot know
// who its anonymous sharers are.
//
// All implementations are lock-free: every acquire and release linearizes
// at a single compare-and-swap on the slot's state word, so a denied
// outcome reflects a state that truly existed at that instant, and an
// acquire that raced a release observes one side of the CAS order or the
// other — never a torn intermediate. Callers may therefore release from
// commit paths while other transactions spin on acquires of the same slot;
// the acquirer that wins the post-release state sees every memory write the
// releaser published before releasing, provided the releaser wrote before
// calling the release (the STM's write-back-then-release commit order).
//
// Every release, and every upgrade (AcquireWriteH with heldReads > 0), goes
// through the Handle the permission's acquire returned, and panics before
// it touches any state if that handle does not name the caller's hold. Only
// a write acquire from a caller holding no share locates the slot from the
// block.
type Table interface {
	// Kind returns "tagless" or "tagged".
	Kind() string
	// N returns the number of first-level entries.
	N() uint64
	// SlotOf returns the slot key for a block: the table entry index for
	// tagless tables (aliasing blocks share a slot) and the block number
	// itself for tagged tables (every block has its own slot).
	SlotOf(b addr.Block) uint64
	// SlotsAreBlocks reports SlotOf(b) == uint64(b) for every block b: every
	// block is its own slot, so distinct chunks can never share a release
	// obligation. The STM then skips the per-access slot-aliasing
	// bookkeeping that only tagless tables need — one probe of the thread's
	// access set resolves both membership and slot ownership.
	SlotsAreBlocks() bool

	// AcquireReadH requests shared permission on b for tx and returns the
	// handle of the granted record. On a denial the ConflictInfo names the
	// opponent observed at the denying state word and the handle is
	// NoHandle; the ConflictInfo is NoConflict on success.
	AcquireReadH(tx TxID, b addr.Block) (Outcome, ConflictInfo, Handle)
	// AcquireWriteH requests exclusive permission on b for tx. heldReads is
	// the number of read shares tx currently holds on SlotOf(b). With
	// heldReads > 0 the acquire is an upgrade and h must be the handle of
	// those shares; it panics on NoHandle. With heldReads 0 the slot is
	// located from b and h is ignored. On a denial the ConflictInfo names
	// the opponent (the owning writer, or the foreign-sharer count).
	AcquireWriteH(tx TxID, b addr.Block, heldReads uint32, h Handle) (Outcome, ConflictInfo, Handle)
	// ReleaseReadH returns one read share on the slot h names. It panics if
	// h is NoHandle or its slot holds no read permission (a caller
	// bookkeeping bug).
	ReleaseReadH(tx TxID, b addr.Block, h Handle)
	// ReleaseWriteH returns write ownership of the slot h names without
	// publishing a version stamp; it panics if h is NoHandle or tx is not
	// the writer of record. Only fault.Injector forwards it outside tests:
	// it is kept for the frozen benchmark/ module.
	ReleaseWriteH(tx TxID, b addr.Block, h Handle)
	// ReleaseWriteV is ReleaseWriteH plus version publication: it raises
	// b's cell stamp to at least stamp, then releases the ownership exactly
	// as ReleaseWriteH would. Commit paths of a runtime with invisible
	// readers must use it (after write-back) in place of ReleaseWriteH.
	// Stamp 0 publishes nothing, so ReleaseWriteV(tx, b, h, 0) is
	// ReleaseWriteH(tx, b, h): the STM releases both ways through it.
	ReleaseWriteV(tx TxID, b addr.Block, h Handle, stamp uint64)

	// SampleVersion returns the cell's current commit stamp and whether any
	// writer holds exclusive ownership of b's cell — the tagless entry b
	// hashes to, or b's own tagged record. One hash, then loads only: writer
	// activity first (the entry or record state word), then the stamp — the
	// order version.go's argument rests on. A tagged block with no record
	// answers with its bucket's floor and no writer.
	SampleVersion(b addr.Block) (stamp uint64, writerActive bool)
	// StampVersion raises b's cell stamp without touching ownership. No
	// runtime path calls it (commit publishes through ReleaseWriteV), and
	// only fault.Injector forwards it outside tests: it is kept for the
	// frozen benchmark/ module.
	StampVersion(b addr.Block, stamp uint64)

	// Occupied returns the number of held slots: non-free tagless entries,
	// or held tagged records (the occupancy measure used for the paper's
	// Figure 6(b) compensation).
	Occupied() uint64
	// Stats returns a snapshot of the operation counters.
	Stats() Stats
	// Reset returns the table to empty and zeroes its statistics. Not safe
	// to call concurrently with other operations.
	Reset()
}

// HandleTable, VersionTable and BlockSlotted were optional faces of Table
// before the interface was unified. The frozen benchmark/ module still
// spells them; they go when it next changes.
type (
	// Deprecated: use Table.
	HandleTable = Table
	// Deprecated: use Table.
	VersionTable = Table
	// Deprecated: use Table.
	BlockSlotted = Table
)

// Handle names the table location backing a granted permission, and is the
// only way to name it: the holder releases or upgrades through it, never
// re-locating the slot. It is the record link {generation, slab index} for
// the tagged table and the entry index (plus one) for the tagless table.
// NoHandle names nothing; a release or upgrade given it panics.
//
// A handle is only meaningful to the table that issued it, only names the
// record incarnation it was issued under, and carries no permission of its
// own: the permission lives in the slot state. Tagged-table handles are
// generation-validated. A holder's shares or write pin its record under the
// handle's generation, because reaping condemns only free records, so a
// stale handle (the record was reaped and its slab slot reused) always
// means a caller bookkeeping bug, and the operation panics without touching
// the record's new incarnation.
type Handle uint64

// NoHandle is the zero Handle: it names no table location.
const NoHandle Handle = 0

// noHandle panics on a release or upgrade that names no handle. It is kept
// out of line so that the tagless entryOf stays cheap enough to inline.
//
//go:noinline
func noHandle(op string, tx TxID, b addr.Block) {
	panic(fmt.Sprintf("otable: %s by tx %d on block %v names no handle", op, tx, b))
}

// Stats is a snapshot of table operation counters.
type Stats struct {
	ReadAcquires  uint64 // successful read acquires (Granted or AlreadyHeld)
	WriteAcquires uint64 // successful write acquires (Granted, AlreadyHeld, or Upgraded)
	Upgrades      uint64 // read→write upgrades
	Conflicts     uint64 // denied acquires
	Releases      uint64 // release operations
	ReleaseWalks  uint64 // always 0: no release walks a chain; kept only for the frozen benchmark/ module
	ChainFollows  uint64 // tagged only: records traversed past a bucket head, in any state (physical walk cost)
	MaxChain      uint64 // tagged only: maximum bucket chain length observed
}

// counterStripes is the number of counter blocks a table spreads its
// accounting over (a power of two). An operation on first-level cell idx
// counts into block idx&(counterStripes-1), so threads working on different
// cells rarely write the same accounting line.
const counterStripes = 8

// counterBlock is one stripe of the event counters behind Stats and
// Occupied, padded to two cache lines so neighboring stripes never
// false-share. Every successful operation bumps exactly one of its words:
// acquires and releases are split by whether they opened (respectively
// closed) the slot — a tagless entry or a tagged record — taking it from no
// holder to one, or back, so occupancy is opens minus closes and needs no
// word of its own.
type counterBlock struct {
	readOpens, reads   atomic.Uint64 // successful read acquires that did / did not open the cell
	writeOpens, writes atomic.Uint64 // write grants (Granted or AlreadyHeld) that did / did not open it
	upgrades           atomic.Uint64 // read→write upgrades; also write acquires in Stats
	conflicts          atomic.Uint64
	closes, releases   atomic.Uint64 // releases that did / did not close the cell
	chainFollows       atomic.Uint64
	maxChain           atomic.Uint64
	_                  [48]byte
}

// counters is the striped implementation behind Stats and Occupied. Tables
// keep it as their first field: the allocator aligns an object this large
// to a multiple of 128 bytes, which is what makes the blocks' padding
// line up with cache lines.
type counters [counterStripes]counterBlock

// at returns the counter block for first-level cell idx.
func (c *counters) at(idx uint64) *counterBlock { return &c[idx&(counterStripes-1)] }

func (c *counters) snapshot() Stats {
	var s Stats
	for i := range c {
		b := &c[i]
		up := b.upgrades.Load()
		s.ReadAcquires += b.readOpens.Load() + b.reads.Load()
		s.WriteAcquires += b.writeOpens.Load() + b.writes.Load() + up
		s.Upgrades += up
		s.Conflicts += b.conflicts.Load()
		s.Releases += b.closes.Load() + b.releases.Load()
		s.ChainFollows += b.chainFollows.Load()
		if m := b.maxChain.Load(); m > s.MaxChain {
			s.MaxChain = m
		}
	}
	return s
}

// occupied returns opens minus closes: the number of slots with at least
// one holder. A slot's close is counted after its open, in the same block,
// so loading each block's closes first keeps a concurrent reading from
// going negative; it is exact whenever the table is quiescent.
func (c *counters) occupied() uint64 {
	var closes, opens uint64
	for i := range c {
		b := &c[i]
		closes += b.closes.Load()
		opens += b.readOpens.Load() + b.writeOpens.Load()
	}
	return opens - closes
}

func (c *counters) reset() { *c = counters{} }

func (b *counterBlock) observeChain(n uint64) {
	for {
		cur := b.maxChain.Load()
		if n <= cur || b.maxChain.CompareAndSwap(cur, n) {
			return
		}
	}
}

// New constructs a table by kind name ("tagless" or "tagged") over the given
// hash function. "sharded" is a deprecated alias of "tagged", not listed in
// Kinds: the frozen benchmark/ module still names it; it goes when that
// module next changes.
func New(kind string, h hash.Func) (Table, error) {
	switch kind {
	case "tagless":
		return NewTagless(h), nil
	case "tagged", "sharded":
		return NewTagged(h), nil
	default:
		return nil, fmt.Errorf("otable: unknown table kind %q (want tagless or tagged)", kind)
	}
}

// Kinds lists the available table organizations.
func Kinds() []string { return []string{"tagless", "tagged"} }
