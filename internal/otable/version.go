package otable

import "sync/atomic"

// Version state is what Table.SampleVersion, ReleaseWriteV and StampVersion
// operate on: it lets invisible readers (internal/stm) validate by
// comparison instead of acquiring read ownership. A first-level cell — a
// tagless entry, a tagged bucket — answers two questions:
//
//   - stamp: a word of its own, the highest epoch-clock value a writer of
//     the cell has published. Only verRaise writes it, monotonically: cells
//     are shared by aliasing blocks, and a slow writer publishing an old
//     epoch after a fast one must not make the cell look older than it is.
//   - writer active: read from state acquire and release maintain anyway, so
//     no operation pays an RMW to say it. A tagless cell is its entry: a
//     writer is active exactly while the mode is Write. A bucket has a hold
//     word {writers | held records} bumped by the one Add of grant/ungrant
//     (a write grant adds both fields, an upgrade the writer field, a write
//     release subtracts both).
//
// Ordering. A writer runs
//
//	state CAS → (hold Add) → write-back → stamp raise → freeing CAS → (hold Add)
//
// and draws its stamp while it holds every write of the attempt, so the
// stamp exceeds every stamp published to the cell before the draw. The abort
// release raises nothing: memory never changed. A reader that finds the
// epoch clock moved since its snapshot (internal/stm; on a still clock one
// writer-free sample before the load is enough, and the clock vouches for the
// rest) brackets its load with two samples and accepts it when neither shows
// a writer and both return the same stamp s; a sample loads the activity
// first, the stamp second. Then, for any writer of the cell:
//
//   - gone before the second sample's activity load: it raised its stamp
//     before that, so s covers it; the first sample returned s as well, so
//     it followed a raise to at least the writer's stamp — the writer's own,
//     which follows its write-back, and the load saw all of it;
//   - arriving after the second sample's activity load: it writes back after
//     the reader's load, and its stamp, drawn later still, exceeds the first
//     sample's; had the second stamp load seen it, the samples would differ;
//   - active at either activity load: rejected.
//
// "The writer's own" holds on a tagless entry, whose writers exclude each
// other. Writers of different records of one bucket overlap: slow W and fast
// W' enter after a first sample's activity load, W' publishes the higher
// stamp and leaves, the sample loads that stamp, the reader loads W's block
// before W writes it back, and the second sample finds both gone and the
// stamp unchanged — an old value under a stamp that covers W. A bucket
// sample therefore loads the hold word again after the stamp and reports a
// writer if either load saw one: W, entered before the stamp load, is caught.
//
// Aliasing blocks share a cell's version, so an aliased commit costs the
// reader a spurious validation failure — the paper's birthday-paradox false
// sharing, at validation granularity — never a wrong value.

// verRaise raises the stamp word v to at least stamp. Stamp 0 — the
// abort-path release — publishes nothing and does not touch the word.
func verRaise(v *atomic.Uint64, stamp uint64) {
	for stamp != 0 {
		if old := v.Load(); old >= stamp || v.CompareAndSwap(old, stamp) {
			return
		}
	}
}

// cell is the version state of one tagged bucket: the stamp and the hold
// word side by side, so a sample is one hash and one cache line.
type cell struct {
	vers atomic.Uint64
	hold atomic.Uint64 // holdWriter × exclusive holds + held (Read/Write) records
}

// Hold word layout: held records in the low half, writers in the high half.
// holdGuard is the top bit of each field. The record slab caps a bucket far
// below 2^31 holds, so a set guard bit is an overflow or (a field borrowed
// below zero) an unmatched release; bump panics on it long before a carry
// could make the bucket look written forever.
const (
	holdWriter = uint64(1) << 32
	holdGuard  = uint64(1)<<31 | uint64(1)<<63
)

// bump adds delta to the hold word — the one RMW a grant or release spends
// on the bucket — and returns the resulting held-record count.
func (c *cell) bump(delta uint64) uint32 {
	n := c.hold.Add(delta)
	if n&holdGuard != 0 {
		panic("otable: bucket hold word out of range (overflow, or a release nothing matched)")
	}
	return uint32(n)
}

// held returns the bucket's held-record count.
func (c *cell) held() uint64 { return uint64(uint32(c.hold.Load())) }

// sample implements SampleVersion on a bucket: hold, stamp, hold again.
func (c *cell) sample() (stamp uint64, writerActive bool) {
	h := c.hold.Load()
	stamp = c.vers.Load()
	return stamp, h|c.hold.Load() >= holdWriter
}
