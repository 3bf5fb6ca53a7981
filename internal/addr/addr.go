// Package addr defines the address types shared by the trace generators,
// cache simulator, ownership tables, and STM runtime.
//
// Following the paper, ownership and conflicts are tracked at the
// granularity of fixed-size chunks of memory: the paper allows individual
// words or whole cache blocks, and every experiment here, the STM runtime
// included, uses 64-byte blocks. An Addr is a 64-bit virtual byte address; a
// Block is that address shifted down by the block-size exponent, i.e. the
// cache-block number.
package addr

import "fmt"

// Addr is a 64-bit virtual byte address.
type Addr uint64

// Block is a cache-block number: a byte address divided by the block size.
type Block uint64

// Standard granularities used throughout the paper.
const (
	// BlockShift is log2 of the cache-block size (64 bytes).
	BlockShift = 6
	// BlockBytes is the cache-block size used in every experiment (64 B).
	BlockBytes = 1 << BlockShift
	// WordShift is log2 of the word size on a 64-bit architecture.
	WordShift = 3
	// WordBytes is the word size (8 B).
	WordBytes = 1 << WordShift
)

// BlockOf returns the cache-block number containing a.
func BlockOf(a Addr) Block { return Block(a >> BlockShift) }

// BlockAddr returns the first byte address of block b.
func BlockAddr(b Block) Addr { return Addr(b) << BlockShift }

// String renders the address in the 0x-prefixed hex style used by the
// paper's figures.
func (a Addr) String() string { return fmt.Sprintf("0x%X", uint64(a)) }

// String renders the block's base address.
func (b Block) String() string { return BlockAddr(b).String() }

// Region describes a contiguous span of the address space, used by the
// synthetic workload generators to lay out heaps, shared tables, stacks, and
// per-thread allocation arenas.
type Region struct {
	Base Addr   // first byte of the region
	Size uint64 // size in bytes
}

// NewRegion returns a region covering [base, base+size).
func NewRegion(base Addr, size uint64) Region { return Region{Base: base, Size: size} }

// End returns the first address past the region.
func (r Region) End() Addr { return r.Base + Addr(r.Size) }

// Contains reports whether a lies inside the region.
func (r Region) Contains(a Addr) bool { return a >= r.Base && a < r.End() }

// Blocks returns the number of whole-or-partial cache blocks the region
// spans.
func (r Region) Blocks() uint64 {
	if r.Size == 0 {
		return 0
	}
	first := uint64(BlockOf(r.Base))
	last := uint64(BlockOf(r.End() - 1))
	return last - first + 1
}
