package trace

import (
	"fmt"

	"tmbp/internal/addr"
	"tmbp/internal/xrand"
)

// WarehouseConfig describes the SPECJBB-like multithreaded workload whose
// per-thread address streams drive the Figure 2 aliasing study.
//
// Memory layout (all sizes in bytes):
//
//	[ shared tables ]           one region, read-mostly, touched by all threads
//	[ arena 0 ][ arena 1 ] ...  per-thread heaps at ArenaAlign boundaries
//
// Two properties matter for the study and are modeled explicitly:
//
//   - Object locality: accesses touch runs of consecutive blocks (Java
//     objects of a few cache lines), so a stream's footprint lands in the
//     ownership table as short runs rather than isolated entries.
//   - Arena alignment: every thread's arena starts at a multiple of
//     ArenaAlign, and a small set of hot "header" blocks lives at the same
//     small offsets in every arena (allocation metadata, per-warehouse
//     counters). Under the stride-preserving mask hash, equal offsets in
//     different arenas collide in the ownership table for any table of up
//     to ArenaAlign/64 entries — the mechanism behind the alias-rate
//     asymptote at very large tables (Figure 2(b)).
type WarehouseConfig struct {
	// Threads is the number of warehouse threads (paper: 4 warehouses).
	Threads int
	// ArenaAlign is the alignment and maximum size of each thread arena.
	// Default 16 MiB: collisions persist up to 256k-entry tables.
	ArenaAlign uint64
	// SharedBytes is the size of the shared read-mostly region. Default 4 MiB.
	SharedBytes uint64
	// MeanObjectBlocks is the mean object size in cache blocks (geometric).
	// Default 4.
	MeanObjectBlocks int
	// LiveObjects is the per-thread pool of recently used objects available
	// for reuse. Default 128.
	LiveObjects int
	// PNewObject is the probability an access targets a newly allocated
	// object rather than reusing a live one. Default 0.30.
	PNewObject float64
	// PShared is the probability an access goes to the shared region
	// (these become true conflicts, filtered by the study). Default 0.04.
	PShared float64
	// PHeader is the probability an access touches one of the arena-header
	// blocks at fixed offsets. Default 0.006. Because headers sit at the
	// *same* offsets in every (aligned) arena, they alias under the mask
	// hash at any table size up to ArenaAlign/64 entries — the calibrated
	// source of Figure 2(b)'s large-table asymptote.
	PHeader float64
	// HeaderBlocks is the number of hot header blocks per arena. Default 16.
	HeaderBlocks int
	// StartSpreadBlocks randomizes each thread's initial allocation offset
	// within its arena, so ordinary objects do NOT structurally alias
	// across threads (real heaps' layouts drift apart). Default 131072
	// (half a 16 MiB arena).
	StartSpreadBlocks int
	// PJump is the per-allocation probability that the allocation pointer
	// jumps to a fresh random offset, modeling GC compaction/TLAB churn;
	// it decorrelates the relative layout of threads over time. Default
	// 0.01.
	PJump float64
	// WriteFraction is the probability any access is a write. Default 1/3.
	WriteFraction float64
	// ZipfS is the skew of live-object reuse popularity. Default 1.1.
	ZipfS float64
}

// DefaultWarehouse returns the configuration used by the Figure 2
// reproduction: 4 threads over 16 MiB arenas.
func DefaultWarehouse(threads int) WarehouseConfig {
	return WarehouseConfig{Threads: threads}
}

func (c WarehouseConfig) withDefaults() WarehouseConfig {
	if c.ArenaAlign == 0 {
		c.ArenaAlign = 16 << 20
	}
	if c.SharedBytes == 0 {
		c.SharedBytes = 4 << 20
	}
	if c.MeanObjectBlocks == 0 {
		c.MeanObjectBlocks = 4
	}
	if c.LiveObjects == 0 {
		c.LiveObjects = 128
	}
	if c.PNewObject == 0 {
		c.PNewObject = 0.30
	}
	if c.PShared == 0 {
		c.PShared = 0.04
	}
	if c.PHeader == 0 {
		c.PHeader = 0.006
	}
	if c.HeaderBlocks == 0 {
		c.HeaderBlocks = 16
	}
	if c.StartSpreadBlocks == 0 {
		c.StartSpreadBlocks = 131072
	}
	if c.PJump == 0 {
		c.PJump = 0.01
	}
	if c.WriteFraction == 0 {
		c.WriteFraction = 1.0 / 3
	}
	if c.ZipfS == 0 {
		c.ZipfS = 1.1
	}
	return c
}

func (c WarehouseConfig) validate() error {
	if c.Threads < 1 {
		return fmt.Errorf("trace: warehouse threads = %d must be >= 1", c.Threads)
	}
	if c.ArenaAlign&(c.ArenaAlign-1) != 0 {
		return fmt.Errorf("trace: ArenaAlign %d must be a power of two", c.ArenaAlign)
	}
	return nil
}

// object is a run of consecutive blocks in a thread arena.
type object struct {
	start  addr.Block
	blocks int
}

// WarehouseThread is one thread's address stream.
type WarehouseThread struct {
	cfg        WarehouseConfig
	id         int
	rng        *xrand.Rand
	zipf       *xrand.Zipf
	sharedZipf *xrand.Zipf // skewed popularity of shared-region blocks
	arena      addr.Region
	shared     addr.Region
	next       addr.Block // arena allocation pointer (block-granular)
	arenaEnd   addr.Block
	live       []object // most-recent first
	cur        object   // object being walked
	curPos     int      // next block within cur
}

// NewWarehouse builds the per-thread streams of one warehouse workload.
// Streams derived from the same seed share the layout but have independent
// per-thread randomness.
func NewWarehouse(cfg WarehouseConfig, seed uint64) ([]*WarehouseThread, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	threads := make([]*WarehouseThread, cfg.Threads)
	shared := addr.NewRegion(0, cfg.SharedBytes)
	for i := range threads {
		arenaBase := addr.Addr(uint64(i+1) * cfg.ArenaAlign)
		sharedBlocks := int(shared.Blocks())
		if sharedBlocks > 4096 {
			sharedBlocks = 4096
		}
		th := &WarehouseThread{
			cfg:  cfg,
			id:   i,
			rng:  xrand.NewWithStream(seed, uint64(i)),
			zipf: xrand.NewZipf(cfg.LiveObjects, cfg.ZipfS),
			// Shared tables have hot entries touched by every thread:
			// skewed popularity makes true sharing (and hence the
			// true-conflict filter) actually exercise, as in SPECJBB's
			// shared warehouse structures.
			sharedZipf: xrand.NewZipf(sharedBlocks, 1.2),
			arena:      addr.NewRegion(arenaBase, cfg.ArenaAlign),
			shared:     shared,
		}
		th.arenaEnd = addr.BlockOf(arenaBase + addr.Addr(cfg.ArenaAlign) - 1)
		th.jumpAllocation()
		// Seed the live-object pool so reuse works from the first access.
		for j := 0; j < cfg.LiveObjects/8; j++ {
			th.live = append(th.live, th.allocate())
		}
		threads[i] = th
	}
	return threads, nil
}

// ID returns the thread index.
func (th *WarehouseThread) ID() int { return th.id }

// Arena returns the thread's heap region.
func (th *WarehouseThread) Arena() addr.Region { return th.arena }

// jumpAllocation moves the allocation pointer to a fresh random offset
// inside the arena (past the header blocks), as a compacting GC or a new
// TLAB would.
func (th *WarehouseThread) jumpAllocation() {
	spread := th.cfg.StartSpreadBlocks
	maxSpread := int(th.arenaEnd-addr.BlockOf(th.arena.Base)) - th.cfg.HeaderBlocks - 64
	if spread > maxSpread {
		spread = maxSpread
	}
	th.next = addr.BlockOf(th.arena.Base) + addr.Block(th.cfg.HeaderBlocks+th.rng.Intn(spread))
}

// allocate carves a new object from the arena, wrapping when exhausted
// (long-running warehouses recycle their heap space, as a GC would) and
// occasionally jumping to a new offset (compaction/TLAB churn), which keeps
// different threads' layouts decorrelated over time.
func (th *WarehouseThread) allocate() object {
	// Geometric with mean MeanObjectBlocks (support >= 1).
	size := 1 + th.rng.Geometric(1/float64(th.cfg.MeanObjectBlocks))
	if size > 16 {
		size = 16
	}
	if th.rng.Float64() < th.cfg.PJump || th.next+addr.Block(size) > th.arenaEnd {
		th.jumpAllocation()
	}
	o := object{start: th.next, blocks: size}
	th.next += addr.Block(size)
	return o
}

// pickObject selects the next object to walk: new allocation, shared-table
// run, header block, or Zipf-reuse of a live object.
func (th *WarehouseThread) pickObject() object {
	r := th.rng.Float64()
	switch {
	case r < th.cfg.PShared:
		// A run inside the shared region (true sharing across threads),
		// with hot-entry skew.
		start := addr.BlockOf(th.shared.Base) + addr.Block(th.sharedZipf.Sample(th.rng))
		return object{start: start, blocks: 1 + th.rng.Intn(2)}
	case r < th.cfg.PShared+th.cfg.PHeader:
		// One of the arena-header blocks: same offset in every arena.
		off := th.rng.Intn(th.cfg.HeaderBlocks)
		return object{start: addr.BlockOf(th.arena.Base) + addr.Block(off), blocks: 1}
	case r < th.cfg.PShared+th.cfg.PHeader+th.cfg.PNewObject:
		o := th.allocate()
		th.retain(o)
		return o
	default:
		if len(th.live) == 0 {
			o := th.allocate()
			th.retain(o)
			return o
		}
		idx := th.zipf.Sample(th.rng)
		if idx >= len(th.live) {
			idx = th.rng.Intn(len(th.live))
		}
		return th.live[idx]
	}
}

// retain records a new object at the hot end of the live pool.
func (th *WarehouseThread) retain(o object) {
	if len(th.live) < th.cfg.LiveObjects {
		th.live = append(th.live, object{})
	}
	copy(th.live[1:], th.live)
	th.live[0] = o
}

// Next implements Stream: it walks the current object block by block,
// picking a fresh object when the walk completes.
func (th *WarehouseThread) Next() Access {
	if th.curPos >= th.cur.blocks {
		th.cur = th.pickObject()
		th.curPos = 0
	}
	b := th.cur.start + addr.Block(th.curPos)
	th.curPos++
	return Access{
		Block:  b,
		Write:  th.rng.Float64() < th.cfg.WriteFraction,
		Instrs: 1,
	}
}

var _ Stream = (*WarehouseThread)(nil)
