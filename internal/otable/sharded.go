package otable

import (
	"fmt"
	"runtime"

	"tmbp/internal/addr"
	"tmbp/internal/hash"
)

// Sharded is a scalable ownership table: S independently synchronized
// sub-tables ("shards"), each internally a tagged chaining table over an
// N/S-entry slice of the index space. The global hash still spreads blocks
// over all N first-level entries; the high bits of the hashed index select
// the shard and the low bits the bucket within it, so the organization is
// index-preserving — a block lands in exactly the bucket it would occupy in
// one flat N-entry tagged table.
//
// What sharding buys is isolation, not a different conflict model: records
// carry tags, so false conflicts remain impossible, and the paper's
// per-table sizing rule (Eq. 8) applies to the aggregate N exactly as for
// the flat tagged table. The tagged sub-tables are already lock-free, so
// within one shard threads only ever contend on the CAS words of the
// bucket and record they actually touch; sharding additionally makes every
// record slab, free-list stripe and event-counter block private to a
// shard, so S threads touching different shards share no
// synchronization state at all and the residual cache-line ping-pong of a
// single table drops by roughly a factor of S.
type Sharded struct {
	h      hash.Func
	shards []*Tagged
	// perShardBits is log2(N/S): the hashed index's low bits address a
	// bucket within a shard, the remaining high bits select the shard.
	perShardBits uint
	perShardMask uint64
}

// shardHash restricts a parent hash to one shard's bucket range by keeping
// only the low per-shard bits of the parent index. Each shard's Tagged table
// sees a consistent hash over its own N/S buckets.
type shardHash struct {
	parent hash.Func
	mask   uint64
	n      uint64
}

func (s shardHash) Index(b addr.Block) uint64 { return s.parent.Index(b) & s.mask }
func (s shardHash) N() uint64                 { return s.n }
func (s shardHash) Name() string              { return s.parent.Name() + "+shard" }

// DefaultShards picks a shard count for a table of n entries: the smallest
// power of two covering 2×GOMAXPROCS (so threads rarely collide on a shard
// even under uniform load), clamped to n.
func DefaultShards(n uint64) uint64 {
	want := uint64(2 * runtime.GOMAXPROCS(0))
	s := uint64(1)
	for s < want {
		s <<= 1
	}
	if s > n {
		s = n
	}
	return s
}

// NewSharded builds a sharded tagged table with the given shard count, which
// must be a power of two in [1, h.N()]. The aggregate first-level entry
// count is h.N(), split evenly across shards.
func NewSharded(h hash.Func, shards uint64) (*Sharded, error) {
	n := h.N()
	if shards == 0 || shards&(shards-1) != 0 {
		return nil, fmt.Errorf("otable: shard count %d is not a positive power of two", shards)
	}
	if shards > n {
		return nil, fmt.Errorf("otable: shard count %d exceeds table entries %d", shards, n)
	}
	perShard := n / shards
	bits := uint(0)
	for v := perShard; v > 1; v >>= 1 {
		bits++
	}
	t := &Sharded{
		h:            h,
		shards:       make([]*Tagged, shards),
		perShardBits: bits,
		perShardMask: perShard - 1,
	}
	sh := shardHash{parent: h, mask: t.perShardMask, n: perShard}
	for i := range t.shards {
		t.shards[i] = NewTagged(sh)
	}
	return t, nil
}

// Kind implements Table.
func (t *Sharded) Kind() string { return "sharded" }

// N implements Table: the aggregate first-level entry count across shards.
func (t *Sharded) N() uint64 { return t.h.N() }

// Hash returns the global address-to-index hash function.
func (t *Sharded) Hash() hash.Func { return t.h }

// Shards returns the shard count.
func (t *Sharded) Shards() int { return len(t.shards) }

// SlotOf implements Table: like the tagged table, every block is its own
// slot — records are per-block, so aliasing blocks never conflict.
func (t *Sharded) SlotOf(b addr.Block) uint64 { return uint64(b) }

// SlotsAreBlocks implements Table: SlotOf is the identity.
func (t *Sharded) SlotsAreBlocks() bool { return true }

// ShardOf returns the shard index block b routes to: the high bits of its
// hashed table index.
func (t *Sharded) ShardOf(b addr.Block) uint64 { return t.h.Index(b) >> t.perShardBits }

// locate hashes b once and splits the index: high bits pick the shard, low
// bits the bucket within it. The shard's internal *At operations take the
// bucket directly, so the sharded hot path hashes exactly once — same as
// the flat tagged table.
func (t *Sharded) locate(b addr.Block) (*Tagged, uint64) {
	idx := t.h.Index(b)
	return t.shards[idx>>t.perShardBits], idx & t.perShardMask
}

// AcquireReadH implements Table. Handles are issued by — and only
// meaningful within — the shard the block routes to; since the route is a
// pure function of the block, a handle presented with the same block
// always reaches the shard that issued it.
func (t *Sharded) AcquireReadH(tx TxID, b addr.Block) (Outcome, ConflictInfo, Handle) {
	s, bucket := t.locate(b)
	out, ci, h := s.acquireReadAt(bucket, tx, b)
	return out, ci, Handle(h)
}

// AcquireWriteH implements Table.
func (t *Sharded) AcquireWriteH(tx TxID, b addr.Block, heldReads uint32, h Handle) (Outcome, ConflictInfo, Handle) {
	s, bucket := t.locate(b)
	if h != NoHandle && heldReads > 0 {
		if out, ci, ok := s.upgradeByHandle(bucket, tx, heldReads, uint64(h)); ok {
			return out, ci, h
		}
	}
	out, ci, link := s.acquireWriteAt(bucket, tx, b, heldReads)
	return out, ci, Handle(link)
}

// ReleaseReadH implements Table.
func (t *Sharded) ReleaseReadH(tx TxID, b addr.Block, h Handle) {
	s, bucket := t.locate(b)
	s.releaseReadHAt(bucket, tx, b, h)
}

// ReleaseWriteH implements Table.
func (t *Sharded) ReleaseWriteH(tx TxID, b addr.Block, h Handle) {
	s, bucket := t.locate(b)
	s.releaseWriteAt(bucket, tx, b, h, 0)
}

// SampleVersion implements Table: one global hash locates the shard
// and bucket, whose cell is sampled as in the flat tagged table.
func (t *Sharded) SampleVersion(b addr.Block) (uint64, bool) {
	s, bucket := t.locate(b)
	return s.cells[bucket].sample()
}

// ReleaseWriteV implements Table.
func (t *Sharded) ReleaseWriteV(tx TxID, b addr.Block, h Handle, stamp uint64) {
	s, bucket := t.locate(b)
	s.releaseWriteAt(bucket, tx, b, h, stamp)
}

// StampVersion implements Table.
func (t *Sharded) StampVersion(b addr.Block, stamp uint64) {
	s, bucket := t.locate(b)
	verRaise(&s.cells[bucket].vers, stamp)
}

// Occupied implements Table: the sum of per-shard non-empty bucket counts.
func (t *Sharded) Occupied() uint64 {
	var occ uint64
	for _, s := range t.shards {
		occ += s.Occupied()
	}
	return occ
}

// Records returns the number of live ownership records across all shards.
func (t *Sharded) Records() uint64 {
	var n uint64
	for _, s := range t.shards {
		n += s.Records()
	}
	return n
}

// Stats implements Table: per-shard counters are summed; MaxChain is the
// maximum over shards.
func (t *Sharded) Stats() Stats {
	var agg Stats
	for _, s := range t.shards {
		st := s.Stats()
		agg.ReadAcquires += st.ReadAcquires
		agg.WriteAcquires += st.WriteAcquires
		agg.Upgrades += st.Upgrades
		agg.Conflicts += st.Conflicts
		agg.Releases += st.Releases
		agg.ReleaseWalks += st.ReleaseWalks
		agg.ChainFollows += st.ChainFollows
		agg.Records += st.Records
		if st.MaxChain > agg.MaxChain {
			agg.MaxChain = st.MaxChain
		}
	}
	return agg
}

// ShardStats returns each shard's counter snapshot, indexed by shard. The
// spread across shards is the load-balance diagnostic the scale experiment
// reports.
func (t *Sharded) ShardStats() []Stats {
	out := make([]Stats, len(t.shards))
	for i, s := range t.shards {
		out[i] = s.Stats()
	}
	return out
}

// ShardOccupancy returns each shard's non-empty bucket count.
func (t *Sharded) ShardOccupancy() []uint64 {
	out := make([]uint64, len(t.shards))
	for i, s := range t.shards {
		out[i] = s.Occupied()
	}
	return out
}

// Reset implements Table.
func (t *Sharded) Reset() {
	for _, s := range t.shards {
		s.Reset()
	}
}
