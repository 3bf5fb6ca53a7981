package tmds

import (
	"fmt"

	"tmbp"
	"tmbp/internal/xrand"
)

// Skiplist is a transactional ordered map from uint64 keys to uint64
// values, backed by a skiplist whose every pointer is an STM word. Point
// operations are O(log n) transactional reads; RangeScanTx traverses the
// level-0 links inside one transaction, so a scan's read footprint is a run
// of adjacent node blocks — exactly the aliasing pattern where the paper
// predicts block-granularity tables suffer birthday-paradox false
// conflicts. Phantom freedom needs no extra machinery: a scan reads every
// node it visits (including the predecessor whose next pointer a concurrent
// insert must redirect), and each read is validated against the node's
// version cell, so a splice into the scanned range that commits during the
// scan fails the scan's validation: the scan retries, serialized entirely
// before or after the splice.
//
// Tower heights are not stored in STM words: they are drawn once at
// construction from a seeded per-structure xrand stream, one height per
// node slot, and stay fixed for the slot's lifetime (nodes recycle through
// a free list, keeping their height). Two skiplists built with the same
// capacity and seed therefore have identical tower layouts, and replaying
// the same operation sequence yields bit-identical STM memory — the
// determinism contract the seeded benchmarks rely on.
//
// Word layout (indices are 1-based; 0 is the nil pointer, and also names
// the header when used as a tower origin):
//
//	header word 0: size
//	header word 1: free-list head
//	header word 2+l: head pointer at level l
//	node i occupies skipStride(levels) words at nodesBase + (i-1)*stride:
//	    +0 key
//	    +1 value
//	    +2+l next pointer at level l (l < height of slot i)
//
// The stride is whole blocks, so every node starts at the same offset in a
// block. From a block-aligned baseWord, key, value and the links of levels
// 0-5 share the node's first cache block, so a level-0 scan touches one block
// per visited node. GetTx, RangeScanTx and their descent read a node they
// reach with one Tx.ReadWords of its first-block words (a visit, see
// nodeView) — one access-set probe — and take the links they follow from
// it; links in a later block, and the header's, are read with one ReadWords
// per block as well. Free nodes chain through their level-0 link.
type Skiplist struct {
	mem       *tmbp.Memory
	size      tmbp.Addr
	free      tmbp.Addr
	hdrBase   int
	nodesBase int
	stride    int
	levels    int
	capacity  int
	head      int     // words of a node in its first block
	heights   []uint8 // fixed per-slot tower heights, drawn at construction
}

// skipMaxLevel caps tower height; 2^16 nodes per structure is far beyond
// any fixed-capacity region this package builds.
const skipMaxLevel = 16

// skipStream tags the per-structure height stream ("skip" in ASCII), so a
// Skiplist's randomness is independent of any workload stream sharing the
// seed.
const skipStream = 0x736b6970

// skipLevels returns the tower-height bound for a capacity: 1 + log2,
// the standard p=1/2 skiplist sizing, capped at skipMaxLevel.
func skipLevels(capacity int) int {
	l := 1
	for c := capacity; c > 1; c >>= 1 {
		l++
	}
	if l > skipMaxLevel {
		l = skipMaxLevel
	}
	return l
}

// skipStride returns the per-node word stride: key + value + one pointer
// per level, rounded up to whole cache blocks so logically adjacent nodes
// sit on distinct blocks (see spreadStride).
func skipStride(levels int) int {
	words := 2 + levels
	return (words + spreadStride - 1) / spreadStride * spreadStride
}

// SkiplistWords returns the memory words NewSkiplist needs for the given
// capacity: one header stride plus one stride per node.
func SkiplistWords(capacity int) int {
	return skipStride(skipLevels(capacity)) * (1 + capacity)
}

// NewSkiplist carves a Skiplist of the given capacity out of mem starting
// at baseWord, drawing tower heights from the per-structure stream of seed.
// It initializes the free list and heights with direct stores, so the
// structure must not be shared until NewSkiplist returns.
func NewSkiplist(mem *tmbp.Memory, baseWord, capacity int, seed uint64) (*Skiplist, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("tmds: skiplist capacity %d must be positive", capacity)
	}
	levels := skipLevels(capacity)
	stride := skipStride(levels)
	r, err := newRegion(mem, baseWord, SkiplistWords(capacity))
	if err != nil {
		return nil, err
	}
	hdr, err := r.take(stride)
	if err != nil {
		return nil, err
	}
	nodes, err := r.take(capacity * stride)
	if err != nil {
		return nil, err
	}
	s := &Skiplist{
		mem:       mem,
		size:      wordAddr(mem, hdr),
		free:      wordAddr(mem, hdr+1),
		hdrBase:   hdr,
		nodesBase: nodes,
		stride:    stride,
		levels:    levels,
		capacity:  capacity,
		head:      spreadStride - nodes%spreadStride,
		heights:   make([]uint8, capacity),
	}
	rng := xrand.NewWithStream(seed, skipStream)
	for i := range s.heights {
		h := 1
		for h < levels && rng.Uint64()&1 == 1 {
			h++
		}
		s.heights[i] = uint8(h)
	}
	// Chain every node into the free list through its level-0 link.
	for i := 1; i <= capacity; i++ {
		next := uint64(i + 1)
		if i == capacity {
			next = 0
		}
		mem.StoreDirect(s.nextAddr(uint64(i), 0), next)
	}
	mem.StoreDirect(s.free, 1)
	mem.StoreDirect(s.size, 0)
	for l := 0; l < levels; l++ {
		mem.StoreDirect(s.nextAddr(0, l), 0)
	}
	return s, nil
}

// Capacity returns the fixed node capacity.
func (s *Skiplist) Capacity() int { return s.capacity }

// Levels returns the tower-height bound.
func (s *Skiplist) Levels() int { return s.levels }

// keyAddr returns the address of node i's key word (i is 1-based).
func (s *Skiplist) keyAddr(i uint64) tmbp.Addr {
	return wordAddr(s.mem, s.nodesBase+int(i-1)*s.stride)
}

// valAddr returns the address of node i's value word.
func (s *Skiplist) valAddr(i uint64) tmbp.Addr {
	return wordAddr(s.mem, s.nodesBase+int(i-1)*s.stride+1)
}

// nextAddr returns the address of node i's level-l link; i == 0 addresses
// the header's head tower, whose links sit at the same +2+l offset.
func (s *Skiplist) nextAddr(i uint64, l int) tmbp.Addr {
	base := s.hdrBase
	if i != 0 {
		base = s.nodesBase + int(i-1)*s.stride
	}
	return wordAddr(s.mem, base+2+l)
}

// findPreds walks the towers inside tx and returns, per level, the last
// node with key < k (0 = header), plus the first level-0 node with
// key >= k. The preds array is returned by value — no heap traffic.
func (s *Skiplist) findPreds(tx *tmbp.Tx, k uint64) (preds [skipMaxLevel]uint64, cur uint64) {
	x := uint64(0)
	for l := s.levels - 1; l >= 0; l-- {
		for {
			n := tx.Read(s.nextAddr(x, l))
			if n == 0 || tx.Read(s.keyAddr(n)) >= k {
				break
			}
			x = n
		}
		preds[l] = x
	}
	cur = tx.Read(s.nextAddr(preds[0], 0))
	return preds, cur
}

// nodeView holds words of one node that one ReadWords read, all from one
// block: buf[:n] are the node's words from offset off on, where the key
// lies at offset 0, the value at 1 and the level-l link at 2+l.
type nodeView struct {
	buf    [spreadStride]uint64
	off, n int
}

// base returns the index of node i's word 0; node 0 is the header.
func (s *Skiplist) base(i uint64) int {
	if i == 0 {
		return s.hdrBase
	}
	return s.nodesBase + int(i-1)*s.stride
}

// visit reads into v node i's key, value and links of the levels below
// links, as far as the slot's height and the node's first block reach.
func (s *Skiplist) visit(tx *tmbp.Tx, i uint64, links int, v *nodeView) {
	v.off, v.n = 0, min(s.head, 2+min(links, int(s.heights[i-1])))
	tx.ReadWords(wordAddr(s.mem, s.base(i)), v.buf[:v.n])
}

// word returns the node's word at offset w if v holds it.
func (v *nodeView) word(w int) (uint64, bool) {
	if w < v.off || w >= v.off+v.n {
		return 0, false
	}
	return v.buf[w-v.off], true
}

// reload fills v with the links of node x that share a block with its
// level-l link, from the lowest of them up to level l — the levels below
// are the ones a descent reads next — and returns the level-l link.
func (s *Skiplist) reload(tx *tmbp.Tx, x uint64, l int, v *nodeView) uint64 {
	base, w := s.base(x), 2+l
	v.off = max(2, (base+w)&^(spreadStride-1)-base)
	v.n = w - v.off + 1
	tx.ReadWords(wordAddr(s.mem, base+v.off), v.buf[:v.n])
	return v.buf[v.n-1]
}

// value returns node i's value, from v, i's view, when it holds it.
func (s *Skiplist) value(tx *tmbp.Tx, i uint64, v *nodeView) uint64 {
	if val, ok := v.word(1); ok {
		return val
	}
	return tx.Read(s.valAddr(i))
}

// seekViews is the storage of one seek: the views of the node the walk
// stands on, of the node after it, and of the node that stopped it. Callers
// keep a zero one on their stack: the header's view is empty.
type seekViews [3]nodeView

// seek returns the first node with key >= k, walking the towers without
// recording predecessors (the read-only descent of GetTx and RangeScanTx),
// and that node's view, which lives in vs. Every node on the way is visited
// once, reading the links of the levels left to descend: the walk descends
// through the links of the node it stands on from that node's view, and the
// node that stopped one level stops the levels below it reaches again
// without another read.
func (s *Skiplist) seek(tx *tmbp.Tx, k uint64, vs *seekViews) (uint64, *nodeView) {
	at, next, found := &vs[0], &vs[1], &vs[2] // the views of x, of the node after it, and of stop
	x, stop, n := uint64(0), uint64(0), uint64(0)
	for l := s.levels - 1; l >= 0; l-- {
		for {
			var ok bool
			if n, ok = at.word(2 + l); !ok { // x's level-l link
				n = s.reload(tx, x, l, at)
			}
			if n == 0 || n == stop {
				break
			}
			s.visit(tx, n, l+1, next)
			if next.buf[0] >= k {
				stop, found, next = n, next, found
				break
			}
			x, at, next = n, next, at
		}
	}
	return n, found
}

// GetTx looks up k inside an already-running transaction.
func (s *Skiplist) GetTx(tx *tmbp.Tx, k uint64) (v uint64, ok bool) {
	var vs seekViews
	cur, cv := s.seek(tx, k, &vs)
	if cur == 0 || cv.buf[0] != k {
		return 0, false
	}
	return s.value(tx, cur, cv), true
}

// Get looks up k.
func (s *Skiplist) Get(th *tmbp.Thread, k uint64) (v uint64, ok bool, err error) {
	err = th.Atomic(func(tx *tmbp.Tx) error {
		v, ok = s.GetTx(tx, k)
		return nil
	})
	return v, ok, err
}

// PutTx inserts or updates k inside an already-running transaction,
// reporting whether the key was absent. It returns ErrFull when no free
// nodes remain; propagating that error aborts the enclosing transaction.
func (s *Skiplist) PutTx(tx *tmbp.Tx, k, v uint64) (added bool, err error) {
	preds, cur := s.findPreds(tx, k)
	if cur != 0 && tx.Read(s.keyAddr(cur)) == k {
		tx.Write(s.valAddr(cur), v)
		return false, nil
	}
	node := tx.Read(s.free)
	if node == 0 {
		return false, ErrFull
	}
	tx.Write(s.free, tx.Read(s.nextAddr(node, 0)))
	tx.Write(s.keyAddr(node), k)
	tx.Write(s.valAddr(node), v)
	// Splice at every level below the slot's fixed height. Links above the
	// height are never read: traversal only follows a node at levels it is
	// linked on.
	for l := 0; l < int(s.heights[node-1]); l++ {
		tx.Write(s.nextAddr(node, l), tx.Read(s.nextAddr(preds[l], l)))
		tx.Write(s.nextAddr(preds[l], l), node)
	}
	tx.Write(s.size, tx.Read(s.size)+1)
	return true, nil
}

// Put inserts or updates k, reporting whether the key was absent. It
// returns ErrFull when no free nodes remain.
func (s *Skiplist) Put(th *tmbp.Thread, k, v uint64) (added bool, err error) {
	err = th.Atomic(func(tx *tmbp.Tx) error {
		var e error
		added, e = s.PutTx(tx, k, v)
		return e
	})
	return added, err
}

// DeleteTx removes k inside an already-running transaction, reporting
// whether it was present.
func (s *Skiplist) DeleteTx(tx *tmbp.Tx, k uint64) (removed bool) {
	preds, cur := s.findPreds(tx, k)
	if cur == 0 || tx.Read(s.keyAddr(cur)) != k {
		return false
	}
	// cur is linked at every level below its height, and preds[l] is its
	// strict predecessor there (keys are unique), so each unsplice is one
	// pointer redirect.
	for l := 0; l < int(s.heights[cur-1]); l++ {
		tx.Write(s.nextAddr(preds[l], l), tx.Read(s.nextAddr(cur, l)))
	}
	tx.Write(s.nextAddr(cur, 0), tx.Read(s.free))
	tx.Write(s.free, cur)
	tx.Write(s.size, tx.Read(s.size)-1)
	return true
}

// Delete removes k, reporting whether it was present.
func (s *Skiplist) Delete(th *tmbp.Thread, k uint64) (removed bool, err error) {
	err = th.Atomic(func(tx *tmbp.Tx) error {
		removed = s.DeleteTx(tx, k)
		return nil
	})
	return removed, err
}

// LenTx returns the current size inside an already-running transaction.
func (s *Skiplist) LenTx(tx *tmbp.Tx) int { return int(tx.Read(s.size)) }

// Len returns the current size.
func (s *Skiplist) Len(th *tmbp.Thread) (n int, err error) {
	err = th.Atomic(func(tx *tmbp.Tx) error {
		n = s.LenTx(tx)
		return nil
	})
	return n, err
}

// MinTx returns the smallest key and its value inside an already-running
// transaction; ok is false when the map is empty.
func (s *Skiplist) MinTx(tx *tmbp.Tx) (k, v uint64, ok bool) {
	cur := tx.Read(s.nextAddr(0, 0))
	if cur == 0 {
		return 0, 0, false
	}
	return tx.Read(s.keyAddr(cur)), tx.Read(s.valAddr(cur)), true
}

// Min returns the smallest key and its value; ok is false when empty.
func (s *Skiplist) Min(th *tmbp.Thread) (k, v uint64, ok bool, err error) {
	err = th.Atomic(func(tx *tmbp.Tx) error {
		k, v, ok = s.MinTx(tx)
		return nil
	})
	return k, v, ok, err
}

// MaxTx returns the largest key and its value inside an already-running
// transaction, descending the towers in O(log n); ok is false when empty.
func (s *Skiplist) MaxTx(tx *tmbp.Tx) (k, v uint64, ok bool) {
	x := uint64(0)
	for l := s.levels - 1; l >= 0; l-- {
		for {
			n := tx.Read(s.nextAddr(x, l))
			if n == 0 {
				break
			}
			x = n
		}
	}
	if x == 0 {
		return 0, 0, false
	}
	return tx.Read(s.keyAddr(x)), tx.Read(s.valAddr(x)), true
}

// Max returns the largest key and its value; ok is false when empty.
func (s *Skiplist) Max(th *tmbp.Thread) (k, v uint64, ok bool, err error) {
	err = th.Atomic(func(tx *tmbp.Tx) error {
		k, v, ok = s.MaxTx(tx)
		return nil
	})
	return k, v, ok, err
}

// RangeScanTx visits every entry with lo <= key <= hi in ascending key
// order inside an already-running transaction, calling fn per entry. A
// non-nil error from fn stops the scan and is returned (propagating it from
// the Atomic body aborts the transaction). The whole traversal is one read
// footprint: one block per visited node plus the O(log n) descent to lo,
// each node read with one visit.
func (s *Skiplist) RangeScanTx(tx *tmbp.Tx, lo, hi uint64, fn func(k, v uint64) error) error {
	if hi < lo {
		return nil
	}
	var vs seekViews
	for cur, cv := s.seek(tx, lo, &vs); cur != 0; {
		k := cv.buf[0]
		if k > hi {
			return nil
		}
		if err := fn(k, s.value(tx, cur, cv)); err != nil {
			return err
		}
		next, ok := cv.word(2)
		if !ok {
			next = s.reload(tx, cur, 0, cv)
		}
		if cur = next; cur != 0 {
			s.visit(tx, cur, 1, cv)
		}
	}
	return nil
}

// RangeScan visits every entry in [lo, hi] atomically. fn runs inside the
// transaction and may be re-invoked from the start if the transaction
// retries — accumulate into state you reset on first call, or use the
// Tx-level form inside your own Atomic body with explicit resets.
func (s *Skiplist) RangeScan(th *tmbp.Thread, lo, hi uint64, fn func(k, v uint64) error) error {
	return th.Atomic(func(tx *tmbp.Tx) error {
		return s.RangeScanTx(tx, lo, hi, fn)
	})
}
