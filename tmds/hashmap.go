package tmds

import (
	"fmt"
	"math/bits"

	"tmbp"
)

// Map is a transactional open-addressing hash map from uint64 keys to
// uint64 values, with linear probing and tombstone deletion. Unlike the
// List, lookups touch only a handful of blocks regardless of size, so Map
// operations model the small transactions a hybrid TM would keep in
// hardware.
//
// Region layout: one reserved block, then the buckets, bucket i on its own
// cache block. The reserved block holds nothing, so no transaction touches
// it; it keeps the region at 8·(1+buckets) words and the buckets where
// KeyedWords and callers that size a region that way expect them.
//
//	+0 tag: 0 = empty, 1 = tombstone, otherwise key+2
//	+1 value
//	+2 stripe counter, on each group's first bucket only (see below)
//
// The size is striped. The buckets split into S = min(buckets, 64) groups
// of buckets/S consecutive buckets, and word +2 of a group's first bucket
// counts the live tags in that group. A put of a new key increments the
// stripe of the bucket the key lands in, a delete decrements the stripe of
// the bucket it tombstones, and an overwrite touches none. So two
// size-changing transactions conflict only when their buckets share a
// group, rather than always, as they would over one size word. LenTx sums
// the S stripes: still exact and linearizable, at S transactional reads.
// One false-by-granularity conflict remains: a size change also writes its
// group's first bucket block, so it conflicts with any transaction that
// touches that bucket, whatever key the bucket holds.
type Map struct {
	mem         *tmbp.Memory
	bucketsBase int
	buckets     uint64
	groupShift  uint // log2 of the buckets per stripe group
}

// mapStripes caps the number of stripe counters: a Map with more buckets
// than this groups them.
const mapStripes = 64

const (
	mapEmpty     = 0
	mapTombstone = 1
	mapKeyBias   = 2
)

// NewMap carves a Map with the given power-of-two bucket count out of mem
// at baseWord. Like all tmds constructors it initializes with direct
// stores.
func NewMap(mem *tmbp.Memory, baseWord int, buckets uint64) (*Map, error) {
	if buckets == 0 || buckets&(buckets-1) != 0 {
		return nil, fmt.Errorf("tmds: bucket count %d is not a power of two", buckets)
	}
	r, err := newRegion(mem, baseWord, spreadStride+int(buckets)*spreadStride)
	if err != nil {
		return nil, err
	}
	if _, err := r.take(spreadStride); err != nil { // the reserved block
		return nil, err
	}
	base, err := r.take(int(buckets) * spreadStride)
	if err != nil {
		return nil, err
	}
	m := &Map{mem: mem, bucketsBase: base, buckets: buckets,
		groupShift: uint(bits.TrailingZeros64(buckets / min(buckets, mapStripes)))}
	for i := uint64(0); i < buckets; i++ {
		mem.StoreDirect(m.tagAddr(i), mapEmpty)
		mem.StoreDirect(m.stripeAddr(i), 0)
	}
	return m, nil
}

// Buckets returns the fixed bucket count.
func (m *Map) Buckets() uint64 { return m.buckets }

func (m *Map) tagAddr(i uint64) tmbp.Addr {
	return wordAddr(m.mem, m.bucketsBase+int(i)*spreadStride)
}

func (m *Map) valAddr(i uint64) tmbp.Addr {
	return wordAddr(m.mem, m.bucketsBase+int(i)*spreadStride+1)
}

// stripeAddr is the address of the stripe counter covering bucket i: word
// +2 of the first bucket of i's group.
func (m *Map) stripeAddr(i uint64) tmbp.Addr {
	first := i >> m.groupShift << m.groupShift
	return wordAddr(m.mem, m.bucketsBase+int(first)*spreadStride+2)
}

// addStripe adds d to the stripe counter covering bucket i.
func (m *Map) addStripe(tx *tmbp.Tx, i, d uint64) {
	s := m.stripeAddr(i)
	tx.Write(s, tx.Read(s)+d)
}

// land stores a new key's tag and value in bucket i and counts it in i's
// stripe.
func (m *Map) land(tx *tmbp.Tx, i, tag, v uint64) {
	tx.Write(m.tagAddr(i), tag)
	tx.Write(m.valAddr(i), v)
	m.addStripe(tx, i, 1)
}

// slot hashes k to its initial probe position (Fibonacci multiplicative).
func (m *Map) slot(k uint64) uint64 {
	return (k * 0x9e3779b97f4a7c15) & (m.buckets - 1)
}

// PutTx stores k→v inside an already-running transaction, reporting
// whether the key was new. A full table returns ErrFull, which aborts the
// enclosing transaction when propagated. The Tx-level operations exist so
// one transaction can compose several structure operations — the shape the
// Keyed workload face (workload.go) drives.
func (m *Map) PutTx(tx *tmbp.Tx, k, v uint64) (added bool, err error) {
	tag := k + mapKeyBias
	firstFree := uint64(m.buckets) // sentinel: none seen
	for probe := uint64(0); probe < m.buckets; probe++ {
		i := (m.slot(k) + probe) & (m.buckets - 1)
		switch got := tx.Read(m.tagAddr(i)); got {
		case tag:
			tx.Write(m.valAddr(i), v)
			return false, nil
		case mapTombstone:
			if firstFree == m.buckets {
				firstFree = i
			}
		case mapEmpty:
			if firstFree == m.buckets {
				firstFree = i
			}
			// An empty bucket terminates the probe chain: the key is
			// definitively absent.
			m.land(tx, firstFree, tag, v)
			return true, nil
		}
	}
	if firstFree != m.buckets {
		m.land(tx, firstFree, tag, v)
		return true, nil
	}
	return false, ErrFull
}

// Put stores k→v, reporting whether the key was new. A full table returns
// ErrFull.
func (m *Map) Put(th *tmbp.Thread, k, v uint64) (added bool, err error) {
	err = th.Atomic(func(tx *tmbp.Tx) error {
		var e error
		added, e = m.PutTx(tx, k, v)
		return e
	})
	return added, err
}

// GetTx returns the value for k inside an already-running transaction.
func (m *Map) GetTx(tx *tmbp.Tx, k uint64) (v uint64, ok bool) {
	tag := k + mapKeyBias
	for probe := uint64(0); probe < m.buckets; probe++ {
		i := (m.slot(k) + probe) & (m.buckets - 1)
		switch got := tx.Read(m.tagAddr(i)); got {
		case tag:
			return tx.Read(m.valAddr(i)), true
		case mapEmpty:
			return 0, false
		}
	}
	return 0, false
}

// Get returns the value for k, if present.
func (m *Map) Get(th *tmbp.Thread, k uint64) (v uint64, ok bool, err error) {
	err = th.Atomic(func(tx *tmbp.Tx) error {
		v, ok = m.GetTx(tx, k)
		return nil
	})
	return v, ok, err
}

// DeleteTx removes k inside an already-running transaction, reporting
// whether it was present.
func (m *Map) DeleteTx(tx *tmbp.Tx, k uint64) (removed bool) {
	tag := k + mapKeyBias
	for probe := uint64(0); probe < m.buckets; probe++ {
		i := (m.slot(k) + probe) & (m.buckets - 1)
		switch got := tx.Read(m.tagAddr(i)); got {
		case tag:
			tx.Write(m.tagAddr(i), mapTombstone)
			m.addStripe(tx, i, ^uint64(0)) // -1
			return true
		case mapEmpty:
			return false
		}
	}
	return false
}

// Delete removes k, reporting whether it was present.
func (m *Map) Delete(th *tmbp.Thread, k uint64) (removed bool, err error) {
	err = th.Atomic(func(tx *tmbp.Tx) error {
		removed = m.DeleteTx(tx, k)
		return nil
	})
	return removed, err
}

// LenTx returns the number of live entries inside an already-running
// transaction. It reads every stripe counter: min(buckets, 64) words on as
// many blocks.
func (m *Map) LenTx(tx *tmbp.Tx) int {
	var n uint64
	for i := uint64(0); i < m.buckets; i += 1 << m.groupShift {
		n += tx.Read(m.stripeAddr(i))
	}
	return int(n)
}

// Len returns the number of live entries.
func (m *Map) Len(th *tmbp.Thread) (n int, err error) {
	err = th.Atomic(func(tx *tmbp.Tx) error {
		n = m.LenTx(tx)
		return nil
	})
	return n, err
}
