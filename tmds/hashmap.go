package tmds

import (
	"fmt"

	"tmbp"
)

// Map is a transactional open-addressing hash map from uint64 keys to
// uint64 values, with linear probing and tombstone deletion. Unlike the
// List, lookups touch only a handful of blocks regardless of size, so Map
// operations model the small transactions a hybrid TM would keep in
// hardware.
//
// Bucket representation (bucket i occupies one cache block):
//
//	+0 tag: 0 = empty, 1 = tombstone, otherwise key+2
//	+1 value
type Map struct {
	mem         *tmbp.Memory
	size        tmbp.Addr
	bucketsBase int
	buckets     uint64
}

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
	hdr, err := r.take(spreadStride)
	if err != nil {
		return nil, err
	}
	base, err := r.take(int(buckets) * spreadStride)
	if err != nil {
		return nil, err
	}
	m := &Map{mem: mem, size: wordAddr(mem, hdr), bucketsBase: base, buckets: buckets}
	for i := uint64(0); i < buckets; i++ {
		mem.StoreDirect(m.tagAddr(i), mapEmpty)
	}
	mem.StoreDirect(m.size, 0)
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
			tx.Write(m.tagAddr(firstFree), tag)
			tx.Write(m.valAddr(firstFree), v)
			tx.Write(m.size, tx.Read(m.size)+1)
			return true, nil
		}
	}
	if firstFree != m.buckets {
		tx.Write(m.tagAddr(firstFree), tag)
		tx.Write(m.valAddr(firstFree), v)
		tx.Write(m.size, tx.Read(m.size)+1)
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
			tx.Write(m.size, tx.Read(m.size)-1)
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
// transaction.
func (m *Map) LenTx(tx *tmbp.Tx) int { return int(tx.Read(m.size)) }

// Len returns the number of live entries.
func (m *Map) Len(th *tmbp.Thread) (n int, err error) {
	err = th.Atomic(func(tx *tmbp.Tx) error {
		n = m.LenTx(tx)
		return nil
	})
	return n, err
}
