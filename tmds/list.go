package tmds

import "tmbp"

// List is a transactional sorted set of uint64 keys backed by a singly
// linked list — the canonical STM microbenchmark ("intset"). Operations are
// linearizable; traversal reads every node on the search path into the
// transaction's read set, so long lists generate the large read footprints
// the paper's analysis is about.
//
// Node representation (indices are 1-based; 0 is the nil pointer):
//
//	header word 0: head pointer
//	header word 1: free-list head
//	header word 2: size
//	node i (1-based) occupies two words at nodesBase + (i-1)*spreadStride:
//	    +0 key
//	    +1 next pointer
type List struct {
	mem       *tmbp.Memory
	head      tmbp.Addr
	free      tmbp.Addr
	size      tmbp.Addr
	nodesBase int
	capacity  int
}

// listHeaderWords is the header size; headers sit on their own block so
// header writes (size updates) conflict with node traffic only via the
// ownership table's own aliasing.
const listHeaderWords = spreadStride

// NewList carves a List of the given capacity out of mem starting at
// baseWord. It initializes the free list with direct stores, so the
// structure must not be shared until NewList returns.
func NewList(mem *tmbp.Memory, baseWord, capacity int) (*List, error) {
	r, err := newRegion(mem, baseWord, listHeaderWords+capacity*spreadStride)
	if err != nil {
		return nil, err
	}
	hdr, err := r.take(listHeaderWords)
	if err != nil {
		return nil, err
	}
	nodes, err := r.take(capacity * spreadStride)
	if err != nil {
		return nil, err
	}
	l := &List{
		mem:       mem,
		head:      wordAddr(mem, hdr),
		free:      wordAddr(mem, hdr+1),
		size:      wordAddr(mem, hdr+2),
		nodesBase: nodes,
		capacity:  capacity,
	}
	// Chain every node into the free list: i -> i+1, last -> nil.
	for i := 1; i <= capacity; i++ {
		next := uint64(i + 1)
		if i == capacity {
			next = 0
		}
		mem.StoreDirect(l.nextAddr(uint64(i)), next)
	}
	mem.StoreDirect(l.free, 1)
	mem.StoreDirect(l.head, 0)
	mem.StoreDirect(l.size, 0)
	return l, nil
}

// Capacity returns the fixed node capacity.
func (l *List) Capacity() int { return l.capacity }

// keyAddr returns the address of node i's key word (i is 1-based).
func (l *List) keyAddr(i uint64) tmbp.Addr {
	return wordAddr(l.mem, l.nodesBase+int(i-1)*spreadStride)
}

// nextAddr returns the address of node i's next-pointer word.
func (l *List) nextAddr(i uint64) tmbp.Addr {
	return wordAddr(l.mem, l.nodesBase+int(i-1)*spreadStride+1)
}

// locate walks the sorted list inside tx and returns the first node with
// key >= k and its predecessor (0 = none).
func (l *List) locate(tx *tmbp.Tx, k uint64) (prev, cur uint64) {
	cur = tx.Read(l.head)
	for cur != 0 && tx.Read(l.keyAddr(cur)) < k {
		prev = cur
		cur = tx.Read(l.nextAddr(cur))
	}
	return prev, cur
}

// InsertTx adds k inside an already-running transaction, reporting whether
// it was absent. It returns ErrFull when no free nodes remain; propagating
// that error aborts the enclosing transaction. The Tx-level operations let
// one transaction compose several structure operations.
func (l *List) InsertTx(tx *tmbp.Tx, k uint64) (added bool, err error) {
	prev, cur := l.locate(tx, k)
	if cur != 0 && tx.Read(l.keyAddr(cur)) == k {
		return false, nil
	}
	node := tx.Read(l.free)
	if node == 0 {
		return false, ErrFull
	}
	tx.Write(l.free, tx.Read(l.nextAddr(node)))
	tx.Write(l.keyAddr(node), k)
	tx.Write(l.nextAddr(node), cur)
	if prev == 0 {
		tx.Write(l.head, node)
	} else {
		tx.Write(l.nextAddr(prev), node)
	}
	tx.Write(l.size, tx.Read(l.size)+1)
	return true, nil
}

// Insert adds k, reporting whether it was absent. It returns ErrFull when
// no free nodes remain.
func (l *List) Insert(th *tmbp.Thread, k uint64) (added bool, err error) {
	err = th.Atomic(func(tx *tmbp.Tx) error {
		var e error
		added, e = l.InsertTx(tx, k)
		return e
	})
	return added, err
}

// RemoveTx deletes k inside an already-running transaction, reporting
// whether it was present.
func (l *List) RemoveTx(tx *tmbp.Tx, k uint64) (removed bool) {
	prev, cur := l.locate(tx, k)
	if cur == 0 || tx.Read(l.keyAddr(cur)) != k {
		return false
	}
	next := tx.Read(l.nextAddr(cur))
	if prev == 0 {
		tx.Write(l.head, next)
	} else {
		tx.Write(l.nextAddr(prev), next)
	}
	// Return the node to the free list.
	tx.Write(l.nextAddr(cur), tx.Read(l.free))
	tx.Write(l.free, cur)
	tx.Write(l.size, tx.Read(l.size)-1)
	return true
}

// Remove deletes k, reporting whether it was present.
func (l *List) Remove(th *tmbp.Thread, k uint64) (removed bool, err error) {
	err = th.Atomic(func(tx *tmbp.Tx) error {
		removed = l.RemoveTx(tx, k)
		return nil
	})
	return removed, err
}

// ContainsTx reports membership of k inside an already-running transaction.
func (l *List) ContainsTx(tx *tmbp.Tx, k uint64) (found bool) {
	_, cur := l.locate(tx, k)
	return cur != 0 && tx.Read(l.keyAddr(cur)) == k
}

// Contains reports membership of k.
func (l *List) Contains(th *tmbp.Thread, k uint64) (found bool, err error) {
	err = th.Atomic(func(tx *tmbp.Tx) error {
		found = l.ContainsTx(tx, k)
		return nil
	})
	return found, err
}

// LenTx returns the current size inside an already-running transaction.
func (l *List) LenTx(tx *tmbp.Tx) int { return int(tx.Read(l.size)) }

// Len returns the current size.
func (l *List) Len(th *tmbp.Thread) (n int, err error) {
	err = th.Atomic(func(tx *tmbp.Tx) error {
		n = l.LenTx(tx)
		return nil
	})
	return n, err
}

// Snapshot returns the keys in order, atomically.
func (l *List) Snapshot(th *tmbp.Thread) (keys []uint64, err error) {
	err = th.Atomic(func(tx *tmbp.Tx) error {
		keys = keys[:0]
		for cur := tx.Read(l.head); cur != 0; cur = tx.Read(l.nextAddr(cur)) {
			keys = append(keys, tx.Read(l.keyAddr(cur)))
		}
		return nil
	})
	return keys, err
}
