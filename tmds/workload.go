package tmds

import (
	"fmt"

	"tmbp"
)

// Kinds lists, by name, the structure kinds NewKeyed and KeyedWords accept.
func Kinds() []string { return []string{"hashmap", "list", "queue", "skiplist"} }

// Keyed is the uniform keyed face a workload generator drives: every
// structure exposes one observing and one mutating operation per key, both
// usable inside an already-running transaction so a single transaction can
// touch several keys.
//
// The mapping per structure:
//
//	hashmap  ReadTx = Get; WriteTx = Put, or Delete when v%16 == 15
//	list     ReadTx = Contains; WriteTx = Insert (v even) / Remove (v odd)
//	queue    ReadTx = Dequeue (k ignored); WriteTx = Enqueue(v) (k ignored)
//	skiplist ReadTx = Get; WriteTx = Put, or Delete when v%16 == 15
//
// Operations that "miss" (Get of an absent key, Dequeue of an empty queue,
// Enqueue on a full queue) complete normally: a load generator measures the
// transaction, not the hit rate.
type Keyed interface {
	// ReadTx observes the structure at key k inside tx.
	ReadTx(tx *tmbp.Tx, k uint64) error
	// WriteTx mutates the structure at key k inside tx; v supplies the
	// value material (stored values, insert-vs-remove choice).
	WriteTx(tx *tmbp.Tx, k, v uint64) error
}

// KeyedWords returns the memory words NewKeyed needs for a structure of
// the given kind sized for the key space [0, keys).
func KeyedWords(kind string, keys int) (int, error) {
	if keys <= 0 {
		return 0, fmt.Errorf("tmds: keyed workload needs a positive key space, got %d", keys)
	}
	switch kind {
	case "hashmap":
		return spreadStride + int(mapWorkloadBuckets(keys))*spreadStride, nil
	case "list", "queue":
		return spreadStride + keys*spreadStride, nil
	case "skiplist":
		return SkiplistWords(keys), nil
	}
	return 0, fmt.Errorf("tmds: unknown structure kind %q (want one of %v)", kind, Kinds())
}

// mapWorkloadBuckets sizes the hashmap for a key space of keys: the next
// power of two >= 4*keys, so live entries (<= keys) plus tombstones from
// deleted-and-absent keys (<= keys) never fill more than half the table and
// probe chains stay short. ErrFull is unreachable under this sizing.
func mapWorkloadBuckets(keys int) uint64 {
	b := uint64(1)
	for b < uint64(4*keys) {
		b <<= 1
	}
	return b
}

// NewKeyed builds the named structure inside mem at baseWord, sized for a
// key space of [0, keys) per KeyedWords. Initialization uses direct stores,
// so the structure must not be shared until NewKeyed returns.
func NewKeyed(kind string, mem *tmbp.Memory, baseWord, keys int) (Keyed, error) {
	if keys <= 0 {
		return nil, fmt.Errorf("tmds: keyed workload needs a positive key space, got %d", keys)
	}
	switch kind {
	case "hashmap":
		m, err := NewMap(mem, baseWord, mapWorkloadBuckets(keys))
		if err != nil {
			return nil, err
		}
		return keyedMap{m}, nil
	case "list":
		l, err := NewList(mem, baseWord, keys)
		if err != nil {
			return nil, err
		}
		return keyedList{l}, nil
	case "queue":
		q, err := NewQueue(mem, baseWord, uint64(keys))
		if err != nil {
			return nil, err
		}
		return keyedQueue{q}, nil
	case "skiplist":
		// Capacity equals the key-space size, so a Put of a possibly-present
		// key can never exhaust the free list: ErrFull is unreachable. The
		// fixed seed makes every workload skiplist's tower layout identical
		// for a given key space, so a seeded run replays the same structure.
		s, err := NewSkiplist(mem, baseWord, keys, keyedSkiplistSeed)
		if err != nil {
			return nil, err
		}
		return keyedSkiplist{s}, nil
	}
	return nil, fmt.Errorf("tmds: unknown structure kind %q (want one of %v)", kind, Kinds())
}

type keyedMap struct{ m *Map }

func (w keyedMap) ReadTx(tx *tmbp.Tx, k uint64) error {
	w.m.GetTx(tx, k)
	return nil
}

func (w keyedMap) WriteTx(tx *tmbp.Tx, k, v uint64) error {
	if v%16 == 15 {
		w.m.DeleteTx(tx, k)
		return nil
	}
	_, err := w.m.PutTx(tx, k, v)
	return err
}

type keyedList struct{ l *List }

func (w keyedList) ReadTx(tx *tmbp.Tx, k uint64) error {
	w.l.ContainsTx(tx, k)
	return nil
}

func (w keyedList) WriteTx(tx *tmbp.Tx, k, v uint64) error {
	if v&1 == 1 {
		w.l.RemoveTx(tx, k)
		return nil
	}
	// Capacity equals the key-space size, so inserting a key that may
	// already be present can never exhaust the free list.
	_, err := w.l.InsertTx(tx, k)
	return err
}

type keyedQueue struct{ q *Queue }

func (w keyedQueue) ReadTx(tx *tmbp.Tx, _ uint64) error {
	w.q.DequeueTx(tx)
	return nil
}

func (w keyedQueue) WriteTx(tx *tmbp.Tx, _, v uint64) error {
	w.q.EnqueueTx(tx, v)
	return nil
}

// keyedSkiplistSeed fixes the workload skiplist's tower-height stream, so
// NewKeyed lays out the same towers for the same key space on every run.
const keyedSkiplistSeed = 0x736b6970 // "skip"

type keyedSkiplist struct{ s *Skiplist }

func (w keyedSkiplist) ReadTx(tx *tmbp.Tx, k uint64) error {
	w.s.GetTx(tx, k)
	return nil
}

func (w keyedSkiplist) WriteTx(tx *tmbp.Tx, k, v uint64) error {
	if v%16 == 15 {
		w.s.DeleteTx(tx, k)
		return nil
	}
	_, err := w.s.PutTx(tx, k, v)
	return err
}
