package stm

import (
	"fmt"
	"sync/atomic"

	"tmbp/internal/addr"
)

// Memory is the flat word-addressable memory the STM manages. Word storage
// is atomic so that the Go memory model never sees a data race even under
// weak isolation, where the *transactional* semantics permit races between
// transactional and non-transactional code; the STM protocol layers its
// guarantees on top.
type Memory struct {
	words []atomic.Uint64
}

// NewMemory allocates a zeroed memory of the given number of 8-byte words.
func NewMemory(words int) *Memory {
	if words <= 0 {
		panic(fmt.Sprintf("stm: NewMemory(%d) needs a positive word count", words))
	}
	return &Memory{words: make([]atomic.Uint64, words)}
}

// Words returns the memory size in words.
func (m *Memory) Words() int { return len(m.words) }

// Bytes returns the memory size in bytes.
func (m *Memory) Bytes() uint64 { return uint64(len(m.words)) * addr.WordBytes }

// WordAddr returns the byte address of word i.
func (m *Memory) WordAddr(i int) addr.Addr { return addr.Addr(uint64(i) * addr.WordBytes) }

// index converts an address to a word index, checking bounds and alignment.
// It is small enough to inline into every access: the panic value formats
// its message only when printed.
func (m *Memory) index(a addr.Addr) uint64 {
	i := uint64(a) >> addr.WordShift
	if i >= uint64(len(m.words)) || a&(addr.WordBytes-1) != 0 {
		panic(badAddr{a, len(m.words)})
	}
	return i
}

// badAddr is the panic value of an address index rejects.
type badAddr struct {
	a     addr.Addr
	words int
}

func (b badAddr) Error() string {
	if b.a&(addr.WordBytes-1) != 0 {
		return fmt.Sprintf("stm: unaligned word access at %v", b.a)
	}
	return fmt.Sprintf("stm: access at %v beyond memory of %d words", b.a, b.words)
}

// load reads the word at address a.
func (m *Memory) load(a addr.Addr) uint64 { return m.words[m.index(a)].Load() }

// store writes the word at address a.
func (m *Memory) store(a addr.Addr, v uint64) { m.words[m.index(a)].Store(v) }

// LoadDirect is the runtime's non-transactional read: one atomic load of
// the word at a, outside any transaction. Isolation is weak (the paper's
// assumption, Section 6): it performs no ownership-table lookup, is never
// denied, and beside running transactions may observe a committing
// transaction's write-back half done — never a speculative value, since
// writes reach memory only at commit. A bad address panics.
func (m *Memory) LoadDirect(a addr.Addr) uint64 { return m.load(a) }

// StoreDirect is the runtime's non-transactional write: one atomic store to
// the word at a, with no table lookup and no stamp. A transaction that has
// read the word does not learn of it, and a committing transaction that
// wrote the word may write its own value back over it: keep the words
// transactions use and the words StoreDirect writes apart while
// transactions run, or write them before any transaction starts. A bad
// address panics.
func (m *Memory) StoreDirect(a addr.Addr, v uint64) { m.store(a, v) }
