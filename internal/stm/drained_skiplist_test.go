package stm_test

import (
	"fmt"
	"testing"

	"tmbp/internal/hash"
	"tmbp/internal/otable"
	"tmbp/internal/stm"
	"tmbp/tmds"
)

// TestDrainedSkiplistLeavesSetEmpty is the counted fact behind drained reads'
// gain: a read-only skiplist lookup or range scan that runs drained reads
// every node it visits with no access-set entry — the access set stays empty
// while the footprint counts every visited block.
func TestDrainedSkiplistLeavesSetEmpty(t *testing.T) {
	const capacity = 256
	for _, kind := range otable.Kinds() {
		t.Run(kind, func(t *testing.T) {
			tab, err := otable.New(kind, hash.NewMask(1024))
			if err != nil {
				t.Fatal(err)
			}
			mem := stm.NewMemory(tmds.SkiplistWords(capacity))
			rt, err := stm.New(stm.Config{Table: tab, Memory: mem, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			s, err := tmds.NewSkiplist(mem, 0, capacity, 7)
			if err != nil {
				t.Fatal(err)
			}
			th := rt.NewThread()
			for k := uint64(0); k < capacity/2; k++ {
				if _, err := s.Put(th, 2*k, k); err != nil {
					t.Fatal(err)
				}
			}
			for _, op := range []struct {
				name string
				run  func(tx *stm.Tx) error
			}{
				{"GetTx", func(tx *stm.Tx) error {
					if v, ok := s.GetTx(tx, 100); !ok || v != 50 {
						return fmt.Errorf("GetTx(100) = %d, %v", v, ok)
					}
					return nil
				}},
				{"RangeScanTx", func(tx *stm.Tx) error {
					n := 0
					err := s.RangeScanTx(tx, 20, 200, func(k, v uint64) error { n++; return nil })
					if err == nil && n != 91 {
						err = fmt.Errorf("RangeScanTx(20, 200) visited %d keys, want 91", n)
					}
					return err
				}},
			} {
				var set, fp int
				if err := th.Atomic(func(tx *stm.Tx) error {
					err := op.run(tx)
					set, fp = stm.AccessSetLen(th), tx.FootprintBlocks()
					return err
				}); err != nil {
					t.Fatalf("%s: %v", op.name, err)
				}
				if set != 0 || fp == 0 {
					t.Fatalf("%s read drained: %d access-set entries over a footprint of %d blocks, want none", op.name, set, fp)
				}
			}
		})
	}
}
