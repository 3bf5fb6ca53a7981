package fault_test

import (
	"sync/atomic"
	"testing"

	"tmbp/internal/addr"
	"tmbp/internal/otable"
	"tmbp/internal/stm"
)

// sampleCounter counts the version samples a runtime takes through it.
type sampleCounter struct {
	otable.Table
	n atomic.Uint64
}

func (c *sampleCounter) SampleVersion(b addr.Block) (uint64, bool) {
	c.n.Add(1)
	return c.Table.SampleVersion(b)
}

// countSamples puts a sampleCounter in front of cfg.Table, for assertDrained.
func countSamples(cfg *stm.Config) *sampleCounter {
	c := &sampleCounter{Table: cfg.Table}
	cfg.Table = c
	return c
}

// assertDrained checks at quiescence that every stamp the run drew was
// counted finished, however the injector bent the run: a read-only
// transaction then begins drained and reads a without a version sample. A
// stamp path that missed its count would leave every later attempt on the
// sampled path for the runtime's life, and nothing else would notice.
func assertDrained(t *testing.T, rt *stm.Runtime, c *sampleCounter, a addr.Addr) {
	t.Helper()
	before := c.n.Load()
	if err := rt.NewThread().Atomic(func(tx *stm.Tx) error {
		tx.Read(a)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n := c.n.Load() - before; n != 0 {
		t.Errorf("a read-only transaction at quiescence took %d version samples: a drawn stamp was never counted finished", n)
	}
}
