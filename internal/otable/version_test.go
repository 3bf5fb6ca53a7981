package otable

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"tmbp/internal/addr"
	"tmbp/internal/hash"
)

// bucketCell returns the version cell of b's bucket.
func bucketCell(t *Tagged, b addr.Block) *cell { return &t.cells[t.h.Index(b)] }

// TestHoldWordOverflowPanics drives a bucket's hold word to the edge of each
// field from inside the package: the grant that would fill the held-records
// field, and the release that would take the writers field below zero, must
// panic on the result of the Add they already perform, and a version sample
// must never report a writer the records field carried into existence.
func TestHoldWordOverflowPanics(t *testing.T) {
	const b = addr.Block(3)
	mustPanic := func(t *testing.T, what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		f()
	}
	noWriter := func(t *testing.T, tab Table, when string) {
		t.Helper()
		if _, active := tab.SampleVersion(b); active {
			t.Fatalf("%s: SampleVersion reports a writer nobody is", when)
		}
	}
	t.Run("tagged/records-overflow", func(t *testing.T) {
		tab := NewTagged(hash.NewMask(64))
		bucketCell(tab, b).hold.Store(holdGuard&(holdWriter-1) - 1) // one below the records limit
		noWriter(t, tab, "at the limit")
		mustPanic(t, "the grant past the records limit", func() { tab.AcquireReadH(1, b) })
		noWriter(t, tab, "after the refused grant")
	})
	t.Run("tagged/writer-underflow", func(t *testing.T) {
		tab := NewTagged(hash.NewMask(64))
		_, _, h := tab.AcquireWriteH(1, b, 0, NoHandle)
		tab.ReleaseWriteH(1, b, h)
		// A second release of the same grant never reaches the hold word:
		// the state word no longer names the caller.
		mustPanic(t, "a double release", func() { tab.ReleaseWriteH(1, b, h) })
		noWriter(t, tab, "after the double release")
		// Had one slipped through and uncounted the writer twice, the
		// next release would borrow from an empty field.
		_, _, h = tab.AcquireWriteH(1, b, 0, NoHandle)
		bucketCell(tab, b).hold.Add(^holdWriter + 1) // minus one writer
		mustPanic(t, "the release below zero writers", func() { tab.ReleaseWriteH(1, b, h) })
	})
}

// TestVersionSampleBracketsWriter checks the one promise SampleVersion makes
// to an invisible reader, against a writer doing what a committing
// transaction does: whenever two samples around a load both show no writer
// and the same stamp, the load saw exactly the state that stamp's commit
// left. The writer's "memory" is a shadow word holding the stamp of its last
// commit, written under the hold and before the publishing release; every
// fifth hold is released the abort way, shadow and stamp untouched.
func TestVersionSampleBracketsWriter(t *testing.T) {
	const b = addr.Block(3)
	iters := 200000
	if testing.Short() {
		iters = 20000
	}
	// One P stays with the writer: samples and releases must truly overlap.
	readers := runtime.GOMAXPROCS(0) - 1
	if readers < 1 {
		readers = 1
	}
	for _, kind := range Kinds() {
		t.Run(kind, func(t *testing.T) {
			tab, err := New(kind, hash.NewMask(64))
			if err != nil {
				t.Fatal(err)
			}
			var shadow atomic.Uint64
			var done atomic.Bool
			defer done.Store(true) // a failing writer must not leave the readers spinning
			var validated atomic.Uint64
			var wg sync.WaitGroup
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					n := uint64(0)
					for !done.Load() {
						s1, w1 := tab.SampleVersion(b)
						v := shadow.Load()
						s2, w2 := tab.SampleVersion(b)
						if w1 || w2 || s1 != s2 {
							continue
						}
						if n++; v != s1 {
							t.Errorf("samples agree on stamp %d with no writer, but the load between them saw %d", s1, v)
							break
						}
					}
					validated.Add(n)
				}()
			}
			for i := 1; i <= iters; i++ {
				out, _, h := tab.AcquireWriteH(1, b, 0, NoHandle)
				if out != Granted {
					t.Fatalf("AcquireWriteH = %v", out)
				}
				if i%5 == 0 {
					tab.ReleaseWriteH(1, b, h)
				} else {
					shadow.Store(uint64(i))
					tab.ReleaseWriteV(1, b, h, uint64(i))
				}
				if i%1024 == 0 {
					runtime.Gosched() // let the readers validate on a 1-P host too
				}
			}
			done.Store(true)
			wg.Wait()
			if validated.Load() == 0 {
				t.Fatal("no pair of samples ever validated: the test checked nothing")
			}
			if err := AuditQuiesced(tab); err != nil {
				t.Fatal(err)
			}
		})
	}
}
