package otable

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"tmbp/internal/addr"
	"tmbp/internal/hash"
)

// TestVersionSampleBracketsWriter checks the one promise SampleVersion makes
// to an invisible reader, against a writer doing what a committing
// transaction does: whenever two samples around a load both show no writer
// and the same stamp s, the load saw the state left by the last commit of
// the block with a stamp at most s, and no commit of the block since. The
// writer's "memory" is a shadow word holding the stamp of its last commit
// of the block, written under the hold and before the publishing release;
// every fifth hold is released the abort way, shadow and stamp untouched.
//
// On the tagged table the sample answers from the block's record. In the
// "reaped" run the writer also streams a fresh block through the same
// bucket after every hold, committed under the same stamp, so the block's
// free record is pushed past the reap depth, condemned and recycled, and
// the block answers in turn from a record and from the bucket floor, which
// carries the other blocks' stamps too. An answer above the block's own
// last stamp is then allowed, as long as no commit of the block lies
// between the shadow and the answer.
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
	type run struct {
		kind   string
		reaped bool
	}
	for _, r := range []run{{"tagless", false}, {"tagged", false}, {"tagged", true}} {
		name := r.kind
		if r.reaped {
			name += "/reaped"
		}
		t.Run(name, func(t *testing.T) {
			tab, err := New(r.kind, hash.NewMask(64))
			if err != nil {
				t.Fatal(err)
			}
			// committed reports whether the writer committed the block
			// under stamp i: every hold but each fifth.
			committed := func(i uint64) bool { return i%5 != 0 }
			var shadow atomic.Uint64
			var done atomic.Bool
			defer done.Store(true) // a failing writer must not leave the readers spinning
			var validated atomic.Uint64
			var wg sync.WaitGroup
			for range readers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for !done.Load() {
						s1, w1 := tab.SampleVersion(b)
						v := shadow.Load()
						s2, w2 := tab.SampleVersion(b)
						if w1 || w2 || s1 != s2 {
							continue
						}
						validated.Add(1)
						missed := v > s1
						for i := v + 1; i <= s1 && !missed; i++ {
							missed = committed(i)
						}
						if missed || !r.reaped && v != s1 {
							t.Errorf("samples agree on stamp %d with no writer, but the load between them saw %d", s1, v)
							break
						}
					}
				}()
			}
			for i := 1; i <= iters; i++ {
				out, _, h := tab.AcquireWriteH(1, b, 0, NoHandle)
				if out != Granted {
					t.Fatalf("AcquireWriteH = %v", out)
				}
				if !committed(uint64(i)) {
					tab.ReleaseWriteH(1, b, h)
				} else {
					shadow.Store(uint64(i))
					tab.ReleaseWriteV(1, b, h, uint64(i))
				}
				if r.reaped {
					other := b + addr.Block(64*(i+1)) // a fresh block in b's bucket
					_, _, h := tab.AcquireWriteH(2, other, 0, NoHandle)
					tab.ReleaseWriteV(2, other, h, uint64(i))
				}
				if i%1024 == 0 {
					runtime.Gosched() // let the readers validate on a 1-P host too
				}
			}
			// The cell is quiet now: wait for a validated pair, so a writer
			// that finished before any reader ran cannot end the test unchecked.
			for validated.Load() == 0 && !t.Failed() {
				runtime.Gosched()
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
