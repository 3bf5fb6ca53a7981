package stm

import (
	"errors"
	"testing"
	"testing/quick"

	"tmbp/internal/hash"
	"tmbp/internal/opacity"
	"tmbp/internal/otable"
	"tmbp/internal/xrand"
)

// TestSTMMatchesMapOracle runs random single-threaded transactions against
// both table organizations and checks the memory contents against a plain
// map driven by the same operations — including transactions aborted by a
// user error, whose operations must leave no trace.
func TestSTMMatchesMapOracle(t *testing.T) {
	sentinel := errors.New("user abort")
	for _, kind := range []string{"tagless", "tagged"} {
		check := func(seed uint64) bool {
			h := hash.NewMask(32)
			tab, err := otable.New(kind, h)
			if err != nil {
				return false
			}
			mem := NewMemory(64)
			cfg := Config{Table: tab, Memory: mem, Seed: seed}
			trace := attachRecorder(t, &cfg)
			rt, err := New(cfg)
			if err != nil {
				return false
			}
			th := rt.NewThread()
			r := xrand.New(seed)
			oracle := make(map[int]uint64, 64)

			for txn := 0; txn < 40; txn++ {
				ops := r.Intn(10) + 1
				abort := r.Intn(4) == 0
				pending := make(map[int]uint64)
				err := th.Atomic(func(tx *Tx) error {
					for i := 0; i < ops; i++ {
						w := r.Intn(64)
						a := mem.WordAddr(w)
						if r.Bool() {
							v := tx.Read(a)
							// Reads must observe oracle state overlaid
							// with this transaction's own writes.
							want, wrote := pending[w]
							if !wrote {
								want = oracle[w]
							}
							if v != want {
								t.Logf("%s txn %d: read word %d = %d, want %d", kind, txn, w, v, want)
								return errors.New("oracle mismatch")
							}
						} else {
							v := r.Uint64()
							tx.Write(a, v)
							pending[w] = v
						}
					}
					if abort {
						return sentinel
					}
					return nil
				})
				switch {
				case abort && !errors.Is(err, sentinel):
					return false
				case !abort && err != nil:
					t.Logf("%s txn %d failed: %v", kind, txn, err)
					return false
				case !abort:
					for w, v := range pending {
						oracle[w] = v
					}
				}
			}
			// Verify final memory equals the oracle and the table drained.
			for w := 0; w < 64; w++ {
				if mem.LoadDirect(mem.WordAddr(w)) != oracle[w] {
					t.Logf("%s: final word %d = %d, oracle %d", kind, w, mem.LoadDirect(mem.WordAddr(w)), oracle[w])
					return false
				}
			}
			// When recording, the history must also verify as opaque —
			// the map oracle and the opacity checker cross-check each
			// other on the same execution.
			if trace != nil {
				res, err := opacity.CheckTrace(trace.Events())
				if err != nil || !res.Opaque {
					t.Logf("%s seed %d: opacity check: %v %s", kind, seed, err, res)
					return false
				}
			}
			return tab.Occupied() == 0
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
	}
}
