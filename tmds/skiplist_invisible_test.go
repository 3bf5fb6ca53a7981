package tmds

import (
	"testing"

	"tmbp"
)

// TestSkiplistInvisibleScanPromotion pins the invisible-reader/scan
// interaction — nothing is promoted: a transaction that range-scans and then
// writes starts on the invisible fast path, the scan acquires nothing, and
// the PutTx acquires only the blocks its splice writes — the scanned blocks
// stay invisible and are validated at commit, so the combined footprint stays
// opaque at the cost of no table read acquire at all. A pure scan in the same
// runtime stays read-only end to end.
func TestSkiplistInvisibleScanPromotion(t *testing.T) {
	for _, kind := range sweepKinds() {
		t.Run(kind, func(t *testing.T) {
			rt, s, _, verify := phantomWorld(t, kind)
			th := rt.NewThread()

			// Pure scan first: commits on the read-only path.
			var n int
			if err := th.Atomic(func(tx *tmbp.Tx) error {
				n = 0
				return s.RangeScanTx(tx, 0, ^uint64(0), func(_, _ uint64) error {
					n++
					return nil
				})
			}); err != nil {
				t.Fatal(err)
			}
			if n != 5 {
				t.Fatalf("pure scan saw %d entries, want 5", n)
			}
			if st := rt.Stats(); st.ROCommits == 0 {
				t.Fatalf("pure scan did not use the read-only path: %+v", st)
			}
			before, tabBefore := rt.Stats(), rt.Table().Stats()

			// Scan-then-write: the scan's read set is never acquired.
			if err := th.Atomic(func(tx *tmbp.Tx) error {
				discard := func(_, _ uint64) error { return nil }
				if err := s.RangeScanTx(tx, 0, ^uint64(0), discard); err != nil {
					return err
				}
				_, err := s.PutTx(tx, 25, 250)
				return err
			}); err != nil {
				t.Fatal(err)
			}
			after, tabAfter := rt.Stats(), rt.Table().Stats()
			if after.ROPromotions != before.ROPromotions || after.ROCommits != before.ROCommits || after.Aborts != before.Aborts {
				t.Fatalf("scan-then-put: stats %+v -> %+v, want no pin, no read-only commit, no abort", before, after)
			}
			if got := tabAfter.ReadAcquires - tabBefore.ReadAcquires; got != 0 {
				t.Fatalf("scan-then-put read-acquired %d blocks, want 0", got)
			}
			writes, releases := tabAfter.WriteAcquires-tabBefore.WriteAcquires, tabAfter.Releases-tabBefore.Releases
			if writes == 0 || writes != releases || tabAfter.Upgrades != tabBefore.Upgrades {
				t.Fatalf("scan-then-put: %d write acquires, %d releases, %d upgrades; want the splice's blocks write-acquired once each and released",
					writes, releases, tabAfter.Upgrades-tabBefore.Upgrades)
			}
			if v, ok, _ := s.Get(th, 25); !ok || v != 250 {
				t.Fatalf("put after scan not visible: got (%d,%v), want (250,true)", v, ok)
			}
			verify()
		})
	}
}
