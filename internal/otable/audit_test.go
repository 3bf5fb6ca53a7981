package otable

import (
	"testing"

	"tmbp/internal/addr"
	"tmbp/internal/hash"
)

// TestAuditQuiesced walks every table kind through the lifecycle the audit
// must discriminate: empty tables pass, tables with held ownership (read,
// write, and a mix across slots) fail, and tables whose permissions have
// all been released pass again. This is the leak detector the fault-
// injection suite relies on, so both failure modes — occupied first-level
// entries and (on record-allocating tables) leaked records — are exercised.
func TestAuditQuiesced(t *testing.T) {
	for _, kind := range Kinds() {
		t.Run(kind, func(t *testing.T) {
			tab, err := New(kind, hash.NewMask(64))
			if err != nil {
				t.Fatal(err)
			}
			if err := AuditQuiesced(tab); err != nil {
				t.Fatalf("empty table not quiescent: %v", err)
			}

			blocks := []addr.Block{3, 7, 200}
			var h [3]Handle
			var out Outcome
			if out, _, h[0] = tab.AcquireWriteH(1, blocks[0], 0, NoHandle); out != Granted {
				t.Fatalf("AcquireWriteH: outcome %v", out)
			}
			if out, _, h[1] = tab.AcquireReadH(1, blocks[1]); out != Granted {
				t.Fatalf("AcquireReadH: outcome %v", out)
			}
			if out, _, h[2] = tab.AcquireReadH(2, blocks[2]); out != Granted {
				t.Fatalf("AcquireReadH (second tx): outcome %v", out)
			}
			if err := AuditQuiesced(tab); err == nil {
				t.Fatal("table with held ownership reported quiescent")
			}

			// Releasing only part of the footprint must still fail.
			tab.ReleaseWriteH(1, blocks[0], h[0])
			if err := AuditQuiesced(tab); err == nil {
				t.Fatal("table with remaining read shares reported quiescent")
			}

			tab.ReleaseReadH(1, blocks[1], h[1])
			tab.ReleaseReadH(2, blocks[2], h[2])
			if err := AuditQuiesced(tab); err != nil {
				t.Fatalf("fully released table not quiescent: %v", err)
			}
		})
	}
}
