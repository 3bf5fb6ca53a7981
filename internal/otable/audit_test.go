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
			if out, _ := AcquireWrite(tab, 1, blocks[0], 0); out != Granted {
				t.Fatalf("AcquireWrite: outcome %v", out)
			}
			if out, _ := AcquireRead(tab, 1, blocks[1]); out != Granted {
				t.Fatalf("AcquireRead: outcome %v", out)
			}
			if out, _ := AcquireRead(tab, 2, blocks[2]); out != Granted {
				t.Fatalf("AcquireRead (second tx): outcome %v", out)
			}
			if err := AuditQuiesced(tab); err == nil {
				t.Fatal("table with held ownership reported quiescent")
			}

			// Releasing only part of the footprint must still fail.
			ReleaseWrite(tab, 1, blocks[0])
			if err := AuditQuiesced(tab); err == nil {
				t.Fatal("table with remaining read shares reported quiescent")
			}

			ReleaseRead(tab, 1, blocks[1])
			ReleaseRead(tab, 2, blocks[2])
			if err := AuditQuiesced(tab); err != nil {
				t.Fatalf("fully released table not quiescent: %v", err)
			}
		})
	}
}
