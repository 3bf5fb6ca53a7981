package load

import (
	"testing"

	"tmbp"
	"tmbp/internal/opacity"
	"tmbp/tmds"
)

// TestLoadTracesOpaque is the integration proof behind the CI load job:
// a short seeded wall-clock load scenario, recorded, for every structure
// × ownership-table kind, replays opaque
// through the offline checker. The scenario is tuned hot — a tiny Zipf
// key space over a small table — so the traces contain genuine conflicts
// and aborts, not just a serial history. Sweeping the structures matters:
// their constructors initialize memory with direct stores, and a missing
// Init event in the trace shows up here as a phantom inconsistent read.
func TestLoadTracesOpaque(t *testing.T) {
	if testing.Short() {
		t.Skip("12 recorded concurrent runs")
	}
	for _, structName := range tmds.Kinds() {
		for _, table := range tmbp.TableKinds() {
			log := opacity.NewLog()
			sc := Scenario{
				Struct: structName, Table: table,
				RatePerSec: 1e6, Workers: 4, Ops: 250, Keys: 16,
				ZipfS: 1.2, ReadFrac: 0.5, TableEntries: 256,
				Recorder: log,
			}
			r, err := Run(sc)
			if err != nil {
				t.Fatalf("%s/%s: %v", structName, table, err)
			}
			res, err := opacity.CheckTrace(log.Events())
			if err != nil {
				t.Fatalf("%s/%s: trace malformed: %v", structName, table, err)
			}
			if !res.Opaque {
				t.Errorf("%s/%s: trace not opaque: %v", structName, table, res)
			}
			if res.Ops == 0 || r.Hist.Count() != 250 {
				t.Errorf("%s/%s: degenerate trace: %d ops, %d latencies",
					structName, table, res.Ops, r.Hist.Count())
			}
		}
	}
}

// TestLoadTracesOpaqueInvisible is the same integration proof for the
// invisible-reader fast path under a read-mostly mix: every ownership-table
// kind, recorded under contention, with read-only transactions committing by
// version validation. Read-mostly is where the fast path actually engages —
// most transactions never write — while the writing minority keeps genuine
// conflicts (and validation aborts) in the trace.
func TestLoadTracesOpaqueInvisible(t *testing.T) {
	if testing.Short() {
		t.Skip("recorded concurrent runs")
	}
	for _, table := range tmbp.TableKinds() {
		log := opacity.NewLog()
		sc := Scenario{
			Struct: "hashmap", Table: table,
			RatePerSec: 1e6, Workers: 4, Ops: 400, Keys: 16,
			ZipfS: 1.2, ReadFrac: 0.9, Invisible: true,
			TableEntries: 256, Recorder: log,
		}
		r, err := Run(sc)
		if err != nil {
			t.Fatalf("%s: %v", table, err)
		}
		res, err := opacity.CheckTrace(log.Events())
		if err != nil {
			t.Fatalf("%s: trace malformed: %v", table, err)
		}
		if !res.Opaque {
			t.Errorf("%s: invisible-reader trace not opaque: %v", table, res)
		}
		if res.Ops == 0 || r.Hist.Count() != 400 {
			t.Errorf("%s: degenerate trace: %d ops, %d latencies", table, res.Ops, r.Hist.Count())
		}
	}
}
