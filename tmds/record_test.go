package tmds

import (
	"flag"
	"strings"
	"testing"

	"tmbp"
	"tmbp/internal/opacity"
)

// -opacity-record mirrors the internal/stm flag of the same name: the
// trace-instrumented tests in this package (the phantom-conflict schedules,
// the scan hammers and the keyed-structure runs) dump their transactional
// histories as one trace file per runtime into the given directory, for
// offline replay through `tmbp check`. CI's opacity job drives this. Unlike
// the stm helper, the log is always attached — these tests also verify
// opacity in-process.
var opacityRecordDir = flag.String("opacity-record", "",
	"directory to write opacity trace files into (empty = dump off; the log still records)")

// attachLog wires a fresh trace log into cfg, registers a dump into
// -opacity-record when set, and returns the log for in-process checking.
func attachLog(t *testing.T, cfg *tmbp.STMConfig) *opacity.Log {
	log := opacity.NewLog()
	cfg.Recorder = log
	if *opacityRecordDir == "" {
		return log
	}
	base := strings.NewReplacer("/", "_", " ", "_", "#", "_").Replace(t.Name())
	t.Cleanup(func() {
		if log.Len() == 0 {
			return
		}
		if err := log.DumpFile(*opacityRecordDir, base+".trace"); err != nil {
			t.Errorf("opacity-record: %v", err)
		}
	})
	return log
}

// recordInitialWords replays the structure constructor's direct stores into
// the log as Init events: the opacity checker assumes unrecorded words
// start at zero, and constructors run before any transaction. Must be
// called after construction and before the first transaction.
func recordInitialWords(log *opacity.Log, mem *tmbp.Memory) {
	for i := 0; i < mem.Words(); i++ {
		if v := mem.LoadDirect(mem.WordAddr(i)); v != 0 {
			log.RecordEvent(opacity.Event{Kind: opacity.KindInit, Word: uint64(i), Value: v})
		}
	}
}

// checkOpaque verifies the recorded history in-process.
func checkOpaque(t *testing.T, log *opacity.Log) {
	t.Helper()
	res, err := opacity.CheckTrace(log.Events())
	if err != nil {
		t.Fatalf("recorded trace malformed: %v", err)
	}
	if !res.Opaque {
		t.Fatalf("recorded history not opaque: %s", res)
	}
	if res.Exhausted {
		t.Fatalf("opacity checker exhausted its budget (%d states)", res.StatesExplored)
	}
}
