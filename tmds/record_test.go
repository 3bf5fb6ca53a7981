package tmds

import (
	"flag"
	"math/rand/v2"
	"runtime"
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

// yieldRecorder perturbs schedules from the Recorder hook, as the one in
// internal/stm's tests does: it passes each event on to log and then, after
// a Begin, Read or Write, yields the processor with probability p.
type yieldRecorder struct {
	log *opacity.Log
	p   float64
}

func (y yieldRecorder) RecordEvent(ev opacity.Event) {
	y.log.RecordEvent(ev)
	if ev.Kind != opacity.KindCommit && ev.Kind != opacity.KindAbort && rand.Float64() < y.p {
		runtime.Gosched()
	}
}

// fuzzSchedule installs a yieldRecorder with probability p in front of log,
// the test's recorded history.
func fuzzSchedule(cfg *tmbp.STMConfig, log *opacity.Log, p float64) {
	cfg.Recorder = yieldRecorder{log, p}
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
