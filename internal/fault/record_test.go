package fault_test

import (
	"flag"
	"fmt"
	"math/rand/v2"
	"runtime"
	"strings"
	"sync"
	"testing"

	"tmbp/internal/opacity"
	"tmbp/internal/stm"
)

// -fault-record makes the robustness suite dump every recorded
// transactional history as one trace file per runtime into the given
// directory, for offline replay through `tmbp check`. CI's fault job
// drives this: the traces a runtime produces while being actively
// sabotaged must still verify as opaque.
var faultRecordDir = flag.String("fault-record", "",
	"directory to write fault-run opacity traces into (empty = no files)")

// traceNames deduplicates file names across -count repetitions.
var traceNames sync.Map // base name -> count

// recordTrace wires a fresh opacity log into cfg — the suite always
// verifies histories in-process — and, when -fault-record is set, also
// registers a cleanup that writes the history to <dir>/<test-name>.trace.
func recordTrace(t testing.TB, cfg *stm.Config) *opacity.Log {
	log := opacity.NewLog()
	cfg.Recorder = log
	if *faultRecordDir == "" {
		return log
	}
	base := strings.NewReplacer("/", "_", " ", "_", "#", "_").Replace(t.Name())
	if n, loaded := traceNames.LoadOrStore(base, 1); loaded {
		traceNames.Store(base, n.(int)+1)
		base = fmt.Sprintf("%s-%d", base, n.(int)+1)
	}
	t.Cleanup(func() {
		if log.Len() == 0 {
			return
		}
		if err := log.DumpFile(*faultRecordDir, base+".trace"); err != nil {
			t.Errorf("fault-record: %v", err)
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
func fuzzSchedule(cfg *stm.Config, log *opacity.Log, p float64) {
	cfg.Recorder = yieldRecorder{log, p}
}
