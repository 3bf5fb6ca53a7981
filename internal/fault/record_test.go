package fault_test

import (
	"flag"
	"fmt"
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
