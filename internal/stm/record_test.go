package stm

import (
	"flag"
	"fmt"
	"math/rand/v2"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"tmbp/internal/hash"
	"tmbp/internal/opacity"
	"tmbp/internal/otable"
)

// -opacity-record makes the trace-instrumented tests in this package (the
// deterministic-schedule CM suite via newCMRuntime, the race hammers —
// the serial-fallback one included — the CM policy hammer, and the oracle
// sweeps) dump their transactional histories as one trace file per runtime
// into the given directory, for offline replay through `tmbp check`. CI's
// opacity job drives this.
var opacityRecordDir = flag.String("opacity-record", "",
	"directory to write opacity trace files into (empty = recording off)")

// traceNames deduplicates trace file names when one test records several
// runtimes.
var traceNames sync.Map // name -> *atomic counter (int stored via LoadOrStore dance)

// attachRecorder wires a fresh trace log into cfg when -opacity-record is
// set, and registers a cleanup that writes the recorded history to
// <dir>/<test-name>.trace. It returns the log (nil when recording is off)
// so tests can also assert on the history in-process.
func attachRecorder(t testing.TB, cfg *Config) *opacity.Log {
	if *opacityRecordDir == "" {
		return nil
	}
	log := opacity.NewLog()
	cfg.Recorder = log
	base := strings.NewReplacer("/", "_", " ", "_", "#", "_").Replace(t.Name())
	if n, loaded := traceNames.LoadOrStore(base, 1); loaded {
		traceNames.Store(base, n.(int)+1)
		base = fmt.Sprintf("%s-%d", base, n.(int)+1)
	}
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

// yieldRecorder perturbs schedules from the Recorder hook: it passes each
// event on to next (the test's opacity.Log, or nil) and then, after a Begin,
// Read or Write, yields the processor with probability p. A yield after
// operation N falls where the next operation begins, in the same hold
// state; the one after an attempt's last access comes before its commit.
// On few cores this is what makes a hammer's transactions interleave.
type yieldRecorder struct {
	next   Recorder
	p      float64
	yields atomic.Int64 // yields made, so a test can check the perturbation ran
}

func (y *yieldRecorder) RecordEvent(ev opacity.Event) {
	if y.next != nil {
		y.next.RecordEvent(ev)
	}
	if ev.Kind != opacity.KindCommit && ev.Kind != opacity.KindAbort && rand.Float64() < y.p {
		y.yields.Add(1)
		runtime.Gosched()
	}
}

// fuzzSchedule installs a yieldRecorder with probability p in front of
// cfg's recorder; call it after attachRecorder.
func fuzzSchedule(cfg *Config, p float64) *yieldRecorder {
	y := &yieldRecorder{next: cfg.Recorder, p: p}
	cfg.Recorder = y
	return y
}

// TestRecordedHammerHistoriesOpaque is the end-to-end acceptance test for
// the trace layer: every table organization × CM policy runs the
// contended increment hammer with recording enabled, and the recorded
// history must normalize cleanly and verify as opaque. This is the
// machine-checked form of the exact-sum assertion the hammers already
// make — not only is no increment lost, every transaction (including each
// aborted attempt) observed a consistent snapshot.
func TestRecordedHammerHistoriesOpaque(t *testing.T) {
	for _, kind := range sweepKinds() {
		for _, policy := range cmPolicies() {
			t.Run(kind+"/"+policy, func(t *testing.T) {
				t.Parallel()
				tab, err := otable.New(kind, hash.NewMask(64))
				if err != nil {
					t.Fatal(err)
				}
				mem := NewMemory(256)
				log := opacity.NewLog()
				cfg := Config{Table: tab, Memory: mem, Seed: 11, Recorder: log}
				withPolicy(&cfg, policy)
				fuzzSchedule(&cfg, 0.2)
				rt, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				const (
					goroutines = 4
					txnsEach   = 60
					increments = 3
				)
				var wg sync.WaitGroup
				errs := make(chan error, goroutines)
				for g := 0; g < goroutines; g++ {
					wg.Add(1)
					go func(gid int) {
						defer wg.Done()
						th := rt.NewThread()
						for i := 0; i < txnsEach; i++ {
							if err := th.Atomic(func(tx *Tx) error {
								for k := 0; k < increments; k++ {
									a := mem.WordAddr((gid*29 + i*5 + k*11) % mem.Words())
									tx.Write(a, tx.Read(a)+1)
								}
								return nil
							}); err != nil {
								errs <- err
								return
							}
						}
					}(g)
				}
				wg.Wait()
				close(errs)
				if err := <-errs; err != nil {
					t.Fatal(err)
				}
				res, err := opacity.CheckTrace(log.Events())
				if err != nil {
					t.Fatalf("recorded trace malformed: %v", err)
				}
				if !res.Opaque {
					t.Fatalf("recorded history not opaque: %s", res)
				}
				if res.Committed != goroutines*txnsEach {
					t.Fatalf("history has %d committed attempts, want %d", res.Committed, goroutines*txnsEach)
				}
				if res.Exhausted {
					t.Fatalf("checker exhausted its budget on a hammer trace (%d states)", res.StatesExplored)
				}
			})
		}
	}
}

// TestRecordedSerialEventSequence pins the exact event stream a known
// serial execution produces: kinds, attempt numbers, word indexes, and
// values, including the read-own-write path.
func TestRecordedSerialEventSequence(t *testing.T) {
	tab := otable.NewTagged(hash.NewMask(32))
	mem := NewMemory(64)
	log := opacity.NewLog()
	rt, err := New(Config{Table: tab, Memory: mem, Seed: 1, Recorder: log})
	if err != nil {
		t.Fatal(err)
	}
	th := rt.NewThread()
	if err := th.Atomic(func(tx *Tx) error {
		v := tx.Read(mem.WordAddr(3)) // word 3 = 0
		tx.Write(mem.WordAddr(3), v+7)
		if got := tx.Read(mem.WordAddr(3)); got != 7 { // own write
			t.Fatalf("read-own-write = %d", got)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []opacity.Event{
		{Index: 0, Kind: opacity.KindBegin, Thread: 1, Attempt: 1},
		{Index: 1, Kind: opacity.KindRead, Thread: 1, Attempt: 1, Word: 3, Value: 0},
		{Index: 2, Kind: opacity.KindWrite, Thread: 1, Attempt: 1, Word: 3, Value: 7},
		{Index: 3, Kind: opacity.KindRead, Thread: 1, Attempt: 1, Word: 3, Value: 7},
		{Index: 4, Kind: opacity.KindCommit, Thread: 1, Attempt: 1},
	}
	got := log.Events()
	if len(got) != len(want) {
		t.Fatalf("recorded %d events, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestRecordedUserAbortClosesAttempt checks that a user-error abort (and
// the subsequent fresh transaction) records Abort and restarts attempt
// numbering, keeping traces quiescent and well-formed.
func TestRecordedUserAbortClosesAttempt(t *testing.T) {
	tab := otable.NewTagless(hash.NewMask(32))
	mem := NewMemory(64)
	log := opacity.NewLog()
	rt, err := New(Config{Table: tab, Memory: mem, Seed: 1, Recorder: log})
	if err != nil {
		t.Fatal(err)
	}
	th := rt.NewThread()
	boom := fmt.Errorf("user abort")
	if err := th.Atomic(func(tx *Tx) error {
		tx.Write(mem.WordAddr(0), 9)
		return boom
	}); err != boom {
		t.Fatalf("Atomic returned %v, want the user error", err)
	}
	if err := th.Atomic(func(tx *Tx) error {
		if v := tx.Read(mem.WordAddr(0)); v != 0 {
			t.Fatalf("aborted write leaked: word 0 = %d", v)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	res, err := opacity.CheckTrace(log.Events())
	if err != nil {
		t.Fatalf("trace malformed after user abort: %v", err)
	}
	if !res.Opaque || res.Ops != 2 || res.Committed != 1 {
		t.Fatalf("history = %s, want 2 attempts / 1 committed, opaque", res)
	}
	evs := log.Events()
	if evs[len(evs)-1].Kind != opacity.KindCommit {
		t.Fatalf("last event %v, want commit", evs[len(evs)-1])
	}
	if evs[2].Kind != opacity.KindAbort || evs[2].Attempt != 1 {
		t.Fatalf("user abort recorded as %+v, want abort of attempt 1", evs[2])
	}
	if evs[3].Kind != opacity.KindBegin || evs[3].Attempt != 1 {
		t.Fatalf("fresh transaction recorded as %+v, want begin of attempt 1", evs[3])
	}
}
