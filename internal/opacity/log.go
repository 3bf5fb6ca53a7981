package opacity

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// Log is the in-memory trace recorder. It satisfies the STM's Recorder
// hook: every transactional operation calls RecordEvent, the log assigns
// the global event index under its mutex, and the mutex's total order is
// what makes the indexes consistent with real time — an event recorded
// after another in wall-clock order always receives a larger index, and
// the happens-before edge the mutex provides is exactly the edge the
// checker's real-time precedence relation relies on (a Commit is recorded
// after its write-back, a Begin before its first acquire, so any trace
// gap between one attempt's end and another's begin brackets the actual
// memory effects).
//
// Recording is for tests and the trace capture of their -opacity-record
// and -fault-record flags; a single mutex is deliberate — correctness
// tooling wants the strongest ordering, not throughput. Production runs
// leave the STM's Recorder nil, which costs one predictable branch per
// operation and zero allocations.
type Log struct {
	mu     sync.Mutex
	events []Event
	next   uint64
}

// NewLog returns an empty recorder.
func NewLog() *Log { return &Log{} }

// RecordEvent appends ev to the log, assigning its global index. The
// caller's ev.Index is ignored. Safe for concurrent use.
func (l *Log) RecordEvent(ev Event) {
	l.mu.Lock()
	ev.Index = l.next
	l.next++
	l.events = append(l.events, ev)
	l.mu.Unlock()
}

// Init records the starting value of a word. Call it for every word whose
// initial value is nonzero before any transaction runs; the checker
// assumes unrecorded words start at zero (a fresh stm.Memory).
func (l *Log) Init(word, value uint64) {
	l.RecordEvent(Event{Kind: KindInit, Word: word, Value: value})
}

// Len returns the number of recorded events.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

// Events returns a copy of the recorded events in index order.
func (l *Log) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, len(l.events))
	copy(out, l.events)
	return out
}

// Dump serializes the log to w in the trace wire format.
func (l *Log) Dump(w io.Writer) error {
	return WriteTrace(w, l.Events())
}

// DumpFile writes the log as the trace file dir/name, creating dir if
// needed.
func (l *Log) DumpFile(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	if err := l.Dump(f); err != nil {
		f.Close()
		return fmt.Errorf("recording %s: %w", name, err)
	}
	return f.Close()
}
