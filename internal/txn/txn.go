// Package txn provides the per-thread transaction bookkeeping the paper
// describes in Section 2.1: "each thread executing transactions maintains a
// (private) per-thread log that tracks the state of the transaction (e.g.,
// active, committed) and the transaction's footprint including speculative
// values for writes."
//
// The types here are deliberately allocation-friendly: a transaction
// descriptor is reused across attempts and transactions, so steady-state
// execution allocates nothing on the fast path.
package txn

import "fmt"

// Status is the transaction state recorded in the log.
type Status uint32

// Transaction states.
const (
	Idle Status = iota
	Active
	Committed
	Aborted
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Idle:
		return "Idle"
	case Active:
		return "Active"
	case Committed:
		return "Committed"
	case Aborted:
		return "Aborted"
	default:
		return fmt.Sprintf("Status(%d)", uint32(s))
	}
}

// Desc is the per-transaction descriptor: status, attempt counter, and the
// access set carrying the written chunks' slot holdings and redo values. It
// is embedded by value in each STM thread and reused across attempts and
// transactions, so steady-state execution allocates nothing.
type Desc struct {
	Status   Status
	Attempts int // attempts of the current transaction, including the active one
	Set      AccessSet
}

// NewDesc returns a descriptor ready for its first Begin.
func NewDesc() *Desc { return &Desc{} }

// Begin marks the start of an attempt, clearing per-attempt state.
func (d *Desc) Begin() {
	d.Status = Active
	d.Attempts++
	d.Set.Reset()
}

// StartTransaction resets the attempt counter for a fresh transaction.
func (d *Desc) StartTransaction() {
	d.Attempts = 0
	d.Status = Idle
}
