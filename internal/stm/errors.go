package stm

import (
	"errors"
	"fmt"

	"tmbp/internal/otable"
)

// ErrTooManyAttempts is the sentinel wrapped by the *AbortError Atomic
// returns when a transaction exceeds MaxAttempts without committing; test
// for it with errors.Is.
var ErrTooManyAttempts = errors.New("stm: transaction exceeded maximum attempts")

// ErrNestedAtomic is returned by Atomic and AtomicCtx when called on a
// Thread whose transaction is still executing — from inside the running
// transaction's own function. The runtime does not support nesting: a
// Thread owns exactly one reusable access set and read log, so a nested
// transaction would silently corrupt the enclosing one's log. The nested
// call fails without touching the enclosing transaction, which remains
// active and can still commit. Compose transactional work into one Atomic
// body instead, or give concurrent work its own Thread.
var ErrNestedAtomic = errors.New("stm: nested Atomic call on a Thread whose transaction is still active")

// AbortError is the error Atomic and AtomicCtx return when a transaction
// terminates without committing for a runtime reason — the attempt budget
// ran out (ErrTooManyAttempts) or the context was cancelled (the ctx.Err()).
// Beyond the wrapped cause it carries what the retry loop knew when it gave
// up: how many attempts ran and which opponent denied the last conflicted
// acquire, so callers can log who starved them.
//
// errors.Is sees through it to the cause: errors.Is(err, ErrTooManyAttempts)
// for budget exhaustion, errors.Is(err, context.Canceled) or
// errors.Is(err, context.DeadlineExceeded) for cancellation. User errors
// returned by the transaction function are never wrapped — they are
// returned unchanged, exactly as before.
type AbortError struct {
	// Attempts is the number of attempts the transaction ran (0 when the
	// context was already cancelled on entry).
	Attempts int
	// Conflict names the opponent that denied the transaction's last
	// conflicted acquire; NoConflict when no attempt ever conflicted.
	Conflict otable.ConflictInfo
	// err is the cause: ErrTooManyAttempts or the context's error.
	err error
}

// Error formats the cause with the attempt count and, when one was
// recorded, the starving opponent.
func (e *AbortError) Error() string {
	if e.Conflict.Valid() {
		return fmt.Sprintf("%v (%d attempts; last conflict: %v)", e.err, e.Attempts, e.Conflict)
	}
	return fmt.Sprintf("%v (%d attempts)", e.err, e.Attempts)
}

// Unwrap exposes the cause to errors.Is/errors.As.
func (e *AbortError) Unwrap() error { return e.err }

// abortError builds the terminal error for the current transaction.
func (th *Thread) abortError(cause error) *AbortError {
	return &AbortError{Attempts: th.attempts, Conflict: th.opp, err: cause}
}
