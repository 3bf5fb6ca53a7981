package otable

import "fmt"

// AuditQuiesced verifies that a table holds no ownership at all — the
// invariant every table must restore once the transactions that used it
// have completed (committed, aborted, or been cancelled). A record left
// behind after quiescence is a leak: it blocks every future acquire on its
// slot forever, the STM equivalent of a lock leaked on an error path.
//
// The check is two-sided so it covers every built-in organization:
// Occupied counts non-free first-level entries (tagless state words, tagged
// buckets with held records) and Stats().Records counts held ownership
// records on record-allocating tables. Both must be zero.
//
// AuditQuiesced takes the same snapshot reads a Stats call does; it is not
// safe to interpret while transactions are still running, since in-flight
// acquires legitimately occupy entries. The robustness suite calls it after
// every worker has returned.
func AuditQuiesced(t Table) error {
	if occ := t.Occupied(); occ != 0 {
		return fmt.Errorf("otable: %s table not quiescent: %d first-level entries still occupied", t.Kind(), occ)
	}
	if rec := t.Stats().Records; rec != 0 {
		return fmt.Errorf("otable: %s table leaked %d ownership records", t.Kind(), rec)
	}
	return nil
}
