package otable

import "fmt"

// AuditQuiesced verifies that a table holds no ownership at all — the
// invariant every table must restore once the transactions that used it
// have completed (committed, aborted, or been cancelled). A record left
// behind after quiescence is a leak: it blocks every future acquire on its
// slot forever, the STM equivalent of a lock leaked on an error path.
//
// Occupied counts held slots (tagless state words, tagged records); it must
// be zero.
//
// AuditQuiesced takes the same snapshot reads a Stats call does; it is not
// safe to interpret while transactions are still running, since in-flight
// acquires legitimately occupy entries. The robustness suite calls it after
// every worker has returned.
func AuditQuiesced(t Table) error {
	if occ := t.Occupied(); occ != 0 {
		return fmt.Errorf("otable: %s table not quiescent: %d slots still occupied", t.Kind(), occ)
	}
	return nil
}
