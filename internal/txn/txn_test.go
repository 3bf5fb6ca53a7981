package txn

import "testing"

func TestDescLifecycle(t *testing.T) {
	d := NewDesc()
	if d.Status != Idle {
		t.Fatalf("initial status = %v", d.Status)
	}
	d.StartTransaction()
	d.Begin()
	if d.Status != Active || d.Attempts != 1 {
		t.Fatalf("after Begin: %v attempts=%d", d.Status, d.Attempts)
	}
	d.Set.Insert(1).Perm = PermRead
	e := d.Set.Insert(2)
	e.Perm = PermWrite | SlotWrite
	e.Vals[0], e.WMask, e.Word = 99, 1, 16
	if d.Set.Len() != 2 {
		t.Fatalf("entries = %d", d.Set.Len())
	}
	d.Status = Aborted
	d.Begin() // retry clears per-attempt state
	if d.Attempts != 2 || d.Set.Len() != 0 || d.Set.Lookup(1) != nil {
		t.Fatal("retry did not clear state")
	}
	d.Status = Committed
	d.StartTransaction()
	if d.Attempts != 0 || d.Status != Idle {
		t.Fatal("StartTransaction did not reset")
	}
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{
		Idle: "Idle", Active: "Active", Committed: "Committed", Aborted: "Aborted",
	} {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q", s, got)
		}
	}
}
