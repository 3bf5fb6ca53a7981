package figures

import (
	"strconv"
	"strings"
	"testing"
)

func TestScaleSmoke(t *testing.T) {
	o := tiny()
	tables, err := Scale(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 3 {
		t.Fatalf("Scale returned %d tables, want org throughput/aborts + contended", len(tables))
	}
	out := renderAll(t, tables)
	for _, want := range []string{
		"Scaling: committed transactions/sec", "Scaling: abort rate",
		"tagless", "tagged", "sharded", "sharded/tagged", "GOMAXPROCS",
		"Scaling: contended hot pool",
		"txns/sec", "abort rate", "max consecutive aborts",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "fallback commits") {
		t.Errorf("fallback column without FallbackAfter:\n%s", out)
	}
	// One row per goroutine count in each table.
	for _, g := range ScaleGoroutines {
		if !strings.Contains(out, strconv.Itoa(g)) {
			t.Errorf("output missing goroutine count %d", g)
		}
	}
}

func TestScaleValidatesOptions(t *testing.T) {
	o := tiny()
	o.ScaleTxns = 0
	if _, err := Scale(o); err == nil {
		t.Fatal("zero ScaleTxns accepted")
	}
	o = tiny()
	o.Hash = "bogus"
	if _, err := Scale(o); err == nil {
		t.Fatal("unknown hash accepted")
	}
}

// TestScaleFallbackTable checks that enabling the serial fallback adds the
// fallback-commits column and annotates it with the escalation threshold.
func TestScaleFallbackTable(t *testing.T) {
	o := tiny()
	o.FallbackAfter = 4
	tables, err := Scale(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 3 {
		t.Fatalf("Scale with FallbackAfter returned %d tables, want 3", len(tables))
	}
	out := renderAll(t, tables[2:])
	for _, want := range []string{
		"fallback commits",
		"FallbackAfter=4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}
