package figures

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tmbp/internal/report"
)

// tiny returns the cheapest valid options for smoke tests.
func tiny() Options {
	o := Quick(1)
	o.Samples = 60
	o.LockstepTrials = 60
	o.ClosedTrials = 2
	o.Traces = 2
	return o
}

func renderAll(t *testing.T, tables []*report.Table) string {
	t.Helper()
	var sb strings.Builder
	for _, tb := range tables {
		if err := tb.Render(&sb); err != nil {
			t.Fatal(err)
		}
	}
	return sb.String()
}

func TestOptionsValidate(t *testing.T) {
	bad := Options{}
	if _, err := Fig2(bad); err == nil {
		t.Error("zero options accepted")
	}
	neg := Quick(1)
	neg.Alpha = -1
	if _, err := Fig4(neg); err == nil {
		t.Error("negative alpha accepted")
	}
}

func TestFig2Smoke(t *testing.T) {
	tables, err := Fig2(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 3 {
		t.Fatalf("Fig2 returned %d tables, want 3 panels", len(tables))
	}
	out := renderAll(t, tables)
	for _, want := range []string{"Figure 2(a)", "Figure 2(b)", "Figure 2(c)", "256k", "W=40"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestFig3Smoke(t *testing.T) {
	tables, err := Fig3(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("Fig3 returned %d tables, want 2 panels", len(tables))
	}
	out := renderAll(t, tables)
	for _, want := range []string{"mcf", "vpr", "AVG", "utilization"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestFig4Smoke(t *testing.T) {
	tables, err := Fig4(tiny())
	if err != nil {
		t.Fatal(err)
	}
	out := renderAll(t, tables)
	for _, want := range []string{"Figure 4(a)", "Figure 4(b)", "8-4k", "2-256"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestFig5Smoke(t *testing.T) {
	tables, err := Fig5(tiny())
	if err != nil {
		t.Fatal(err)
	}
	out := renderAll(t, tables)
	for _, want := range []string{"Figure 5(a)", "Figure 5(b)", "slope"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestFig6Smoke(t *testing.T) {
	tables, err := Fig6(tiny())
	if err != nil {
		t.Fatal(err)
	}
	out := renderAll(t, tables)
	for _, want := range []string{"Figure 6(a)", "Figure 6(b)", "actual"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestSizingAnchors(t *testing.T) {
	tables, err := Sizing(tiny())
	if err != nil {
		t.Fatal(err)
	}
	out := renderAll(t, tables)
	// The paper's numbers must appear: >50k and >500k entries, 23 people.
	for _, want := range []string{"50410.0", "504100.0", "23"} {
		if !strings.Contains(out, want) {
			t.Errorf("sizing output missing %q:\n%s", want, out)
		}
	}
}

func TestTaggedSmoke(t *testing.T) {
	tables, err := Tagged(tiny())
	if err != nil {
		t.Fatal(err)
	}
	out := renderAll(t, tables)
	if !strings.Contains(out, "tagless") || !strings.Contains(out, "chain") {
		t.Errorf("tagged output incomplete:\n%s", out)
	}
	// The tagged column must be all zeros.
	if !strings.Contains(out, "0.0%") {
		t.Errorf("expected zero tagged conflict rates:\n%s", out)
	}
}

// TestAllRuns renders every figure at tiny() for both table kinds and
// compares the text with testdata/all-<kind>.txt, written on amd64. The
// files pin every simulator's random draws and table outcomes: a change
// meant to keep the figures must leave them byte-identical, and one meant
// to move them rewrites them from the new output.
func TestAllRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("All is a long smoke test")
	}
	for _, kind := range []string{"tagless", "tagged"} {
		t.Run(kind, func(t *testing.T) {
			o := tiny()
			o.Kind = kind
			tables, err := All(o)
			if err != nil {
				t.Fatal(err)
			}
			if len(tables) < 10 {
				t.Fatalf("All returned only %d tables", len(tables))
			}
			got := renderAll(t, tables)
			want, err := os.ReadFile(filepath.Join("testdata", "all-"+kind+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
				for i := 0; i < len(gl) && i < len(wl); i++ {
					if gl[i] != wl[i] {
						t.Fatalf("line %d differs from the golden file:\ngot  %s\nwant %s", i+1, gl[i], wl[i])
					}
				}
				t.Fatalf("output has %d lines, golden file %d", len(gl), len(wl))
			}
		})
	}
}

func TestCSVRendering(t *testing.T) {
	tables, err := Sizing(tiny())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := tables[0].RenderCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), "concurrency,") {
		t.Errorf("CSV header wrong: %s", sb.String())
	}
}
