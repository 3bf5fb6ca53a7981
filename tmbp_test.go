package tmbp

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestNewTableKinds(t *testing.T) {
	for _, kind := range TableKinds() {
		for _, h := range []string{"mask", "fibonacci", "mix"} {
			tab, err := NewTable(kind, 1024, h)
			if err != nil {
				t.Fatalf("NewTable(%s, %s): %v", kind, h, err)
			}
			if tab.Kind() != kind || tab.N() != 1024 {
				t.Fatalf("table metadata wrong: %s %d", tab.Kind(), tab.N())
			}
		}
	}
	if _, err := NewTable("bogus", 1024, "mask"); err == nil {
		t.Error("bogus kind accepted")
	}
	if _, err := NewTable("tagless", 1000, "mask"); err == nil {
		t.Error("non-power-of-two size accepted")
	}
}

func TestFacadeSTMEndToEnd(t *testing.T) {
	for _, kind := range TableKinds() {
		t.Run(kind, func(t *testing.T) {
			tab, err := NewTable(kind, 4096, "fibonacci")
			if err != nil {
				t.Fatal(err)
			}
			mem := NewMemory(1 << 10)
			rt, err := NewSTM(STMConfig{Table: tab, Memory: mem, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			const goroutines, each = 4, 100
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					th := rt.NewThread()
					for i := 0; i < each; i++ {
						if err := th.Atomic(func(tx *Tx) error {
							a := mem.WordAddr(0)
							tx.Write(a, tx.Read(a)+1)
							return nil
						}); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			if got := mem.LoadDirect(mem.WordAddr(0)); got != goroutines*each {
				t.Fatalf("counter = %d, want %d", got, goroutines*each)
			}
			st := rt.Stats()
			if st.Commits != goroutines*each {
				t.Fatalf("commits = %d, want %d", st.Commits, goroutines*each)
			}
		})
	}
}

func TestConflictLikelihoodFacade(t *testing.T) {
	// The Figure 4(a) anchor through the public API.
	got := ConflictLikelihood(2, 8, 2, 512)
	if math.Abs(got-0.48) > 0.03 {
		t.Fatalf("ConflictLikelihood = %v, want ~0.48", got)
	}
}

func TestTableSizeForFacade(t *testing.T) {
	n, err := TableSizeFor(0.5, 71, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if n < 50000 || n > 51000 {
		t.Fatalf("TableSizeFor = %v, want just over 50k", n)
	}
}

func TestBirthdayFacade(t *testing.T) {
	if p := BirthdayCollisionProb(23, 365); p <= 0.5 {
		t.Fatalf("23 people: %v", p)
	}
}

func TestQuickOptionsRunFig(t *testing.T) {
	o := QuickOptions(1)
	o.Samples = 50
	o.LockstepTrials = 50
	o.ClosedTrials = 2
	o.Traces = 2
	tables, err := Figures(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) < 10 {
		t.Fatalf("Figures returned %d tables", len(tables))
	}
	var sb strings.Builder
	for _, tb := range tables {
		if err := tb.Render(&sb); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range []string{"Figure 2(a)", "Figure 3(a)", "Figure 4(a)", "Figure 5(a)", "Figure 6(a)", "Section 5"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("missing %q in rendered figures", want)
		}
	}
}
