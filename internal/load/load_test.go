package load

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"time"

	"tmbp/internal/xrand"
)

// TestArrivalsFixed pins the fixed process: at 10^9 arrivals/s the
// schedule is exactly 1, 2, 3, ... nanoseconds.
func TestArrivalsFixed(t *testing.T) {
	a, err := NewArrivals("fixed", 1e9, nil)
	if err != nil {
		t.Fatal(err)
	}
	for want := int64(1); want <= 1000; want++ {
		if got := a.Next(); got != want {
			t.Fatalf("arrival %d = %d", want, got)
		}
	}
}

// TestArrivalsPoisson checks the Poisson process is monotone and hits its
// mean rate: 100k exponential gaps at rate 1e6/s should average 1000ns
// within a few standard errors.
func TestArrivalsPoisson(t *testing.T) {
	a, err := NewArrivals("poisson", 1e6, xrand.New(11))
	if err != nil {
		t.Fatal(err)
	}
	const n = 100000
	var prev, last int64
	for i := 0; i < n; i++ {
		next := a.Next()
		if next < prev {
			t.Fatalf("arrival %d = %d went backward from %d", i, next, prev)
		}
		prev, last = next, next
	}
	mean := float64(last) / n
	// Std error of the mean gap is 1000/sqrt(n) ≈ 3.2ns; allow 5 sigma.
	if math.Abs(mean-1000) > 16 {
		t.Fatalf("mean inter-arrival %vns, want 1000±16", mean)
	}
}

// TestArrivalsRejectsBadConfig pins the constructor's error contract.
func TestArrivalsRejectsBadConfig(t *testing.T) {
	if _, err := NewArrivals("bursty", 1e6, nil); err == nil {
		t.Error("unknown process accepted")
	}
	if _, err := NewArrivals("fixed", 0, nil); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := NewArrivals("fixed", -1, nil); err == nil {
		t.Error("negative rate accepted")
	}
}

// TestVirtualClock pins the deterministic clock: waiting advances time
// instantly and never moves it backward.
func TestVirtualClock(t *testing.T) {
	c := NewVirtualClock()
	if c.Now() != 0 {
		t.Fatalf("fresh clock at %d", c.Now())
	}
	c.WaitUntil(100)
	if c.Now() != 100 {
		t.Fatalf("clock at %d after WaitUntil(100)", c.Now())
	}
	c.WaitUntil(50)
	if c.Now() != 100 {
		t.Fatalf("clock moved backward to %d", c.Now())
	}
}

// TestWallClock sanity-checks the real clock: time is monotone and a wait
// really waits.
func TestWallClock(t *testing.T) {
	c := NewWallClock()
	start := c.Now()
	c.WaitUntil(start + int64(2e6)) // 2ms
	if got := c.Now(); got < start+int64(2e6) {
		t.Fatalf("WaitUntil returned at %d, target %d", got, start+int64(2e6))
	}
}

// TestPlanDeterministic pins that the pre-drawn workload is a pure
// function of the scenario.
func TestPlanDeterministic(t *testing.T) {
	sc, err := Scenario{Ops: 500, Virtual: true}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	a, err := plan(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := plan(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two plans of the same scenario differ")
	}
	// Keys stay inside the key space; sizes are at least one.
	for i := range a {
		if len(a[i].ops) < 1 {
			t.Fatalf("transaction %d has no operations", i)
		}
		for _, op := range a[i].ops {
			if op.key >= uint64(sc.Keys) {
				t.Fatalf("key %d outside [0, %d)", op.key, sc.Keys)
			}
		}
	}
}

// TestPlanStreamsIndependent pins the stream split: changing the content
// parameters must not move the arrival schedule.
func TestPlanStreamsIndependent(t *testing.T) {
	base, err := Scenario{Ops: 300, Virtual: true}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	skewed := base
	skewed.ZipfS = 1.3
	skewed.ReadFrac = 0.2
	a, err := plan(base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := plan(skewed)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].arrival != b[i].arrival {
			t.Fatalf("arrival %d moved from %d to %d when content parameters changed",
				i, a[i].arrival, b[i].arrival)
		}
	}
}

// TestVirtualRowsByteIdentical is the determinism contract of `tmbp load
// -virtual`: two runs of the same seeded scenario marshal to identical
// bytes, and a different seed produces a different row.
func TestVirtualRowsByteIdentical(t *testing.T) {
	for _, kind := range []string{"hashmap", "list", "queue"} {
		sc := Scenario{Struct: kind, Ops: 2000, Virtual: true}
		r1, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		b1, _ := json.Marshal(r1.Row)
		b2, _ := json.Marshal(r2.Row)
		if !bytes.Equal(b1, b2) {
			t.Fatalf("%s: reruns differ:\n%s\n%s", kind, b1, b2)
		}
		sc.Seed = 2
		r3, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		if r3.Row.P50Ns == r1.Row.P50Ns && r3.Row.ElapsedNs == r1.Row.ElapsedNs &&
			r3.Row.MeanNs == r1.Row.MeanNs {
			t.Fatalf("%s: seed change left the row identical", kind)
		}
	}
}

// TestVirtualRowsGolden pins the default `tmbp load -virtual` sweep across
// commits, not only across reruns. A mismatch means the generator, the
// histogram or the workload semantics changed.
func TestVirtualRowsGolden(t *testing.T) {
	type golden struct {
		elapsed, p50, p99, p999, max int64
		commits, aborts              uint64
	}
	point := golden{10064409, 748, 4224, 6400, 9000, 20000, 0}
	scan := golden{10063844, 748, 4416, 6240, 8590, 20000, 0}
	// The CLI's rows: ZipfS 0.9 is its -zipf default, everything unset is
	// the Scenario default. Only a scan changes the transaction sizes; the
	// structure, the read fraction and the read protocol must not.
	for _, c := range []struct {
		sc   Scenario
		want golden
	}{
		{Scenario{Struct: "hashmap"}, point},
		{Scenario{Struct: "list"}, point},
		{Scenario{Struct: "queue"}, point},
		{Scenario{Struct: "skiplist"}, point},
		{Scenario{Struct: "hashmap", ReadFrac: 0.9}, point},
		{Scenario{Struct: "hashmap", ReadFrac: 0.9, Invisible: true}, point},
		{Scenario{Struct: "skiplist", ScanFrac: 0.25, ScanSpan: 64}, scan},
		{Scenario{Struct: "skiplist", ScanFrac: 0.25, ScanSpan: 64, Invisible: true}, scan},
	} {
		c.sc.ZipfS, c.sc.Virtual = 0.9, true
		res, err := Run(c.sc)
		if err != nil {
			t.Fatal(err)
		}
		r := res.Row
		if got := (golden{r.ElapsedNs, r.P50Ns, r.P99Ns, r.P999Ns, r.MaxNs, r.Commits, r.Aborts}); got != c.want {
			t.Errorf("%s read=%v scan=%v invisible=%v: row %+v, want %+v",
				r.Struct, r.ReadFrac, r.ScanFrac, r.Invisible, got, c.want)
		}
	}
}

// TestVirtualLatencyMath hand-checks the discrete-event simulation on two
// closed-form cases.
func TestVirtualLatencyMath(t *testing.T) {
	// Uncontended: 1 worker, one op per transaction (MeanOps=1 makes the
	// geometric draw constant), arrivals every 1000ns, service 100ns —
	// no queueing, so every latency is exactly the service time.
	sc := Scenario{
		Arrival: "fixed", RatePerSec: 1e6, Workers: 1, Ops: 50,
		MeanOps: 1, ServiceNs: 100, Virtual: true, Bits: 12,
	}
	r, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if r.Hist.Min() != 100 || r.Hist.Max() != 100 || r.Row.P50Ns != 100 {
		t.Fatalf("uncontended: min/max/p50 = %d/%d/%d, want all 100",
			r.Hist.Min(), r.Hist.Max(), r.Row.P50Ns)
	}
	// Last arrival is at 50·1000ns; it completes 100ns later.
	if r.Row.ElapsedNs != 50*1000+100 {
		t.Fatalf("uncontended: elapsed %d, want %d", r.Row.ElapsedNs, 50*1000+100)
	}
	// Saturated: arrivals every 1ns, service 100ns, one server. The i-th
	// transaction (1-based) arrives at i and completes at 1 + 100·i, so
	// the last latency — and the maximum — is 1 + 100·50 − 50.
	sc.RatePerSec = 1e9
	r, err = Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(1 + 100*50 - 50); r.Hist.Max() != want {
		t.Fatalf("saturated: max latency %d, want %d", r.Hist.Max(), want)
	}
	if want := int64(1 + 100*50); r.Row.ElapsedNs != want {
		t.Fatalf("saturated: elapsed %d, want %d", r.Row.ElapsedNs, want)
	}
	if r.Row.Commits != 50 || r.Row.Aborts != 0 {
		t.Fatalf("saturated: commits/aborts = %d/%d, want 50/0", r.Row.Commits, r.Row.Aborts)
	}
}

// TestWallClockRun exercises the concurrent mode end to end: all
// transactions are recorded, every one commits (possibly after retries),
// and the row's counters are consistent.
func TestWallClockRun(t *testing.T) {
	sc := Scenario{
		Struct: "hashmap", Table: "tagless",
		RatePerSec: 5e5, Workers: 4, Ops: 3000, Keys: 64, ZipfS: 1.1,
	}
	r, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if r.Hist.Count() != uint64(sc.Ops) {
		t.Fatalf("recorded %d latencies, want %d", r.Hist.Count(), sc.Ops)
	}
	if r.Row.Commits < uint64(sc.Ops) {
		t.Fatalf("commits %d below op count %d", r.Row.Commits, sc.Ops)
	}
	if r.Row.ElapsedNs <= 0 || r.Row.ThroughputTPS <= 0 {
		t.Fatalf("degenerate elapsed/throughput: %d / %v", r.Row.ElapsedNs, r.Row.ThroughputTPS)
	}
	if r.Row.P50Ns > r.Row.P99Ns || r.Row.P99Ns > r.Row.P999Ns || r.Row.P999Ns > r.Row.MaxNs {
		t.Fatalf("quantiles not monotone: p50=%d p99=%d p999=%d max=%d",
			r.Row.P50Ns, r.Row.P99Ns, r.Row.P999Ns, r.Row.MaxNs)
	}
}

// TestWallClockAnchoredAtDispatch is the regression test for the wall-mode
// anchoring bug: the clock used to start at runWall entry, so the time spent
// allocating histograms and registering worker threads counted against the
// earliest scheduled arrivals — they were already "late" at dispatch and fired
// as a burst whose recorded latency was really setup time. The hook stretches
// that setup window to a grotesque 80ms; with the anchor at dispatch start,
// none of it may leak into the measured tail.
func TestWallClockAnchoredAtDispatch(t *testing.T) {
	const pause = 80 * time.Millisecond
	wallSetupHook = func() { time.Sleep(pause) }
	defer func() { wallSetupHook = nil }()
	sc := Scenario{
		Struct: "hashmap", Table: "tagless",
		RatePerSec: 1e6, Workers: 2, Ops: 500, Keys: 256,
	}
	r, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if r.Hist.Count() != uint64(sc.Ops) {
		t.Fatalf("recorded %d latencies, want %d", r.Hist.Count(), sc.Ops)
	}
	// Every latency inherited the full pause before the fix. Half of it is
	// a generous ceiling for 500 hashmap transactions on two workers.
	if max := time.Duration(r.Hist.Max()); max >= pause/2 {
		t.Fatalf("max latency %v carries the %v setup pause: clock anchored before dispatch", max, pause)
	}
}

// TestNormalizeValidates pins the scenario validation errors.
func TestNormalizeValidates(t *testing.T) {
	bad := []Scenario{
		{Struct: "btree"},
		{Table: "cuckoo"},
		{Arrival: "bursty"},
		{RatePerSec: -1},
		{Workers: -1},
		{Ops: -1},
		{Keys: -1},
		{ZipfS: -0.5},
		{ReadFrac: 1.5},
		{ScanFrac: -0.1},
		{ScanFrac: 1.5},
		{ScanSpan: -4},
		{MeanOps: 0.5},
		{ServiceNs: -1},
		{Bits: 13},
		{TableEntries: 3},
	}
	for i, sc := range bad {
		if _, err := sc.Normalize(); err == nil {
			t.Errorf("case %d (%+v): invalid scenario accepted", i, sc)
		}
	}
	got, err := Scenario{}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if got.Struct != "hashmap" || got.Workers != 4 || got.Bits != 7 {
		t.Fatalf("defaults not applied: %+v", got)
	}
}

// TestScanScenario pins the range-scan extension of the generator: scan
// operations only exist when asked for, they ride the same content stream
// without moving arrivals, scan rows are byte-reproducible in virtual mode,
// and structures without a scan face are rejected up front.
func TestScanScenario(t *testing.T) {
	sc := Scenario{Struct: "skiplist", ScanFrac: 0.25, ScanSpan: 32,
		Ops: 1000, Keys: 256, Virtual: true}
	norm, err := sc.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	txns, err := plan(norm)
	if err != nil {
		t.Fatal(err)
	}
	scans, total := 0, 0
	for i := range txns {
		for _, op := range txns[i].ops {
			total++
			if op.scan {
				scans++
			}
		}
	}
	if frac := float64(scans) / float64(total); frac < 0.18 || frac > 0.32 {
		t.Fatalf("scan fraction %v (%d/%d ops), want near 0.25", frac, scans, total)
	}
	// The scan draw must not move the arrival schedule.
	noScan := norm
	noScan.ScanFrac = 0
	base, err := plan(noScan)
	if err != nil {
		t.Fatal(err)
	}
	for i := range base {
		if base[i].arrival != txns[i].arrival {
			t.Fatalf("arrival %d moved from %d to %d when scans were enabled",
				i, base[i].arrival, txns[i].arrival)
		}
	}
	// Byte-reproducible rows, with the scan fraction recorded.
	r1, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := json.Marshal(r1.Row)
	b2, _ := json.Marshal(r2.Row)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("scan-scenario reruns differ:\n%s\n%s", b1, b2)
	}
	if r1.Row.ScanFrac != 0.25 {
		t.Fatalf("row scan_frac = %v, want 0.25", r1.Row.ScanFrac)
	}
	// Structures without a scan face fail fast, not mid-run.
	if _, err := Run(Scenario{Struct: "hashmap", ScanFrac: 0.25, Ops: 10, Virtual: true}); err == nil {
		t.Fatal("hashmap scenario with scans accepted")
	}
}
