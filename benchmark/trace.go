package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"tmbp/internal/addr"
	"tmbp/internal/hash"
	"tmbp/internal/otable"
	"tmbp/internal/stm"
)

// Tracing is done entirely from outside the program: the harness opens a
// root span around each Thread.Atomic and child spans around each operation
// its transaction body issues, and three pass-through decorators — injected
// through the public seams stm.Config.Table, the hash.Func handed to
// otable.New, and stm.Config.NewCM — open spans around table operations,
// Index calls and contention-manager waits, with the innermost open span as
// parent. Only one transaction in spanPeriod is span-timed; counts are kept
// on every transaction.

// Layers name the repo module a span's time is charged to.
const (
	layerSTM = iota
	layerTMDS
	layerOtable
	layerHash
	layerCM
	numLayers
)

var layerNames = [numLayers]string{"stm", "tmds", "otable", "hash", "cm"}

// Span names.
const (
	nameAtomic = iota
	nameRMW
	nameGet
	namePut
	nameDelete
	nameScan
	nameAcquireRead
	nameAcquireWrite
	nameUpgrade
	nameReleaseRead
	nameReleaseWrite
	nameSampleVersion
	nameIndex
	nameCMWait
	numNames
)

var spanNames = [numNames]string{"atomic", "rmw", "get", "put", "delete", "scan",
	"acquire_read", "acquire_write", "upgrade", "release_read", "release_write",
	"sample_version", "index", "cm_wait"}

// spanPeriod is the floor of the span-sampling period; maxSpanTxns caps how
// many transactions per worker are span-timed, so a full-length run spreads
// them over the whole interval instead of filling the buffer early.
const (
	spanPeriod  = 64
	maxSpanTxns = 512
	maxSpans    = 1 << 17 // per worker
	// spanHeadroom is the free buffer space a transaction needs to be
	// span-timed at all, so that no transaction is recorded in part.
	spanHeadroom = 1 << 12
)

type span struct {
	txn        uint32 // transaction index within its worker
	parent     int32  // index of the enclosing span, -1 for a root
	layer      uint8
	name       uint8
	start, end int64 // ns since the worker's time base
}

// A tracer is one worker's span buffer and per-transaction counters. Only
// its own goroutine touches it. The zero tracer never records.
type tracer struct {
	on      bool // the current transaction is span-timed
	base    time.Time
	cur     int32 // innermost open span, -1 for none
	root    int32 // the current transaction's root span, -1 for none
	spans   []span
	dropped int // transactions not span-timed for want of buffer space
	// Counts kept on every transaction of a traced pass.
	releaseReads, releaseWrites uint64
	cmWaitNs                    int64
	_                           [64]byte // keep neighbouring tracers off this one's cache line
}

// arm makes transaction txn span-timed and opens its root span.
func (t *tracer) arm(txn uint32) {
	if cap(t.spans)-len(t.spans) < spanHeadroom {
		t.dropped++
		return
	}
	t.on = true
	t.spans = append(t.spans, span{txn: txn, parent: -1, layer: layerSTM, name: nameAtomic})
	t.root = int32(len(t.spans) - 1)
	t.cur = t.root
	t.spans[t.root].start = int64(time.Since(t.base))
}

// disarm closes the root span, and with it any span an aborted attempt left
// open.
func (t *tracer) disarm() {
	t.unwind(-1)
	t.on, t.root = false, -1
}

// unwind closes every open span inside span to. An attempt that aborts
// leaves its body-operation span open, because the conflict unwinds the
// body; the span is closed when the contention manager is next consulted,
// so it also covers the rollback.
func (t *tracer) unwind(to int32) {
	for t.cur > to {
		t.end(t.cur)
	}
}

func (t *tracer) begin(layer, name uint8) int32 {
	if len(t.spans) == cap(t.spans) {
		return -1
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{txn: t.spans[t.root].txn, parent: t.cur, layer: layer, name: name,
		start: int64(time.Since(t.base))})
	t.cur = i
	return i
}

// op opens a span when the current transaction is span-timed; otherwise it
// costs one branch.
func (t *tracer) op(layer, name uint8) int32 {
	if !t.on {
		return -1
	}
	return t.begin(layer, name)
}

func (t *tracer) end(i int32) {
	if i < 0 {
		return
	}
	t.spans[i].end = int64(time.Since(t.base))
	t.cur = t.spans[i].parent
}

// counter is an atomic on a cache line of its own.
type counter struct {
	n atomic.Uint64
	_ [56]byte
}

// stripes spreads a shared count over several lines so that two workers
// rarely bounce the same one.
type stripes [8]counter

func (s *stripes) add(b addr.Block) { s[(b^b>>3)&7].n.Add(1) }

func (s *stripes) total() uint64 {
	var n uint64
	for i := range s {
		n += s[i].n.Load()
	}
	return n
}

// traceState is what the decorators of one traced instance share.
type traceState struct {
	tracers []*tracer // by worker; worker i runs as TxID i+1
	// solo is the only worker's tracer on one-worker workloads. Index and
	// SampleVersion carry no transaction id, so on two-worker workloads
	// they are counted but not span-timed.
	solo           *tracer
	indexCalls     stripes
	versionSamples stripes
}

func newTraceState(workers int) *traceState {
	ts := &traceState{}
	for i := 0; i < workers; i++ {
		ts.tracers = append(ts.tracers, &tracer{base: time.Now(), cur: -1, root: -1, spans: make([]span, 0, maxSpans)})
	}
	if workers == 1 {
		ts.solo = ts.tracers[0]
	}
	return ts
}

func (ts *traceState) tracerFor(tx otable.TxID) *tracer { return ts.tracers[tx-1] }

// tracedHash counts and spans Index calls.
type tracedHash struct {
	hash.Func
	ts *traceState
}

func (h tracedHash) Index(b addr.Block) uint64 {
	h.ts.indexCalls.add(b)
	if t := h.ts.solo; t != nil && t.on {
		s := t.begin(layerHash, nameIndex)
		i := h.Func.Index(b)
		t.end(s)
		return i
	}
	return h.Func.Index(b)
}

// tracedTable is a pass-through ownership table. The embedded Table serves
// the methods the STM's hot path never calls on a handle-issuing table
// (plain acquires and releases, Stats, Reset); the handle and version faces
// are wrapped below.
type tracedTable struct {
	otable.Table
	ht otable.HandleTable
	vt otable.VersionTable
	ts *traceState
}

var (
	_ otable.HandleTable  = (*tracedTable)(nil)
	_ otable.BlockSlotted = (*tracedTable)(nil)
	_ otable.VersionTable = (*tracedTable)(nil)
)

func newTracedTable(tab otable.Table, ts *traceState) *tracedTable {
	return &tracedTable{Table: tab, ht: tab.(otable.HandleTable), vt: tab.(otable.VersionTable), ts: ts}
}

func (t *tracedTable) SlotsAreBlocks() bool {
	bs, ok := t.Table.(otable.BlockSlotted)
	return ok && bs.SlotsAreBlocks()
}

func (t *tracedTable) AcquireReadH(tx otable.TxID, b addr.Block) (otable.Outcome, otable.ConflictInfo, otable.Handle) {
	tr := t.ts.tracerFor(tx)
	s := tr.op(layerOtable, nameAcquireRead)
	out, ci, h := t.ht.AcquireReadH(tx, b)
	tr.end(s)
	return out, ci, h
}

func (t *tracedTable) AcquireWriteH(tx otable.TxID, b addr.Block, heldReads uint32, hnd otable.Handle) (otable.Outcome, otable.ConflictInfo, otable.Handle) {
	tr := t.ts.tracerFor(tx)
	name := uint8(nameAcquireWrite)
	if heldReads > 0 {
		name = nameUpgrade
	}
	s := tr.op(layerOtable, name)
	out, ci, h := t.ht.AcquireWriteH(tx, b, heldReads, hnd)
	tr.end(s)
	return out, ci, h
}

func (t *tracedTable) ReleaseReadH(tx otable.TxID, b addr.Block, hnd otable.Handle) {
	tr := t.ts.tracerFor(tx)
	tr.releaseReads++
	s := tr.op(layerOtable, nameReleaseRead)
	t.ht.ReleaseReadH(tx, b, hnd)
	tr.end(s)
}

func (t *tracedTable) ReleaseWriteH(tx otable.TxID, b addr.Block, hnd otable.Handle) {
	tr := t.ts.tracerFor(tx)
	tr.releaseWrites++
	s := tr.op(layerOtable, nameReleaseWrite)
	t.ht.ReleaseWriteH(tx, b, hnd)
	tr.end(s)
}

func (t *tracedTable) ReleaseWriteV(tx otable.TxID, b addr.Block, hnd otable.Handle, stamp uint64) {
	tr := t.ts.tracerFor(tx)
	tr.releaseWrites++
	s := tr.op(layerOtable, nameReleaseWrite)
	t.vt.ReleaseWriteV(tx, b, hnd, stamp)
	tr.end(s)
}

func (t *tracedTable) SampleVersion(b addr.Block) (uint64, bool) {
	t.ts.versionSamples.add(b)
	if tr := t.ts.solo; tr != nil && tr.on {
		s := tr.begin(layerOtable, nameSampleVersion)
		stamp, locked := t.vt.SampleVersion(b)
		tr.end(s)
		return stamp, locked
	}
	return t.vt.SampleVersion(b)
}

func (t *tracedTable) StampVersion(b addr.Block, stamp uint64) { t.vt.StampVersion(b, stamp) }

// tracedCM times the wait of the wrapped built-in policy. Waits are long
// against the timer and rare against commits, so every one is timed, not
// only those of span-timed transactions.
type tracedCM struct {
	inner stm.CM
	tr    *tracer
}

func (c *tracedCM) Kind() string { return c.inner.Kind() }

func (c *tracedCM) Aborted(attempt, footprint int, opp otable.ConflictInfo) {
	c.tr.unwind(c.tr.root)
	s := c.tr.op(layerCM, nameCMWait)
	t0 := time.Since(c.tr.base)
	c.inner.Aborted(attempt, footprint, opp)
	c.tr.cmWaitNs += int64(time.Since(c.tr.base) - t0)
	c.tr.end(s)
}

func (c *tracedCM) Committed(footprint int) { c.inner.Committed(footprint) }

// selfTimes sums, per layer, each span's duration minus the part of it its
// child spans cover, and returns the number of root spans seen.
func selfTimes(spans []span) (self [numLayers]int64, roots int) {
	covered := make([]int64, len(spans))
	for i := range spans {
		s := &spans[i]
		if s.parent >= 0 {
			covered[s.parent] += s.end - s.start
		} else {
			roots++
		}
	}
	for i := range spans {
		s := &spans[i]
		self[s.layer] += s.end - s.start - covered[i]
	}
	return self, roots
}

// traceDoc is the on-disk span file.
type traceDoc struct {
	Workload string     `json:"workload"`
	Period   int        `json:"span_period_txns"`
	Dropped  int        `json:"dropped_txns"`
	Spans    []spanJSON `json:"spans"`
}

type spanJSON struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for the root span of a transaction
	Worker  int    `json:"worker"`
	Txn     uint32 `json:"txn"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// writeTrace writes every worker's spans to dir/trace-<workload>.json. Span
// ids are made unique across workers by offsetting each worker's indices.
func writeTrace(dir string, in *instance, period int) (string, error) {
	doc := traceDoc{Workload: in.sp.name, Period: period}
	offset := 0
	for wi, t := range in.trace.tracers {
		doc.Dropped += t.dropped
		for i, s := range t.spans {
			parent := -1
			if s.parent >= 0 {
				parent = offset + int(s.parent)
			}
			doc.Spans = append(doc.Spans, spanJSON{ID: offset + i, Parent: parent, Worker: wi, Txn: s.txn,
				Layer: layerNames[s.layer], Name: spanNames[s.name], StartNs: s.start, EndNs: s.end})
		}
		offset += len(t.spans)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+in.sp.name+".json")
	data, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}
