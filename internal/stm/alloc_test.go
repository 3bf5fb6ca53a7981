package stm

import (
	"errors"
	"fmt"
	"testing"

	"tmbp/internal/addr"
	"tmbp/internal/otable"
)

// allocBlocks sizes the memory the allocation rows walk; allocAttempts is
// the attempt budget of the conflict-abort rows.
const (
	allocBlocks   = 32
	allocAttempts = 16
)

// allocRow is one steady-state allocation case: a runtime configuration
// and the operation measured on it.
type allocRow struct {
	name string
	kind string
	cfg  Config // newBigFootprintRuntime adds Table, Memory and Seed
	op   func(t *testing.T, rt *Runtime) func()
	want float64 // allocations per op
}

// blockWord is the address of word w of the k-th block of op i's 8-block
// window; the window slides one block per op so the rows cycle through
// every slot and recycle the tagged tables' records.
func blockWord(mem *Memory, i, k, w int) addr.Addr {
	return mem.WordAddr((i+k)%allocBlocks*8 + w)
}

// txnOp measures one committed transaction running body. Transaction
// function and op are built once: the measured loop creates no closure.
func txnOp(body func(tx *Tx, mem *Memory, i int) error) func(*testing.T, *Runtime) func() {
	return func(t *testing.T, rt *Runtime) func() {
		th, mem, i := rt.NewThread(), rt.Memory(), 0
		fn := func(tx *Tx) error { return body(tx, mem, i) }
		return func() {
			i++
			if err := th.Atomic(fn); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// rmw8 read-modify-writes one word in each of 8 blocks — a read miss and a
// write acquire per block — and reads it back through the hit path.
func rmw8(tx *Tx, mem *Memory, i int) error {
	for k := 0; k < 8; k++ {
		a := blockWord(mem, i, k, 0)
		v := tx.Read(a) + 1
		tx.Write(a, v)
		if got := tx.Read(a); got != v {
			return fmt.Errorf("read-own-write = %d, want %d", got, v)
		}
	}
	return nil
}

// read8 reads two words of each of 8 blocks: a miss, then a hit that the
// invisible protocol serves from the entry's validated snapshot.
func read8(tx *Tx, mem *Memory, i int) error {
	for k := 0; k < 8; k++ {
		tx.Read(blockWord(mem, i, k, 0))
		tx.Read(blockWord(mem, i, k, 1))
	}
	return nil
}

// read8Write1 ends the 8-block read by writing one block it read: the
// commit draws a stamp and validates the other seven.
func read8Write1(tx *Tx, mem *Memory, i int) error {
	err := read8(tx, mem, i)
	tx.Write(blockWord(mem, i, 1, 0), uint64(i))
	return err
}

// cmDecisionOp calls the policy directly, as a denied acquire would, with
// the two shapes a denial takes — a known writer and an anonymous reader
// count — on a runtime with 8 registered threads. The row runs with waits
// off.
func cmDecisionOp(_ *testing.T, rt *Runtime) func() {
	ths := make([]*Thread, 8)
	for i := range ths {
		ths[i] = rt.NewThread()
	}
	cm := ths[0].CM()
	opps := [2]otable.ConflictInfo{otable.WriterConflict(ths[1].ID()), otable.ReadersConflict(2)}
	return func() {
		for attempt := 1; attempt <= 8; attempt++ {
			cm.Aborted(attempt, 8, opps[attempt&1])
		}
		cm.Committed(8)
	}
}

// conflictAbortOp parks a foreign writer on one block and measures a
// transaction that reads three blocks and is then denied that block on
// every one of its allocAttempts attempts: acquire, denial, unwind, release
// and the policy callback allocate nothing, so the whole retry loop costs
// exactly the terminal *AbortError. It is the deterministic form of the
// contended workload, whose abort count depends on the scheduler.
func conflictAbortOp(t *testing.T, rt *Runtime) func() {
	th, mem := rt.NewThread(), rt.Memory()
	parked := mem.WordAddr(8 * 8)
	if out, _ := otable.AcquireWrite(rt.Table(), 1<<20, addr.BlockOf(parked), 0); out != otable.Granted {
		t.Fatalf("parking the foreign writer: %v", out)
	}
	fn := func(tx *Tx) error {
		for k := 0; k < 3; k++ {
			tx.Read(mem.WordAddr(k * 8))
		}
		tx.Write(parked, 1)
		return nil
	}
	return func() {
		err := th.Atomic(fn)
		if ae, ok := err.(*AbortError); !ok || ae.Attempts != allocAttempts || !errors.Is(err, ErrTooManyAttempts) {
			t.Fatalf("Atomic = %v, want ErrTooManyAttempts after %d attempts", err, allocAttempts)
		}
	}
}

// TestSteadyStateAllocationFree is the allocation gate of the transaction
// paths, identical on every host: once a thread's access set and the
// table's record pools are warm, a transaction — committing, read-only, or
// aborting on a conflict — never touches the heap,
// with Config.Recorder nil (rmw/tagged is the recorder-disabled contract),
// under every table organization, and the backoff policy's decision path
// (cm-decision/backoff) allocates nothing either.
// Wall-clock cost is benchmark/'s business; this test asserts only counts.
func TestSteadyStateAllocationFree(t *testing.T) {
	var rows []allocRow
	for _, kind := range sweepKinds() {
		rows = append(rows,
			allocRow{"rmw/" + kind, kind, Config{}, txnOp(rmw8), 0},
			allocRow{"ro-invisible/" + kind, kind, Config{}, txnOp(read8), 0},
			allocRow{"read-write-invisible/" + kind, kind, Config{}, txnOp(read8Write1), 0},
			allocRow{"conflict-abort/" + kind, kind,
				Config{MaxAttempts: allocAttempts, BackoffBase: -1}, conflictAbortOp, 1},
		)
	}
	rows = append(rows, allocRow{"cm-decision/backoff", "tagged", Config{BackoffBase: -1}, cmDecisionOp, 0})
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			rt, _, _ := newBigFootprintRuntime(t, row.kind, allocBlocks, row.cfg)
			op := row.op(t, rt)
			for i := 0; i < 2*allocBlocks; i++ {
				op() // reach steady state: every slot visited, records pooled
			}
			if allocs := testing.AllocsPerRun(100, op); allocs != row.want {
				t.Fatalf("%v allocations per op, want %v", allocs, row.want)
			}
		})
	}
}
