package stm

import (
	"testing"

	"tmbp/internal/addr"
	"tmbp/internal/hash"
	"tmbp/internal/opacity"
	"tmbp/internal/otable"
)

// Tests of the tagged table's per-record version cells (internal/otable,
// version.go), on one P and on the reader's own goroutine: the writers are
// other threads' transactions run from inside the reader's body, so there
// is no scheduling to get lucky with. In each schedule a reader reads x,
// writers commit, and the reader then reads y, which every writer keeps
// equal to x; the read of y finds a stamp above rv and extends the
// snapshot, and only x's version answer can say that x moved. Each schedule
// kills one mutant of the answer — a write release that does not publish
// the record's stamp, a reaped record whose stamp is not folded into the
// bucket floor, a sample that answers from another block's record — under
// which the reader commits an old x beside a new y and the recorded history
// is not opaque.

// taggedVerEnv is the stage of one schedule: x lives in block 2, y in block
// 5, of a tagged table of 64 buckets under the mask hash, so block 2+64k
// shares x's bucket.
type taggedVerEnv struct {
	t    *testing.T
	rt   *Runtime
	tab  otable.Table
	mem  *Memory
	x, y addr.Addr
}

// commit runs one writing transaction, on a thread of its own, that stores
// v into each of words.
func (env *taggedVerEnv) commit(v uint64, words ...addr.Addr) {
	env.t.Helper()
	if err := env.rt.NewThread().Atomic(func(tx *Tx) error {
		for _, w := range words {
			tx.Write(w, v)
		}
		return nil
	}); err != nil {
		env.t.Fatal(err)
	}
}

// inXBucket returns the first word of the k-th other block in x's bucket.
func (env *taggedVerEnv) inXBucket(k int) addr.Addr { return env.mem.WordAddr((2 + 64*k) * 8) }

// runTaggedVerSchedule drives one schedule. before runs ahead of the
// reader; between runs in its first attempt, after the read of x and before
// the read of y, and must leave x = y = want. The first attempt must abort
// on validation, the retry must read want twice, and the recorded history
// must be opaque.
func runTaggedVerSchedule(t *testing.T, want uint64, before, between func(env *taggedVerEnv)) {
	t.Helper()
	onOneP(t)
	tab := otable.NewTagged(hash.NewMask(64))
	log := opacity.NewLog()
	rt, mem := newInvisibleRuntimeOn(t, tab, 4096, Config{Recorder: log})
	env := &taggedVerEnv{t: t, rt: rt, tab: tab, mem: mem, x: mem.WordAddr(16), y: mem.WordAddr(40)}
	if before != nil {
		before(env)
	}
	attempt := 0
	var vx, vy uint64
	if err := rt.NewThread().Atomic(func(tx *Tx) error {
		attempt++
		vx = tx.Read(env.x)
		if attempt == 1 {
			between(env)
		}
		vy = tx.Read(env.y)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	res, err := opacity.CheckTrace(log.Events())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Opaque {
		t.Fatalf("history %s is not opaque: the reader committed x/y = %d/%d on attempt %d", res, vx, vy, attempt)
	}
	if st := rt.Stats(); attempt != 2 || vx != want || vy != want || st.ROValidationAborts != 1 {
		t.Fatalf("reader committed x/y = %d/%d on attempt %d (%+v), want %d/%d on attempt 2 after one validation abort",
			vx, vy, attempt, st, want, want)
	}
	if occ := tab.Occupied(); occ != 0 {
		t.Fatalf("occupancy after the schedule = %d", occ)
	}
}

// TestTaggedVersionReleasePublishesStamp: a writer commits x and y while the
// reader is between them. x's record carries the commit only if the write
// release stored the stamp into it.
func TestTaggedVersionReleasePublishesStamp(t *testing.T) {
	runTaggedVerSchedule(t, 1, nil, func(env *taggedVerEnv) {
		env.commit(1, env.x, env.y)
	})
}

// TestTaggedVersionReapFoldsStamp: a writer commits x and y while the
// reader is between them, and four later commits in x's bucket push x's
// now free record past the reap depth, so the fourth one's walk condemns
// it. x then has no record and answers with the bucket floor, which carries
// the commit only if the condemned record's stamp was folded into it.
func TestTaggedVersionReapFoldsStamp(t *testing.T) {
	runTaggedVerSchedule(t, 1, nil, func(env *taggedVerEnv) {
		env.commit(1, env.x, env.y)
		for k := 1; k <= 4; k++ {
			env.commit(1, env.inXBucket(k))
		}
		if st := env.tab.Stats(); st.ChainFollows == 0 {
			t.Fatalf("no walk passed a record in x's bucket: %+v", st)
		}
	})
}

// TestTaggedVersionSampleMatchesTag: x's record sits behind a newer record
// of another block in the same bucket, committed before the reader began.
// A writer then commits x and y in place while the reader is between them.
// A sample that answered from the first record of the chain would find the
// other block's old stamp.
func TestTaggedVersionSampleMatchesTag(t *testing.T) {
	runTaggedVerSchedule(t, 2, func(env *taggedVerEnv) {
		env.commit(1, env.x, env.y)
		env.commit(1, env.inXBucket(1))
	}, func(env *taggedVerEnv) {
		env.commit(2, env.x, env.y)
	})
}
