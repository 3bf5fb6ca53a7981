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
// the read of y, and must leave x = y = want; after, if not nil, runs in the
// first attempt after the read of y. The reader must commit on attempt
// attempts, after attempts-1 validation aborts, having read want twice, and
// the recorded history must be opaque.
func runTaggedVerSchedule(t *testing.T, want uint64, attempts int, before, between, after func(env *taggedVerEnv)) {
	t.Helper()
	onOneP(t)
	tab := otable.NewTagged(hash.NewMask(64))
	cfg := Config{}
	log := attachRecorder(t, &cfg)
	if log == nil {
		log = opacity.NewLog()
		cfg.Recorder = log
	}
	rt, mem := newInvisibleRuntimeOn(t, tab, 4096, cfg)
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
		if attempt == 1 && after != nil {
			after(env)
		}
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
	if st := rt.Stats(); attempt != attempts || vx != want || vy != want || st.ROValidationAborts != uint64(attempts-1) {
		t.Fatalf("reader committed x/y = %d/%d on attempt %d (%+v), want %d/%d on attempt %d after %d validation aborts",
			vx, vy, attempt, st, want, want, attempts, attempts-1)
	}
	if occ := tab.Occupied(); occ != 0 {
		t.Fatalf("occupancy after the schedule = %d", occ)
	}
}

// TestTaggedVersionReleasePublishesStamp: a writer commits x and y while the
// reader is between them. x's record carries the commit only if the write
// release stored the stamp into it.
func TestTaggedVersionReleasePublishesStamp(t *testing.T) {
	runTaggedVerSchedule(t, 1, 2, nil, func(env *taggedVerEnv) {
		env.commit(1, env.x, env.y)
	}, nil)
}

// TestTaggedVersionReapFoldsStamp: a writer commits x and y while the
// reader is between them, and four later commits in x's bucket push x's
// now free record past the reap depth, so the fourth one's walk condemns
// it. x then has no record and answers with the bucket floor, which carries
// the commit only if the condemned record's stamp was folded into it.
func TestTaggedVersionReapFoldsStamp(t *testing.T) {
	runTaggedVerSchedule(t, 1, 2, nil, func(env *taggedVerEnv) {
		env.commit(1, env.x, env.y)
		for k := 1; k <= 4; k++ {
			env.commit(1, env.inXBucket(k))
		}
		if st := env.tab.Stats(); st.ChainFollows == 0 {
			t.Fatalf("no walk passed a record in x's bucket: %+v", st)
		}
	}, nil)
}

// TestTaggedVersionSampleMatchesTag: x's record sits behind a newer record
// of another block in the same bucket, committed before the reader began.
// A writer then commits x and y in place while the reader is between them.
// A sample that answered from the first record of the chain would find the
// other block's old stamp.
func TestTaggedVersionSampleMatchesTag(t *testing.T) {
	runTaggedVerSchedule(t, 2, 2, func(env *taggedVerEnv) {
		env.commit(1, env.x, env.y)
		env.commit(1, env.inXBucket(1))
	}, func(env *taggedVerEnv) {
		env.commit(2, env.x, env.y)
	}, nil)
}

// TestTaggedVersionReapBelowRv: a floor that rises to a stamp at most rv
// fails no read. x's record is reaped before the reader begins, so x answers
// with the bucket floor, and y's record d is parked deepest in x's bucket.
// The reader reads x; a writer claims d in place and commits y; the reader
// reads y, whose stamp is above rv, and extends. A later insert into the
// bucket then walks past d, reaps it and folds its stamp — now at most the
// reader's rv — into the floor x answers with, and the reader commits read
// only on a moved clock. Validated against the current rv, x passes and the
// reader commits on its first attempt; a read set that kept x's bound at the
// rv its read was taken at fails x there and takes a second attempt.
func TestTaggedVersionReapBelowRv(t *testing.T) {
	runTaggedVerSchedule(t, 1, 1, func(env *taggedVerEnv) {
		env.y = env.inXBucket(1) // d
		env.commit(1, env.x)
		env.commit(0, env.y)
		for k := 2; k <= 4; k++ {
			env.commit(0, env.inXBucket(k))
		}
		// The walk of the last insert reaped x's record: the chain is k4, k3,
		// k2, d, and x answers with the floor.
	}, func(env *taggedVerEnv) {
		env.commit(1, env.y)
	}, func(env *taggedVerEnv) {
		stampY, _ := env.tab.SampleVersion(addr.BlockOf(env.y))
		env.commit(1, env.inXBucket(5))
		if s, _ := env.tab.SampleVersion(addr.BlockOf(env.x)); s != stampY {
			t.Fatalf("x answers %d after the insert, want y's stamp %d folded into the floor", s, stampY)
		}
	})
}
