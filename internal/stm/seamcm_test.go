package stm

import (
	"runtime"
	"sync"
	"sync/atomic"

	"tmbp/internal/otable"
	"tmbp/internal/xrand"
)

// The policy-sweeping suites (the CM schedule scenarios, the hammers, the
// recorded-opacity check and the unified-log oracle) run every case under
// five contention managers. "backoff" is the runtime's one built-in. The
// other four exist only in this file: they are custom policies installed
// through Config.NewCM and built from nothing but the exported seam —
// Thread.ID, Thread.Cancelled and the otable.ConflictInfo handed to
// Aborted — keeping their shared state on a board of their own. They carry
// the names and decision rules of the built-ins the runtime used to ship
// (EWMA-scaled backoff, seniority by invested work, waiting for the senior
// opponent, rate-driven switching), so the suites keep proving what the
// seam promises: a policy, however it waits, only reschedules retries and
// never changes what commits, and a wait that polls Thread.Cancelled ends
// on cancellation.

// cmPolicies lists the policy axis of the sweeping suites.
func cmPolicies() []string {
	return []string{"backoff", "adaptive", "karma", "timestamp", "switching"}
}

// withPolicy installs policy on cfg: the built-in for "backoff", otherwise
// a seam policy whose threads share one fresh board — so call it once per
// runtime.
func withPolicy(cfg *Config, policy string) {
	if policy == "backoff" {
		return
	}
	base := cfg.BackoffBase
	if base == 0 {
		base = 4 // New's default
	}
	board := &seamBoard{slots: map[otable.TxID]*seamSlot{}}
	seed := cfg.Seed
	cfg.NewCM = func(th *Thread) CM {
		return &seamCM{
			kind:  policy,
			th:    th,
			rng:   xrand.NewWithStream(xrand.Mix64(seed), uint64(th.ID())),
			board: board,
			me:    board.register(th.ID()),
			base:  base,
		}
	}
}

// seamBoard is the seam policies' own registry of per-thread published
// state, keyed by the TxID a ConflictInfo names.
type seamBoard struct {
	clock atomic.Uint64 // timestamp source; 0 means "unstamped"
	mu    sync.Mutex
	slots map[otable.TxID]*seamSlot
}

// seamSlot is one thread's published state: its karma, its transaction's
// timestamp, and a count of finished attempts (bumped as each attempt's
// rollback or commit hands control to the policy, i.e. once the attempt's
// slots are released).
type seamSlot struct {
	id                 otable.TxID
	karma, stamp, done atomic.Uint64
}

func (b *seamBoard) register(id otable.TxID) *seamSlot {
	s := &seamSlot{id: id}
	b.mu.Lock()
	b.slots[id] = s
	b.mu.Unlock()
	return s
}

func (b *seamBoard) lookup(id otable.TxID) *seamSlot {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.slots[id]
}

// seamCM is one thread's seam policy; kind selects the decision rule.
type seamCM struct {
	kind     string
	th       *Thread
	rng      *xrand.Rand
	board    *seamBoard
	me       *seamSlot
	base     int
	rate     float64 // adaptive/switching: EWMA of conflict outcomes
	karma    uint64
	stamp    uint64
	opponent bool // switching: running the timestamp rule
}

func (c *seamCM) Kind() string { return c.kind }

func (c *seamCM) Aborted(attempt, footprint int, opp otable.ConflictInfo) {
	c.me.done.Add(1)
	switch c.kind {
	case "adaptive":
		c.rate += (1 - c.rate) / 8
		c.backoff(attempt, c.base+int(c.rate*float64(backoffMax-c.base)))
	case "karma":
		c.karma += uint64(footprint) + 1
		c.me.karma.Store(c.karma)
		if c.senior(opp) {
			c.backoff(attempt, c.seniorCap())
		} else {
			c.backoff(attempt, backoffMax)
		}
	case "timestamp":
		c.byAge(attempt, opp)
	case "switching":
		c.rate += (1 - c.rate) / 8
		if c.rate >= 0.5 {
			c.opponent = true
		}
		if c.opponent {
			c.byAge(attempt, opp)
		} else {
			c.backoff(attempt, backoffMax)
		}
	}
}

func (c *seamCM) Committed(int) {
	c.me.done.Add(1)
	c.rate -= c.rate / 8
	if c.rate <= 0.125 {
		c.opponent = false
	}
	c.karma, c.stamp = 0, 0
	c.me.karma.Store(0)
	c.me.stamp.Store(0)
}

// backoff yields a random 1..limit times, limit = base<<(attempt-1) capped
// at max, polling Thread.Cancelled on every yield.
func (c *seamCM) backoff(attempt, max int) {
	if c.base < 0 {
		return
	}
	limit := min(c.base<<uint(min(attempt-1, 20)), max)
	if limit <= 0 {
		return
	}
	for n := c.rng.Intn(limit) + 1; n > 0 && !c.th.Cancelled(); n-- {
		runtime.Gosched()
	}
}

// seniorCap is the senior side's short leash: an eighth of the budget.
func (c *seamCM) seniorCap() int { return max(backoffMax/8, 1) }

// senior ranks this thread by (karma, ID) against the named writer, or
// against every registered thread when the denial is anonymous.
func (c *seamCM) senior(opp otable.ConflictInfo) bool {
	loses := func(o *seamSlot) bool {
		k := o.karma.Load()
		return k > c.karma || (k == c.karma && o.id > c.me.id)
	}
	if w, ok := opp.Writer(); ok {
		if o := c.board.lookup(w); o != nil && o != c.me {
			return !loses(o)
		}
	}
	c.board.mu.Lock()
	defer c.board.mu.Unlock()
	for _, o := range c.board.slots {
		if o != c.me && loses(o) {
			return false
		}
	}
	return true
}

// byAge is the timestamp rule: stamp the transaction on its first abort;
// against an older writer, wait for that writer to finish an attempt;
// otherwise retry on the senior leash, or back off blindly when the
// opponent is anonymous.
func (c *seamCM) byAge(attempt int, opp otable.ConflictInfo) {
	if c.stamp == 0 {
		c.stamp = c.board.clock.Add(1)
		c.me.stamp.Store(c.stamp)
	}
	if c.base < 0 {
		return
	}
	w, ok := opp.Writer()
	if !ok {
		c.backoff(attempt, backoffMax)
		return
	}
	o := c.board.lookup(w)
	if o == nil || o == c.me {
		c.backoff(attempt, backoffMax)
		return
	}
	s := o.stamp.Load()
	if s == 0 || s >= c.stamp {
		c.backoff(attempt, c.seniorCap())
		return
	}
	done := o.done.Load()
	for i := 0; i < backoffMax && !c.th.Cancelled(); i++ {
		runtime.Gosched()
		if o.done.Load() != done || o.stamp.Load() != s {
			return
		}
	}
}
