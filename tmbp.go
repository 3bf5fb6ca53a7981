// Package tmbp is a reproduction of Zilles & Rajwar, "Transactional Memory
// and the Birthday Paradox" (SPAA 2007): a word-based software
// transactional memory with pluggable ownership-table organizations, the
// paper's analytical conflict model, and the full experiment harness that
// regenerates every figure of its evaluation.
//
// The package is a facade over the implementation packages under internal/:
//
//   - ownership tables and the address hash family. Two lock-free
//     organizations are provided: "tagless" (Section 2.1: one packed atomic
//     word per entry, subject to the false conflicts the paper quantifies)
//     and "tagged" (Section 5: CAS-managed chains of records that carry the
//     address tag, immune to false conflicts);
//   - a complete STM runtime (begin/read/write/commit/abort, redo logging,
//     pluggable contention management; non-transactional code uses
//     Memory.LoadDirect/StoreDirect under the paper's weak isolation). Writes
//     acquire ownership of their blocks; reads acquire nothing and are
//     validated against the table's per-cell version stamps and an epoch
//     clock, so a read-only transaction never touches the table and the
//     runtime takes no read share anywhere. Its
//     per-thread bookkeeping is a single open-addressed access set: one
//     probe per transactional access, zero heap allocations in steady
//     state, and commit-time release by record handle with no table
//     re-walk. Contention management is randomized backoff between
//     retries, replaceable per runtime (STMConfig.NewCM); denied acquires
//     name the denying opponent (ConflictInfo), which the policy receives
//     on every conflict abort;
//   - the analytical model (conflict likelihood ∝ C(C−1)(1+2α)W²/2N) and
//     its birthday-paradox underpinnings;
//   - simulators and synthetic workloads reproducing Figures 2-6.
//
// # Quick start
//
//	tab, _ := tmbp.NewTable("tagged", 4096, "fibonacci")
//	mem := tmbp.NewMemory(1 << 16)
//	rt, _ := tmbp.NewSTM(tmbp.STMConfig{Table: tab, Memory: mem})
//	th := rt.NewThread()
//	_ = th.Atomic(func(tx *tmbp.Tx) error {
//	    a, b := mem.WordAddr(0), mem.WordAddr(1)
//	    tx.Write(b, tx.Read(a)+1)
//	    return nil
//	})
//
// # Reproducing the paper
//
//	tables, _ := tmbp.Figures(tmbp.PaperOptions(1))
//	for _, t := range tables {
//	    t.Render(os.Stdout)
//	}
//
// or run the bundled command: go run ./cmd/tmbp all.
package tmbp

import (
	"tmbp/internal/addr"
	"tmbp/internal/cache"
	"tmbp/internal/figures"
	"tmbp/internal/hash"
	"tmbp/internal/model"
	"tmbp/internal/otable"
	"tmbp/internal/overflow"
	"tmbp/internal/report"
	"tmbp/internal/stm"
	"tmbp/internal/trace"
)

// Core address types.
type (
	// Addr is a 64-bit virtual byte address.
	Addr = addr.Addr
	// Block is a cache-block number (64-byte granularity).
	Block = addr.Block
)

// Ownership-table types.
type (
	// Table is an ownership table: the STM metadata structure mapping
	// blocks to read/write permissions.
	Table = otable.Table
	// TableStats are a table's operation counters.
	TableStats = otable.Stats
	// TxID identifies a transaction in the ownership table.
	TxID = otable.TxID
	// Footprint tracks one transaction's table holdings, keeping each
	// holding's handle and releasing and upgrading through it.
	Footprint = otable.Footprint
	// HashFunc maps blocks to table indices.
	HashFunc = hash.Func
)

// STM types.
type (
	// STMConfig assembles an STM runtime.
	STMConfig = stm.Config
	// STM is a configured software transactional memory runtime.
	STM = stm.Runtime
	// Thread executes transactions; one per goroutine.
	Thread = stm.Thread
	// Tx is the in-transaction handle passed to Atomic bodies.
	Tx = stm.Tx
	// Memory is the word-addressable store transactions operate on.
	Memory = stm.Memory
	// STMStats are runtime-wide commit/abort counters.
	STMStats = stm.Stats
)

// CM is the per-thread contention-management policy consulted between
// transaction attempts. The built-in is randomized backoff; install a
// custom one via STMConfig.NewCM.
type CM = stm.CM

// ConflictInfo names the opponent that denied an ownership acquire (the
// owning writer's TxID, or the foreign reader count); it is delivered to
// CM policies on every conflict abort.
type ConflictInfo = otable.ConflictInfo

// AbortError is the typed error Thread.Atomic and Thread.AtomicCtx return
// when a transaction terminates without committing for a runtime reason —
// retry budget exhausted or context cancelled. It carries the attempt
// count and the opponent that denied the last conflicted acquire; unwrap
// the cause with errors.Is/errors.As.
type AbortError = stm.AbortError

// ErrTooManyAttempts is the cause wrapped by the *AbortError returned when
// the retry budget (STMConfig.MaxAttempts) is exhausted; test with
// errors.Is.
var ErrTooManyAttempts = stm.ErrTooManyAttempts

// ErrNestedAtomic is returned by Atomic/AtomicCtx when called from inside
// a running transaction's function on the same Thread; the runtime does
// not support nesting (see stm.ErrNestedAtomic).
var ErrNestedAtomic = stm.ErrNestedAtomic

// Model types.
type (
	// ModelParams parameterizes the analytical conflict model (Section 3).
	ModelParams = model.Params
)

// Reporting types.
type (
	// ReportTable is a render-ready result table.
	ReportTable = report.Table
	// FigureOptions tune the experiment harness.
	FigureOptions = figures.Options
)

// NewHash constructs an address hash by name ("mask", "fibonacci", "mix")
// for a power-of-two table size.
func NewHash(name string, entries uint64) (HashFunc, error) {
	return hash.New(name, entries)
}

// NewTable constructs an ownership table of the given kind ("tagless" or
// "tagged") with the named hash over a power-of-two entry count.
func NewTable(kind string, entries uint64, hashName string) (Table, error) {
	h, err := hash.New(hashName, entries)
	if err != nil {
		return nil, err
	}
	return otable.New(kind, h)
}

// TableKinds lists the available ownership-table organizations.
func TableKinds() []string { return otable.Kinds() }

// NewMemory allocates a zeroed word-addressable memory.
func NewMemory(words int) *Memory { return stm.NewMemory(words) }

// NewSTM builds an STM runtime from cfg.
func NewSTM(cfg STMConfig) (*STM, error) { return stm.New(cfg) }

// NewFootprint returns an empty per-transaction footprint over tab.
func NewFootprint(tab Table, tx TxID) *Footprint { return otable.NewFootprint(tab, tx) }

// ConflictLikelihood evaluates the paper's Equation 8 in saturating form:
// the probability that C lock-step transactions, each writing w blocks with
// read ratio alpha into an n-entry tagless table, suffer at least one
// alias conflict.
func ConflictLikelihood(c, w int, alpha float64, n uint64) float64 {
	p := model.Params{W: w, Alpha: alpha, C: c, N: float64(n)}
	return p.SaturatingConflict()
}

// TableSizeFor inverts the model: the minimum tagless-table size sustaining
// the given commit probability (paper, Sections 3.1-3.2).
func TableSizeFor(commitProb float64, w int, alpha float64, c int) (float64, error) {
	return model.TableSizeFor(commitProb, w, alpha, c)
}

// BirthdayCollisionProb is the classic birthday probability the paper's
// analysis reduces to: P(any collision | n choices over d slots).
func BirthdayCollisionProb(n, d int) float64 { return model.BirthdayCollisionProb(n, d) }

// Hybrid-TM substrate types: the cache simulator that models the HTM side
// of a hybrid TM, and the synthetic trace workloads.
type (
	// CacheConfig describes a simulated data cache.
	CacheConfig = cache.Config
	// TxCache is a cache with transactional footprint tracking; its first
	// lost footprint block marks HTM overflow.
	TxCache = cache.TxCache
	// TraceProfile is a per-benchmark synthetic memory-behavior model.
	TraceProfile = trace.Profile
	// Access is one block-granular memory reference.
	Access = trace.Access
	// OverflowConfig parameterizes the HTM-overflow study (Figure 3).
	OverflowConfig = overflow.Config
	// OverflowSuite is the study's aggregated output.
	OverflowSuite = overflow.SuiteResult
)

// Default32KCache returns the paper's 32 KB 4-way 64 B cache geometry with
// the given victim-buffer depth.
func Default32KCache(victims int) CacheConfig { return cache.Default32K(victims) }

// NewTxCache builds a transactional cache simulator.
func NewTxCache(cfg CacheConfig) *TxCache { return cache.New(cfg) }

// SpecProfiles returns the twelve SPEC2000-like workload profiles used by
// the Figure 3 reproduction.
func SpecProfiles() []TraceProfile { return trace.SpecProfiles() }

// NewSpecStream builds a deterministic access stream for one profile.
func NewSpecStream(p TraceProfile, seed uint64) (*trace.SpecStream, error) {
	return trace.NewSpecStream(p, seed)
}

// RunOverflowSuite measures footprints and instruction counts at HTM
// overflow across the given profiles (Figure 3).
func RunOverflowSuite(profiles []TraceProfile, cfg OverflowConfig) (OverflowSuite, error) {
	return overflow.RunSuite(profiles, cfg)
}

// Figures regenerates the paper's tables and figures at the given options;
// use FigureOptions presets via PaperOptions or QuickOptions.
func Figures(o FigureOptions) ([]*ReportTable, error) { return figures.All(o) }

// PaperOptions is the full-fidelity experiment preset (the paper's sample
// counts).
func PaperOptions(seed uint64) FigureOptions { return figures.Paper(seed) }

// QuickOptions is a ~10x cheaper preset for smoke runs.
func QuickOptions(seed uint64) FigureOptions { return figures.Quick(seed) }
