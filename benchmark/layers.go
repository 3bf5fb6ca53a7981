package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"tmbp"
	"tmbp/internal/txn"
)

// perLayer declares the per-layer metrics, named layer.metric after the
// repo's modules. README.md says which end-to-end metric each should move,
// and on which workload. Costs and counts of work are better lower; the few
// that are better higher say so by omission.
var perLayer = []metricDef{
	{name: "hash.index_ns", unit: "ns", lowerBetter: true},
	{name: "hash.index_calls_per_commit", unit: "1/commit", lowerBetter: true},

	{name: "otable.read_acquires_per_commit", unit: "1/commit", lowerBetter: true},
	{name: "otable.write_acquires_per_commit", unit: "1/commit", lowerBetter: true},
	{name: "otable.upgrades_per_commit", unit: "1/commit", lowerBetter: true},
	{name: "otable.releases_per_commit", unit: "1/commit", lowerBetter: true},
	{name: "otable.release_walks_per_release", unit: "ratio", lowerBetter: true},
	{name: "otable.chain_follows_per_acquire", unit: "ratio", lowerBetter: true},
	{name: "otable.version_samples_per_commit", unit: "1/commit", lowerBetter: true},
	{name: "otable.conflicts_per_attempt", unit: "ratio", lowerBetter: true},
	{name: "otable.acquire_read_ns", unit: "ns", lowerBetter: true},
	{name: "otable.acquire_write_ns", unit: "ns", lowerBetter: true},
	{name: "otable.upgrade_ns", unit: "ns", lowerBetter: true},
	{name: "otable.release_read_ns", unit: "ns", lowerBetter: true},
	{name: "otable.release_write_ns", unit: "ns", lowerBetter: true},
	{name: "otable.sample_version_ns", unit: "ns", lowerBetter: true},
	{name: "otable.denied_acquire_ns", unit: "ns", lowerBetter: true},
	{name: "otable.ns_per_commit", unit: "ns", lowerBetter: true},

	{name: "txn.lookup_hit_ns", unit: "ns", lowerBetter: true},
	{name: "txn.insert_ns", unit: "ns", lowerBetter: true},
	{name: "txn.lookup_spilled_ns", unit: "ns", lowerBetter: true},
	{name: "txn.reset_ns", unit: "ns", lowerBetter: true},
	{name: "txn.footprint_blocks_p50", unit: "count", lowerBetter: true},
	{name: "txn.footprint_blocks_p99", unit: "count", lowerBetter: true},
	{name: "txn.spilled_txn_frac", unit: "ratio", lowerBetter: true},

	{name: "stm.empty_txn_ns", unit: "ns", lowerBetter: true},
	{name: "stm.read_hit_ns", unit: "ns", lowerBetter: true},
	{name: "stm.read_miss_ns", unit: "ns", lowerBetter: true},
	{name: "stm.write_hit_ns", unit: "ns", lowerBetter: true},
	{name: "stm.write_miss_ns", unit: "ns", lowerBetter: true},
	{name: "stm.invisible_read_miss_ns", unit: "ns", lowerBetter: true},
	{name: "stm.commit_ns_per_block", unit: "ns", lowerBetter: true},
	{name: "stm.memory_load_ns", unit: "ns", lowerBetter: true},
	{name: "stm.memory_store_ns", unit: "ns", lowerBetter: true},
	{name: "stm.abort_attempt_ns", unit: "ns", lowerBetter: true},
	{name: "stm.cm_wait_ns_per_abort", unit: "ns", lowerBetter: true},
	{name: "stm.aborts_per_commit", unit: "ratio", lowerBetter: true},
	{name: "stm.ro_commit_frac", unit: "ratio"},
	{name: "stm.ro_validation_aborts_per_commit", unit: "1/commit", lowerBetter: true},
	{name: "stm.ro_extensions_per_commit", unit: "1/commit"},
	{name: "stm.ro_promotions_per_commit", unit: "1/commit", lowerBetter: true},
	{name: "stm.fallback_commit_frac", unit: "ratio", lowerBetter: true},
	{name: "stm.max_consecutive_aborts", unit: "count", lowerBetter: true},
	{name: "stm.retry3_commit_frac", unit: "ratio", lowerBetter: true},
	{name: "stm.self_ns_per_commit", unit: "ns", lowerBetter: true},
	{name: "stm.ledger_residual_frac", unit: "ratio", lowerBetter: true},

	{name: "tmds.ops_per_txn", unit: "count"},
	{name: "tmds.get_ns", unit: "ns", lowerBetter: true},
	{name: "tmds.put_ns", unit: "ns", lowerBetter: true},
	{name: "tmds.delete_ns", unit: "ns", lowerBetter: true},
	{name: "tmds.scan_ns", unit: "ns", lowerBetter: true},
	{name: "tmds.blocks_per_op", unit: "count", lowerBetter: true},
	{name: "tmds.self_ns_per_commit", unit: "ns", lowerBetter: true},

	{name: "model.alias_conflict_pred", unit: "ratio", lowerBetter: true},
	{name: "model.alias_pred_over_measured", unit: "ratio"},

	{name: "bench.timer_ns", unit: "ns", lowerBetter: true},
	{name: "bench.decode_ns_per_txn", unit: "ns", lowerBetter: true},
	{name: "bench.trace_overhead_frac", unit: "ratio", lowerBetter: true},
	{name: "bench.gc_cycles", unit: "count", lowerBetter: true},
	{name: "bench.allocs_per_txn", unit: "1/txn", lowerBetter: true},
	{name: "bench.txn_per_s", unit: "1/s"},
	{name: "bench.txn_p50_ns", unit: "ns", lowerBetter: true},
	{name: "bench.whole_interval_txn_per_s", unit: "1/s"},
	{name: "bench.slice_rate_iqr_frac", unit: "ratio", lowerBetter: true},
	{name: "bench.txn_p90_ns", unit: "ns", lowerBetter: true},
	{name: "bench.txn_p99_ns", unit: "ns", lowerBetter: true},
	{name: "bench.txn_p999_ns", unit: "ns", lowerBetter: true},
}

// ledgerRow is one line of the cost ledger: what a layer is charged per
// commit, as counts times unit prices.
type ledgerRow struct {
	Layer string  `json:"layer"`
	Ns    float64 `json:"ns_per_commit"`
	How   string  `json:"how"`
}

type ledgerDoc struct {
	Workload    string      `json:"workload"`
	MeasuredNs  float64     `json:"measured_ns_per_commit"`
	ExplainedNs float64     `json:"explained_ns_per_commit"`
	Residual    float64     `json:"residual_frac"`
	Rows        []ledgerRow `json:"rows"`
}

// runTraced runs the traced side of a workload, always with all of its
// workers: a short untraced pass (the base of the tracing overhead and of
// the bench.* timing metrics), a traced pass of the same length on a fresh
// instance, and the price loops.
func runTraced(sp *spec, o options, count int, res *result) error {
	u, err := runPass(sp, o.seed, count, sp.workers, false, processStart)
	if err != nil {
		return err
	}
	res.add(u)
	t, err := runPass(sp, o.seed, count, sp.workers, true, time.Now())
	if err != nil {
		return err
	}
	res.add(t)
	path, err := writeTrace(o.outDir, t.in, t.period)
	if err != nil {
		return err
	}
	pr, err := measurePrices(sp, o.seed, o.priceScale)
	if err != nil {
		return err
	}

	v := map[string]float64(pr)
	c := t.counts
	commits := float64(c.stm.Commits)
	aborts := float64(c.stm.Aborts)
	per := func(n uint64) float64 { return ratio(float64(n), commits) }

	v["hash.index_calls_per_commit"] = per(c.indexCalls)
	v["otable.read_acquires_per_commit"] = per(c.tab.ReadAcquires)
	v["otable.write_acquires_per_commit"] = per(c.tab.WriteAcquires)
	v["otable.upgrades_per_commit"] = per(c.tab.Upgrades)
	v["otable.releases_per_commit"] = per(c.tab.Releases)
	v["otable.release_walks_per_release"] = ratio(float64(c.tab.ReleaseWalks), float64(c.tab.Releases))
	v["otable.chain_follows_per_acquire"] = ratio(float64(c.tab.ChainFollows), float64(c.tab.ReadAcquires+c.tab.WriteAcquires))
	v["otable.version_samples_per_commit"] = per(c.versionSamples)
	v["otable.conflicts_per_attempt"] = ratio(float64(c.tab.Conflicts), commits+aborts)
	// WriteAcquires counts upgrades too; the rest were fresh.
	tableNs := float64(c.tab.ReadAcquires)*pr["otable.acquire_read_ns"] +
		float64(c.tab.WriteAcquires-c.tab.Upgrades)*pr["otable.acquire_write_ns"] +
		float64(c.tab.Upgrades)*pr["otable.upgrade_ns"] +
		float64(c.releaseReads)*pr["otable.release_read_ns"] +
		float64(c.releaseWrites)*pr["otable.release_write_ns"] +
		float64(c.versionSamples)*pr["otable.sample_version_ns"] +
		float64(c.tab.Conflicts)*pr["otable.denied_acquire_ns"]
	v["otable.ns_per_commit"] = ratio(tableNs, commits)

	fp := make([]uint32, fpBuckets)
	var fpTxns, fpBlocks, spilled float64
	for _, w := range t.in.workers {
		for blocks, n := range w.fp {
			fp[blocks] += n
			fpTxns += float64(n)
			fpBlocks += float64(n) * float64(blocks)
			if blocks > txn.InlineEntries {
				spilled += float64(n)
			}
		}
	}
	v["txn.footprint_blocks_p50"] = float64(histQuantile(fp, 0.5))
	v["txn.footprint_blocks_p99"] = float64(histQuantile(fp, 0.99))
	v["txn.spilled_txn_frac"] = ratio(spilled, fpTxns)
	meanFootprint := ratio(fpBlocks, fpTxns)

	v["stm.cm_wait_ns_per_abort"] = ratio(float64(c.cmWaitNs), aborts)
	v["stm.aborts_per_commit"] = per(c.stm.Aborts)
	v["stm.ro_commit_frac"] = per(c.stm.ROCommits)
	v["stm.ro_validation_aborts_per_commit"] = per(c.stm.ROValidationAborts)
	v["stm.ro_extensions_per_commit"] = per(c.stm.ROExtensions)
	v["stm.ro_promotions_per_commit"] = per(c.stm.ROPromotions)
	v["stm.fallback_commit_frac"] = per(c.stm.FallbackCommits)
	v["stm.max_consecutive_aborts"] = float64(c.stm.MaxConsecutiveAborts)
	retry3 := 0
	var self [numLayers]int64
	spanned := 0
	for _, w := range t.in.workers {
		retry3 += w.retry3
		s, roots := selfTimes(w.tr.spans)
		spanned += roots
		for l := range self {
			self[l] += s[l]
		}
	}
	v["stm.retry3_commit_frac"] = ratio(float64(retry3), commits)
	v["stm.self_ns_per_commit"] = ratio(float64(self[layerSTM]), float64(spanned))
	v["tmds.self_ns_per_commit"] = ratio(float64(self[layerTMDS]), float64(spanned))

	// A raw-word transaction issues rmwBlocks reads and as many writes; what
	// the structures of package tmds issue is not visible from outside.
	ops, accesses := float64(sp.fields), 0.0
	if t.in.list == nil && t.in.hmap == nil {
		ops, accesses = 0, rmwBlocks
	}
	v["tmds.ops_per_txn"] = ops
	v["tmds.blocks_per_op"] = ratio(meanFootprint, ops)

	// The paper's model at the workload's own parameters: C concurrent
	// transactions, each writing W blocks it also read (no read-only
	// blocks, α = 0), into N tagless entries. Zero where no alias conflict
	// is possible: one worker, or a tagged table.
	pred := 0.0
	if sp.table == "tagless" {
		pred = tmbp.ConflictLikelihood(sp.workers, rmwBlocks, 0, sp.entries)
	}
	v["model.alias_conflict_pred"] = pred
	v["model.alias_pred_over_measured"] = ratio(pred, ratio(aborts, commits+aborts))

	// With all workers running a slice can be disturbed upwards as well as
	// downwards (two workers sharing one thread for a while skip the
	// coherence traffic), so the traced side reads the median slice.
	uRate, tRate := quantile(u.sliceRates, 0.5), quantile(t.sliceRates, 0.5)
	v["bench.trace_overhead_frac"] = 1 - tRate/uRate
	v["bench.gc_cycles"] = float64(u.gcCycles)
	v["bench.allocs_per_txn"] = float64(u.mallocs) / float64(u.txns)
	v["bench.txn_per_s"] = uRate
	v["bench.txn_p50_ns"] = quantile(u.sliceP50, 0.5)
	v["bench.whole_interval_txn_per_s"] = u.wholeRate
	v["bench.slice_rate_iqr_frac"] = (quantile(u.sliceRates, 0.75) - quantile(u.sliceRates, 0.25)) / quantile(u.sliceRates, 0.5)
	v["bench.txn_p90_ns"] = float64(quantile(u.latencies, 0.9))
	v["bench.txn_p99_ns"] = float64(quantile(u.latencies, 0.99))
	v["bench.txn_p999_ns"] = float64(quantile(u.latencies, 0.999))

	led := ledger(sp, v, meanFootprint, accesses, float64(sp.workers)*1e9/uRate)
	v["stm.ledger_residual_frac"] = led.Residual

	fmt.Printf("%s seed %d traced: %d txns, %d span-timed, period %d, spans in %s\n",
		sp.name, o.seed, t.txns, spanned, t.period, path)
	fmt.Printf("ledger: measured %.1f ns/commit, explained %.1f, residual %+.3f\n", led.MeasuredNs, led.ExplainedNs, led.Residual)
	for _, r := range led.Rows {
		fmt.Printf("  %-8s %9.1f ns  %s\n", r.Layer, r.Ns, r.How)
	}
	data, err := json.MarshalIndent(led, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(o.outDir, "ledger-"+sp.name+".json"), data, 0o644); err != nil {
		return err
	}
	return res.emit(perLayer, v)
}

// ledger reconciles the measured time per commit with counts times unit
// prices, layer by layer. accesses is the number of Tx.Read calls, and of
// Tx.Write calls, per transaction where the harness knows it; on the tmds
// workloads it is 0, only first accesses (the footprint) are charged, and
// the residual is what the structure logic and its repeat accesses cost.
func ledger(sp *spec, v map[string]float64, footprint, accesses, measuredNs float64) ledgerDoc {
	reads, writes := accesses, accesses
	abortNs := v["stm.aborts_per_commit"] * (v["stm.abort_attempt_ns"] + v["stm.cm_wait_ns_per_abort"])
	rows := []ledgerRow{
		{"stm", v["stm.empty_txn_ns"] +
			reads*(v["stm.read_hit_ns"]-v["txn.lookup_hit_ns"]-v["stm.memory_load_ns"]) +
			writes*(v["stm.write_hit_ns"]-v["txn.lookup_hit_ns"]) + abortNs,
			"empty txn + per-access glue (hit price minus probe and load) + aborts x (attempt + CM wait)"},
		{"txn", (reads+writes)*v["txn.lookup_hit_ns"] + footprint*v["txn.insert_ns"],
			"accesses x probe + footprint x insert"},
		{"memory", reads*v["stm.memory_load_ns"] + writes*v["stm.memory_store_ns"],
			"reads x load + writes x store (stm.Memory)"},
		{"otable", v["otable.ns_per_commit"],
			"acquires, upgrades, releases, version samples and denials x their prices (hash included)"},
	}
	doc := ledgerDoc{Workload: sp.name, MeasuredNs: measuredNs, Rows: rows}
	for _, r := range rows {
		doc.ExplainedNs += r.Ns
	}
	doc.Residual = (measuredNs - doc.ExplainedNs) / measuredNs
	doc.Rows = append(doc.Rows, ledgerRow{"hash", v["hash.index_calls_per_commit"] * v["hash.index_ns"],
		"index calls x price; already inside otable, shown for scale"})
	return doc
}

// histQuantile is the nearest-rank q-quantile of a histogram indexed by
// value.
func histQuantile(h []uint32, q float64) int {
	total := 0
	for _, n := range h {
		total += int(n)
	}
	rank, seen := int(q*float64(total)+0.999999), 0
	for v, n := range h {
		if seen += int(n); seen >= rank && n > 0 {
			return v
		}
	}
	return 0
}
