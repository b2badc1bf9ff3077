package main

import (
	"errors"
	"fmt"
	"os"
	"regexp"
	"slices"
	"time"

	"accdb/pkg/accclient"
)

// engineLayers derives the counter-ratio metrics of the core and lock layers
// from an engine's counters over one measured interval. The series names are
// the ones accd's /metrics exports; fig_contended fills the same names from
// its RunResult. Everything is per committed transaction of the engine the
// counters belong to — under four partitions that is partition 0 — which is
// why these are ratios and not totals.
func engineLayers(d *delta, m map[string]float64) error {
	commits := d.of("accdb_txn_commits_total")
	m["core.step_retries_per_ktxn"] = 1e3 * per(d.of("accdb_txn_step_retries_total"), commits)
	m["core.txn_retries_per_ktxn"] = 1e3 * per(d.of("accdb_txn_retries_total"), commits)
	m["core.compensations_per_ktxn"] = 1e3 * per(d.of("accdb_txn_compensations_total"), commits)
	m["lock.acquisitions_per_txn"] = per(d.of("accdb_lock_acquisitions_total"), commits)
	m["lock.waits_per_txn"] = per(d.of("accdb_lock_waits_total"), commits)
	m["lock.wait_us_per_txn"] = 1e6 * per(d.of("accdb_lock_wait_seconds_total"), commits)
	m["lock.deadlocks_per_ktxn"] = 1e3 * per(d.of("accdb_lock_deadlocks_total"), commits)
	m["lock.victims_for_comp_per_ktxn"] = 1e3 * per(d.of("accdb_lock_victims_for_comp_total"), commits)
	if err := d.err(); err != nil {
		return err
	}
	if commits <= 0 {
		return errors.New("bench: the engine committed nothing over the measured interval (accdb_txn_commits_total did not move)")
	}
	return nil
}

// anatomyStages maps accd's latency-anatomy stage labels to the layer
// metric each is reported under.
var anatomyStages = map[string]string{
	"queue":        "server.stage_queue_us",
	"decode":       "server.stage_decode_us",
	"encode":       "server.stage_encode_us",
	"flush":        "server.stage_flush_us",
	"exec":         "core.stage_exec_us",
	"lock_conv":    "lock.stage_conv_wait_us",
	"lock_a":       "lock.stage_a_wait_us",
	"lock_d":       "lock.stage_d_wait_us",
	"lock_c":       "lock.stage_c_wait_us",
	"wal_append":   "wal.stage_append_us",
	"group_commit": "wal.stage_group_commit_us",
}

// stageLabel extracts the stage from an anatomy series name such as
// `accdb_txn_stage_seconds_sum{stage="exec"}`.
var stageLabel = regexp.MustCompile(`^accdb_txn_stage_seconds_sum\{stage="([^"]*)"\}$`)

// serverLayers derives the metrics only a served engine has: the anatomy
// stages, admission, version store, WAL and — when accd runs partitioned —
// coordinator counters. A stage is reported as its time summed over the
// interval divided by the number of requests the interval finished — mean
// microseconds per request — not by the stage's own count, which only counts
// requests that entered it. accd exports a stage only once a request has
// entered it, so a stage may be absent; a stage the table above does not know
// is an error, which is how a renamed stage shows instead of reading 0. It
// returns the anatomy's mean end-to-end server time.
func serverLayers(d *delta, partitioned bool, elapsed time.Duration, m map[string]float64) (serverTotalUs float64, err error) {
	requests := d.of(`accdb_txn_stage_seconds_count{stage="total"}`)
	for series := range d.after {
		if sub := stageLabel.FindStringSubmatch(series); sub != nil && sub[1] != "total" && anatomyStages[sub[1]] == "" {
			return 0, fmt.Errorf("bench: scrape has anatomy stage %q, which the benchmark maps to no layer metric", sub[1])
		}
	}
	stageSum := 0.0
	for stage, name := range anatomyStages {
		us := 1e6 * per(d.opt(fmt.Sprintf("accdb_txn_stage_seconds_sum{stage=%q}", stage)), requests)
		m[name] = us
		stageSum += us
	}
	serverTotalUs = 1e6 * per(d.of(`accdb_txn_stage_seconds_sum{stage="total"}`), requests)
	m["ledger.server_total_us"] = serverTotalUs
	m["ledger.stage_sum_us"] = stageSum

	full := d.of("accd_rpc_rejected_queue_full_total")
	m["server.rejected_full_frac"] = per(full, full+d.of("accd_rpc_admitted_total"))

	commits := d.of("accdb_txn_commits_total")
	secs := elapsed.Seconds()
	m["storage.versions_published_per_txn"] = per(d.of("accdb_read_versions_published_total"), commits)
	m["storage.gc_pruned_per_s"] = d.of("accdb_read_gc_pruned_total") / secs
	m["storage.snapshots_opened_per_s"] = d.of("accdb_read_snapshots_opened_total") / secs
	m["storage.version_chains_end"] = d.end("accdb_read_version_chains")
	m["storage.chain_versions_end"] = d.end("accdb_read_chain_versions")

	m["wal.records_per_txn"] = per(d.of("accdb_wal_records_total"), commits)
	m["wal.bytes_per_txn"] = per(d.of("accdb_wal_bytes_total"), commits)
	m["wal.forces_per_commit"] = per(d.of("accdb_wal_forces_total"), commits)

	// A single-engine accd exports no partition series: every growth reads 0.
	part := d.opt
	if partitioned {
		part = d.of
	}
	cross := part("accdb_partition_cross_started_total")
	m["partition.cross_frac"] = per(cross, cross+part("accdb_partition_single_routed_total"))
	m["partition.shots_per_cross"] = per(part("accdb_partition_shots_total"), cross)
	m["partition.cross_abort_frac"] = per(part("accdb_partition_cross_aborted_total"), cross)
	m["partition.undos_per_kcross"] = 1e3 * per(part("accdb_partition_shot_undos_total"), cross)
	m["partition.cross_deadlocks"] = part("accdb_partition_cross_deadlocks_total")

	if err := d.err(); err != nil {
		return 0, err
	}
	if requests <= 0 {
		return 0, errors.New("bench: the latency anatomy finished no span over the measured interval")
	}
	return serverTotalUs, nil
}

// clientLayers derives the accclient layer's counter metrics from the
// client's own counters at the edges of the measured interval and the
// terminals' resubmission counts inside it.
func clientLayers(res *loadResult, before, after accclient.Stats, m map[string]float64) {
	resubmits := 0
	for _, s := range res.samples {
		resubmits += int(s.resubmits)
	}
	m["accclient.resubmits_per_kreq"] = 1e3 * float64(resubmits) / float64(len(res.samples))
	requests := float64(after.Requests - before.Requests)
	m["accclient.attempts_per_req"] = per(float64(after.Attempts-before.Attempts), requests)
	m["accclient.retries_per_kreq"] = 1e3 * per(float64(after.Retries-before.Retries), requests)
	m["accclient.transport_errors"] = float64(after.TransportErrors - before.TransportErrors)
}

// latencies computes the client-observed response-time percentiles of one
// measured interval, over all requests ("resp") and per transaction type, in
// milliseconds, and prints the sample count behind each to standard error. A
// type the mix does not draw is left out. Percentiles are exact, from the
// raw samples. There is no pooled read-only figure: order-status and
// stock-level differ several-fold, so a pooled median sits in the gap
// between the two and jumps with the mix's luck.
func latencies(res *loadResult) map[string]float64 {
	m := map[string]float64{}
	groups := append([]string{"resp"}, txnTypes[:]...)
	for _, g := range groups {
		keep := func(uint8) bool { return true }
		if g != "resp" {
			keep = isType(g)
		}
		d := durations(res.samples, keep)
		if len(d) == 0 {
			continue
		}
		m[g+"_p50_ms"] = percentile(d, 0.50) / nsPerMs
		m[g+"_p95_ms"] = percentile(d, 0.95) / nsPerMs
		if g == "resp" {
			m[g+"_p99_ms"] = percentile(d, 0.99) / nsPerMs
		}
		fmt.Fprintf(os.Stderr, "bench: %s percentiles over n=%d samples\n", g, len(d))
	}
	return m
}

// meanUs is the mean response time of the correct-outcome samples.
func meanUs(res *loadResult) float64 {
	sum, n := 0.0, 0
	for _, s := range res.samples {
		if s.ok {
			sum += float64(s.dur)
			n++
		}
	}
	return per(sum, float64(n)) / 1e3
}

// mixShares returns each transaction type's share of the measured samples.
func mixShares(res *loadResult) [len(txnTypes)]float64 {
	var shares [len(txnTypes)]float64
	for _, s := range res.samples {
		shares[s.typ] += 1 / float64(len(res.samples))
	}
	return shares
}

// median of an unsorted slice; it sorts in place.
func median(v []float64) float64 {
	slices.Sort(v)
	return v[len(v)/2]
}
