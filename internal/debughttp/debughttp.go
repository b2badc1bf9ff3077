// Package debughttp is the shared debug/observability HTTP endpoint both
// accbench and accd mount behind their -metrics-addr flags:
//
//	/metrics         engine, lock, WAL, read-tier, latency-anatomy (per
//	                 stage and per transaction type) and (when wired)
//	                 admission counters in Prometheus text exposition format
//	/debug/locks     every partition's lock-table snapshot: per-shard held
//	                 locks (with the paper's A/D/C kinds) and wait queues
//	/debug/waitsfor  the waits-for graph deadlock detection walks, across
//	                 every partition's lock table, in Graphviz DOT form
//	/debug/anatomy   live per-stage latency breakdown (p50/p90/p99) plus the
//	                 flight recorder's slowest recent transactions, as text
//	/debug/pprof/*   the standard Go profiler endpoints
//
// The engines are swapped atomically each time the owner builds a fresh
// system (accbench builds one per sweep point per mode), so the endpoints
// always observe the system currently under load. The engine-level /metrics
// series describe the first engine (partition 0).
package debughttp

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"

	"accdb/internal/core"
	"accdb/internal/spi"
	"accdb/internal/trace"
)

// Server owns the debug endpoints. Configure with New and the setters, then
// Start it; the zero-value fields simply omit their sections.
type Server struct {
	anatomy *trace.Anatomy
	engines atomic.Pointer[[]*core.Engine]

	// sections append the owner's own series to /metrics, in the order added
	// (accd adds the network server's and the partition set's WriteMetrics).
	// Funcs instead of interfaces keep this package independent of
	// internal/server and internal/partition.
	sections []func(io.Writer)
}

// New creates a debug server over the given (possibly nil) latency-anatomy
// recorder.
func New(an *trace.Anatomy) *Server {
	return &Server{anatomy: an}
}

// SetEngines publishes the engines currently under load — at least one — in
// partition order.
func (s *Server) SetEngines(engines ...*core.Engine) { s.engines.Store(&engines) }

// AddMetrics registers one more /metrics section writer. Call before Start.
func (s *Server) AddMetrics(fn func(io.Writer)) { s.sections = append(s.sections, fn) }

// Start listens on addr and serves in the background. The listener error is
// returned synchronously so a bad -metrics-addr fails fast.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("metrics listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.metrics)
	mux.HandleFunc("/debug/locks", s.lockDump("text/plain; charset=utf-8", spi.LocksText))
	mux.HandleFunc("/debug/waitsfor", s.lockDump("text/vnd.graphviz", spi.WaitsForDOT))
	mux.HandleFunc("/debug/anatomy", s.anatomyText)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln)
	return nil
}

// metrics renders the counters in the Prometheus text exposition format.
func (s *Server) metrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	if engines := s.engines.Load(); engines != nil {
		eng := (*engines)[0]
		es := eng.Snapshot()
		counter("accdb_txn_commits_total", "Committed transactions, read-only ones included.", es.Commits+es.ReadOnly)
		counter("accdb_txn_user_aborts_total", "User-initiated aborts.", es.UserAborts)
		counter("accdb_txn_compensations_total", "Compensated rollbacks.", es.Compensations)
		counter("accdb_txn_comp_failures_total", "Failed compensations.", es.CompFailures)
		counter("accdb_txn_step_retries_total", "Forward-step retries after scheduling aborts.", es.StepRetries)
		counter("accdb_txn_retries_total", "Whole-transaction restarts.", es.TxnRetries)

		ls := eng.Locks().Stats()
		counter("accdb_lock_acquisitions_total", "Lock acquisitions.", ls.Acquisitions)
		counter("accdb_lock_waits_total", "Blocked lock requests.", ls.Waits)
		fmt.Fprintf(w, "# HELP accdb_lock_wait_seconds_total Total time spent blocked on locks.\n"+
			"# TYPE accdb_lock_wait_seconds_total counter\naccdb_lock_wait_seconds_total %g\n",
			float64(ls.WaitNanos)/1e9)
		counter("accdb_lock_deadlocks_total", "Deadlocks detected.", ls.Deadlocks)
		counter("accdb_lock_victims_for_comp_total", "Forward steps aborted for a compensation.", ls.VictimsForComp)

		snap := eng.Locks().Snapshot()
		gauge("accdb_lock_held_grants", "Currently held lock-table entries.", snap.GrantCount())
		gauge("accdb_lock_waiters", "Currently blocked lock requests.", snap.WaiterCount())
		gauge("accdb_lock_waitsfor_edges", "Current waits-for graph edges.", len(snap.Edges))

		ws := eng.Log().Snapshot()
		counter("accdb_wal_records_total", "Log records appended.", ws.Records)
		counter("accdb_wal_forces_total", "Log forces.", ws.Forces)
		counter("accdb_wal_bytes_total", "Encoded log bytes.", ws.Bytes)

		vm := eng.Versions()
		counter("accdb_read_csn", "Current commit sequence number.", vm.CSN)
		counter("accdb_read_versions_published_total", "Row versions published to chains.", vm.Published)
		counter("accdb_read_snapshots_opened_total", "Snapshot read points ever opened.", vm.SnapshotsOpened)
		gauge("accdb_read_snapshots_live", "Currently open snapshots.", vm.LiveSnapshots)
		counter("accdb_read_gc_runs_total", "Version-chain reaper passes.", vm.GCRuns)
		counter("accdb_read_gc_pruned_total", "Versions reclaimed by the reaper.", vm.GCPruned)
		counter("accdb_read_gc_dropped_total", "Whole chains dropped by the reaper.", vm.GCDropped)
		gauge("accdb_read_version_chains", "Keys currently carrying a version chain.", vm.Chains)
		gauge("accdb_read_chain_versions", "Total chain entries across all keys.", vm.ChainVersions)
	}
	if s.anatomy != nil {
		s.anatomy.WriteMetrics(w)
	}
	for _, section := range s.sections {
		section(w)
	}
}

// lockDump serves one rendering of the lock tables of every engine under
// load: the snapshot as text, or the waits-for graph as Graphviz DOT.
func (s *Server) lockDump(contentType string, render func([]*spi.TableSnapshot) string) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		engines := s.engines.Load()
		if engines == nil {
			http.Error(w, "no engine under load yet", http.StatusServiceUnavailable)
			return
		}
		var tables []*spi.TableSnapshot
		for _, e := range *engines {
			tables = append(tables, e.Locks().Snapshot())
		}
		w.Header().Set("Content-Type", contentType)
		fmt.Fprint(w, render(tables))
	}
}

// anatomyText renders the live per-stage latency breakdown.
func (s *Server) anatomyText(w http.ResponseWriter, _ *http.Request) {
	if s.anatomy == nil {
		http.Error(w, "latency anatomy disabled", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.anatomy.WriteText(w)
}
