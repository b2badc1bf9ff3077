package partition

import (
	"fmt"
	"io"
)

// WriteMetrics writes the Set's coordinator counters in Prometheus text
// format — the debug endpoint mounts it next to the engine metrics via
// debughttp.AddMetrics.
func (s *Set) WriteMetrics(w io.Writer) {
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	fmt.Fprintf(w, "# HELP accdb_partition_count Configured partition count.\n"+
		"# TYPE accdb_partition_count gauge\naccdb_partition_count %d\n", len(s.engines))
	st := s.Snapshot()
	counter("accdb_partition_single_routed_total", "Transactions routed whole to one partition.", st.SingleRouted)
	counter("accdb_partition_cross_started_total", "Cross-partition transactions begun.", st.CrossStarted)
	counter("accdb_partition_cross_committed_total", "Cross-partition transactions committed.", st.CrossCommitted)
	counter("accdb_partition_cross_aborted_total", "Cross-partition transactions rolled back.", st.CrossAborted)
	counter("accdb_partition_shots_total", "Remote shots committed.", st.ShotsRun)
	counter("accdb_partition_shot_undos_total", "Compensating undo shots run.", st.ShotUndos)
	counter("accdb_partition_cross_deadlocks_total", "Cross-partition deadlock victims doomed.", st.CrossDeadlocks)
}
