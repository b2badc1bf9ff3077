package server

import (
	"fmt"
	"io"
	"sort"
)

// WriteMetrics renders the server's admission counters and per-type RPC
// latency summaries in the Prometheus text exposition format. accd mounts it
// at /metrics next to the engine counters.
func (s *Server) WriteMetrics(w io.Writer) {
	st := s.Stats()
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter("accd_rpc_admitted_total", "Requests past admission control.", st.Admitted)
	counter("accd_rpc_rejected_queue_full_total", "Requests refused: in-flight limit reached.", st.RejectedFull)
	counter("accd_rpc_rejected_draining_total", "Requests refused: server draining.", st.RejectedDraining)
	counter("accd_rpc_bad_requests_total", "Requests refused as undecodable, of an unknown type, or by their type.", st.BadRequests)
	gauge("accd_rpc_in_flight", "Requests executing right now.", st.InFlight)
	gauge("accd_conns_open", "Open client sessions.", st.Conns)
	draining := int64(0)
	if st.Draining {
		draining = 1
	}
	gauge("accd_draining", "1 while Shutdown is draining the server.", draining)

	byType := s.rec.ByType()
	names := make([]string, 0, len(byType))
	for name := range byType {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# HELP accd_rpc_latency_seconds Server-side RPC latency quantiles per transaction type.\n")
	fmt.Fprintf(w, "# TYPE accd_rpc_latency_seconds summary\n")
	for _, name := range names {
		sum := byType[name]
		for _, q := range []struct {
			p string
			v float64
		}{
			{"0.5", sum.P50.Seconds()},
			{"0.95", sum.P95.Seconds()},
			{"0.99", sum.P99.Seconds()},
		} {
			fmt.Fprintf(w, "accd_rpc_latency_seconds{type=%q,quantile=%q} %g\n", name, q.p, q.v)
		}
		fmt.Fprintf(w, "accd_rpc_latency_seconds_count{type=%q} %d\n", name, sum.Count)
	}
}
