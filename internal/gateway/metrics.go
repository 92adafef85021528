package gateway

import (
	"fmt"
	"net/http"
	"strings"
)

// dbStats is the optional introspection surface a Store may offer for
// /metrics; *tsdb.DB implements it.
type dbStats interface {
	NumSeries() int
	Appended() uint64
}

// handleMetrics serves the self-telemetry counters in Prometheus text
// exposition format: the gateway's own request/stream counters plus
// whichever subsystems the gateway was built over (bus, telemetry
// pipeline, TSDB, WAL, TCP bridge).
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		g.httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	var b strings.Builder
	row := func(name string, v interface{}) {
		fmt.Fprintf(&b, "%s %v\n", name, v)
	}

	s := g.Stats()
	row("gateway_requests_total", s.Requests)
	row("gateway_request_errors_total", s.Errors)
	row("gateway_queries_coalesced_total", s.Coalesced)
	row("gateway_queries_gzipped_total", s.Gzipped)
	row("gateway_sse_clients", s.StreamClients)
	row("gateway_sse_events_total", s.StreamEvents)
	row("gateway_sse_dropped_total", s.StreamDropped)

	if db, ok := g.opts.Store.(dbStats); ok {
		row("tsdb_series", db.NumSeries())
		row("tsdb_appended_total", db.Appended())
	}
	if bu := g.opts.Bus; bu != nil {
		published, delivered := bu.Stats()
		row("bus_published_total", published)
		row("bus_delivered_total", delivered)
	}
	if p := g.opts.Pipeline; p != nil {
		samples, points, errs := p.Stats()
		row("pipeline_samples_total", samples)
		row("pipeline_points_total", points)
		row("pipeline_sink_errors_total", errs)
	}
	if wa := g.opts.WAL; wa != nil {
		m := wa.Metrics()
		row("wal_appends_total", m.Appends)
		row("wal_bytes_total", m.Bytes)
		row("wal_syncs_total", m.Syncs)
		row("wal_rotations_total", m.Rotations)
		row("wal_truncated_bytes_total", m.Truncated)
		row("wal_storage_faults_total", m.StorageFaults)
		row("wal_write_retries_total", m.WriteRetries)
		row("wal_backlog_rejects_total", m.BacklogRejects)
	}
	if srv := g.opts.WireServer; srv != nil {
		row("bus_wire_clients", srv.NumClients())
		row("bus_wire_dropped_frames_total", srv.DroppedFrames())
		row("bus_wire_read_errors_total", srv.ReadErrors())
	}
	if cl := g.opts.Cluster; cl != nil {
		cs := cl.Stats()
		row("cluster_members", cs.Members)
		row("cluster_members_alive", cs.Alive)
		row("cluster_members_suspect", cs.Suspect)
		row("cluster_specs", cs.Specs)
		row("cluster_specs_placed", cs.Placed)
		row("cluster_assigns_total", cs.Assigns)
		row("cluster_failovers_total", cs.Failovers)
		row("cluster_lease_expiries_total", cs.LeaseExpiries)
		row("cluster_fanouts_total", cs.Fanouts)
		row("cluster_fanout_timeouts_total", cs.FanTimeouts)
		row("cluster_digests_total", cs.DigestsSeen)
		row("cluster_digests_denied_total", cs.DigestsDenied)
		row("cluster_digests_backfilled_total", cs.DigestsBackfilled)
		row("cluster_suspect_events_total", cs.SuspectEvents)
		row("cluster_scatter_partial_total", cs.ScatterPartials)
		row("cluster_ledger_faults_total", cs.LedgerFaults)
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_, _ = w.Write([]byte(b.String()))
}
