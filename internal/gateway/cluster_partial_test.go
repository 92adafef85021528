package gateway

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"autoloop/internal/bus"
	"autoloop/internal/chaos"
	"autoloop/internal/cluster"
	"autoloop/internal/telemetry"
	"autoloop/internal/tsdb"
)

// TestQueryPartialOnPartitionedWorker fronts a coordinator with the gateway
// and asymmetrically partitions one of two workers (the coordinator's
// frames to it vanish; its heartbeats still arrive, so its lease stays
// fresh and the scatter keeps fanning to it). /v1/query must stay 200 with
// the reachable worker's series, marked partial with the gap attributed to
// the partitioned worker — and /metrics must count the partial scatter.
func TestQueryPartialOnPartitionedWorker(t *testing.T) {
	coordBus := bus.New()
	coord := cluster.NewCoordinator(coordBus, cluster.Options{Lease: 2 * time.Second})
	defer coord.Close()
	srv, err := bus.NewServer("127.0.0.1:0", cluster.CoordExportPattern, coordBus)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	inj := chaos.NewInjector(7)
	proxy, err := chaos.NewProxy("127.0.0.1:0", srv.Addr(), inj)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	worker := func(id, addr string) {
		wb := bus.New()
		client, err := bus.Dial(addr, cluster.WorkerExportPattern, wb)
		if err != nil {
			t.Fatalf("worker %s dial: %v", id, err)
		}
		t.Cleanup(func() { client.Close() })
		db := tsdb.New(0)
		if err := db.Append(telemetry.Point{
			Name: "cpu", Labels: telemetry.Labels{"node": id}, Time: time.Second, Value: 1,
		}); err != nil {
			t.Fatal(err)
		}
		agent, err := cluster.NewAgent(wb, newTestControl(t, wb), tsdb.NewService(db), cluster.AgentOptions{
			ID: id, Heartbeat: 100 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("worker %s agent: %v", id, err)
		}
		t.Cleanup(agent.Close)
	}
	worker("w1", srv.Addr())
	worker("w2", proxy.Addr())

	deadline := time.Now().Add(5 * time.Second)
	for len(coord.Directory().Alive()) != 2 {
		if time.Now().After(deadline) {
			t.Fatal("workers never joined")
		}
		time.Sleep(10 * time.Millisecond)
	}

	g := New(Options{Cluster: coord, Bus: coordBus})
	defer g.Close()

	// Healthy cluster: the merged view is complete, not partial.
	resp := decodeQueryResponse(t, serve(g, "GET", "/v1/query?metric=cpu&latest=true", "", ""))
	if resp.Partial || len(resp.Failed) != 0 || len(resp.Series) != 2 {
		t.Fatalf("healthy query = partial=%v failed=%v series=%d, want complete with 2 series",
			resp.Partial, resp.Failed, len(resp.Series))
	}

	// Partition coordinator→w2: fanned queries to w2 vanish, heartbeats
	// from w2 keep its lease alive — the asymmetric partition.
	inj.Arm(chaos.Faults{PartitionFromTarget: true})

	resp = decodeQueryResponse(t, serve(g, "GET", "/v1/query?metric=cpu&latest=true", "", ""))
	if !resp.Partial {
		t.Fatalf("partitioned query not marked partial: %+v", resp)
	}
	if len(resp.Failed) != 1 || resp.Failed[0].Source != "w2" || resp.Failed[0].Err == "" {
		t.Fatalf("failed attribution = %+v, want one entry naming w2", resp.Failed)
	}
	if len(resp.Series) != 1 || resp.Series[0].Labels["node"] != "w1" {
		t.Fatalf("partial series = %+v, want w1's slice only", resp.Series)
	}
	if resp.Err == "" || !strings.Contains(resp.Err, "w2") {
		t.Fatalf("flat err %q does not name the gap", resp.Err)
	}

	w := serve(g, "GET", "/metrics", "", "")
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", w.Code)
	}
	if !strings.Contains(w.Body.String(), "cluster_scatter_partial_total 1") {
		t.Fatalf("/metrics missing cluster_scatter_partial_total 1:\n%s", w.Body.String())
	}
}
