package gateway

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"autoloop/internal/bus"
	"autoloop/internal/cluster"
	"autoloop/internal/telemetry"
	"autoloop/internal/tsdb"
)

// seedNodes appends ten one-second cpu samples for each node (labels node
// and rack, rack alternating by node index) and registers the cpu/5s/mean
// rollup.
func seedNodes(t *testing.T, db *tsdb.DB, nodes ...int) {
	t.Helper()
	if err := db.AddRollup(tsdb.RollupRule{Metric: "cpu", Step: 5 * time.Second, Agg: tsdb.AggMean}); err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		labels := telemetry.Labels{"node": fmt.Sprintf("n%d", n), "rack": fmt.Sprintf("r%d", n%2)}
		for i := 0; i < 10; i++ {
			p := telemetry.Point{Name: "cpu", Labels: labels, Time: time.Duration(i) * time.Second, Value: float64(n * i)}
			if err := db.Append(p); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// getTarget renders req the way a curl user would write it.
func getTarget(req tsdb.QueryRequest) string {
	q := url.Values{}
	if req.Metric != "" {
		q.Set("metric", req.Metric)
	}
	for name, v := range map[string]int64{"from_ms": req.FromMS, "to_ms": req.ToMS, "step_ms": req.StepMS} {
		if v != 0 {
			q.Set(name, strconv.FormatInt(v, 10))
		}
	}
	if req.Agg != "" {
		q.Set("agg", req.Agg)
	}
	if req.Latest {
		q.Set("latest", "true")
	}
	for k, v := range req.Match {
		q.Set("match."+k, v)
	}
	return "/v1/query?" + q.Encode()
}

// decodeReply brings one HTTP answer to the common shape: the decoded
// response, with a store-backed gateway's 400 body folded into Err.
func decodeReply(t *testing.T, w *httptest.ResponseRecorder) tsdb.QueryResponse {
	t.Helper()
	var body struct {
		tsdb.QueryResponse
		Error string `json:"error"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatalf("decode %s: %v", w.Body.String(), err)
	}
	switch {
	case w.Code == http.StatusOK && body.Error == "":
	case w.Code == http.StatusBadRequest && body.Error != "" && body.Err == "":
		body.Err = body.Error
	default:
		t.Fatalf("status %d with body %s", w.Code, w.Body.String())
	}
	return body.QueryResponse
}

// seriesSet indexes a response by label key; duplicates fail the test.
func seriesSet(t *testing.T, resp tsdb.QueryResponse) map[string]tsdb.WireSeries {
	t.Helper()
	out := make(map[string]tsdb.WireSeries, len(resp.Series))
	for _, s := range resp.Series {
		key := s.Labels.Key()
		if _, dup := out[key]; dup {
			t.Fatalf("series %s twice in one response", key)
		}
		out[key] = s
	}
	return out
}

func inLabelKeyOrder(resp tsdb.QueryResponse) bool {
	return sort.SliceIsSorted(resp.Series, func(a, b int) bool {
		return resp.Series[a].Labels.Key() < resp.Series[b].Labels.Key()
	})
}

// TestQueryTransportsAgree runs each request through the bus service's
// Answer, a store-backed gateway by GET and by POST, and a gateway fronting a
// coordinator whose two workers each hold half the series. All four reach
// tsdb.Execute, so all four must return the same series and the same error
// text, in label-key order on every request shape. A request
// QueryRequest.Validate rejects gets byte-identical 400 bodies from the
// coordinator and the single store.
func TestQueryTransportsAgree(t *testing.T) {
	// Created out of key order, so a store that visited in creation order
	// would show.
	single := tsdb.New(0)
	seedNodes(t, single, 3, 1, 4, 2)
	svc := tsdb.NewService(single)
	local := New(Options{Store: single})
	defer local.Close()

	// Coordinator and workers share one bus: their topics are disjoint by
	// direction, and synchronous dispatch makes every scatter complete
	// inside Answer. The halves interleave in key order, so the merge has
	// real ordering work to do.
	cb := bus.New()
	coord := cluster.NewCoordinator(cb, cluster.Options{})
	defer coord.Close()
	for id, nodes := range map[string][]int{"w1": {1, 3}, "w2": {4, 2}} {
		db := tsdb.New(0)
		seedNodes(t, db, nodes...)
		agent, err := cluster.NewAgent(cb, newTestControl(t, bus.New()), tsdb.NewService(db), cluster.AgentOptions{ID: id})
		if err != nil {
			t.Fatal(err)
		}
		defer agent.Close()
	}
	front := New(Options{Cluster: coord})
	defer front.Close()

	cases := []struct {
		name    string
		req     tsdb.QueryRequest
		series  int
		wantErr string
	}{
		{"range", tsdb.QueryRequest{Metric: "cpu", FromMS: 2000, ToMS: 6000}, 4, ""},
		{"range+matcher", tsdb.QueryRequest{Metric: "cpu", Match: telemetry.Labels{"rack": "r1"}, ToMS: 9000}, 2, ""},
		{"latest", tsdb.QueryRequest{Metric: "cpu", Latest: true}, 4, ""},
		{"latest beats step", tsdb.QueryRequest{Metric: "cpu", Latest: true, StepMS: 7000, Agg: "median"}, 4, ""},
		{"rollup", tsdb.QueryRequest{Metric: "cpu", StepMS: 5000, Agg: "mean", ToMS: 10000}, 4, ""},
		{"missing metric", tsdb.QueryRequest{FromMS: 1}, 0, "missing metric"},
		{"unknown agg", tsdb.QueryRequest{Metric: "cpu", StepMS: 5000, Agg: "median"}, 0, `unknown agg "median"`},
		{"unregistered rollup", tsdb.QueryRequest{Metric: "cpu", StepMS: 7000, Agg: "mean"}, 0, "no rollup cpu/7s/mean registered"},
		{"from>to", tsdb.QueryRequest{Metric: "cpu", FromMS: 6000, ToMS: 2000}, 0, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body, err := json.Marshal(tc.req)
			if err != nil {
				t.Fatal(err)
			}
			answered, err := json.Marshal(svc.Answer(tc.req))
			if err != nil {
				t.Fatal(err)
			}
			var viaBus tsdb.QueryResponse
			if err := json.Unmarshal(answered, &viaBus); err != nil {
				t.Fatal(err)
			}
			viaGET := decodeReply(t, serve(local, "GET", getTarget(tc.req), "", ""))
			localPOST := serve(local, "POST", "/v1/query", "", string(body))
			viaPOST := decodeReply(t, localPOST)
			coordPOST := serve(front, "POST", "/v1/query", "", string(body))
			viaCoord := decodeReply(t, coordPOST)

			if viaBus.Err != tc.wantErr || len(viaBus.Series) != tc.series {
				t.Fatalf("bus: err %q with %d series, want %q with %d", viaBus.Err, len(viaBus.Series), tc.wantErr, tc.series)
			}
			want := seriesSet(t, viaBus)
			for name, got := range map[string]tsdb.QueryResponse{"GET": viaGET, "POST": viaPOST, "coordinator": viaCoord} {
				if set := seriesSet(t, got); !reflect.DeepEqual(set, want) {
					t.Errorf("%s series = %+v, bus answered %+v", name, got.Series, viaBus.Series)
				}
				if got.Partial {
					t.Errorf("%s: partial", name)
				}
			}
			for name, got := range map[string]tsdb.QueryResponse{"GET": viaGET, "POST": viaPOST} {
				if got.Err != tc.wantErr {
					t.Errorf("%s err = %q, want %q", name, got.Err, tc.wantErr)
				}
			}
			if rejected := tc.req.Validate() != nil; rejected {
				// Rejected before the fan-out, as a single store rejects it.
				if coordPOST.Code != localPOST.Code || coordPOST.Body.String() != localPOST.Body.String() {
					t.Errorf("coordinator answered %d %q, single store %d %q",
						coordPOST.Code, coordPOST.Body.String(), localPOST.Code, localPOST.Body.String())
				}
			} else {
				// An error that depends on the store ("no rollup registered")
				// is each worker's: the merge attributes the same text to
				// every worker.
				var failed []tsdb.SourceError
				var flat []string
				if tc.wantErr != "" {
					for _, w := range []string{"w1", "w2"} {
						failed = append(failed, tsdb.SourceError{Source: w, Err: tc.wantErr})
						flat = append(flat, w+": "+tc.wantErr)
					}
				}
				if !reflect.DeepEqual(viaCoord.Failed, failed) || viaCoord.Err != strings.Join(flat, "; ") {
					t.Errorf("coordinator err = %q failed = %+v, want every worker reporting %q", viaCoord.Err, viaCoord.Failed, tc.wantErr)
				}
			}

			for name, got := range map[string]tsdb.QueryResponse{"bus": viaBus, "GET": viaGET, "POST": viaPOST, "coordinator": viaCoord} {
				if !inLabelKeyOrder(got) {
					t.Errorf("%s response not in label-key order: %+v", name, got.Series)
				}
			}
		})
	}
}
