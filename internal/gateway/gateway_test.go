package gateway

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"autoloop/internal/bus"
	"autoloop/internal/control"
	"autoloop/internal/core"
	"autoloop/internal/fleet"
	"autoloop/internal/sim"
	"autoloop/internal/telemetry"
	"autoloop/internal/tsdb"
)

// newTestDB seeds a database with two cpu series (node=n1 values 0..9,
// node=n2 values 0,2,..,18, one sample per second) and a cpu/5s/mean rollup.
func newTestDB(t testing.TB) *tsdb.DB {
	t.Helper()
	db := tsdb.New(0)
	if err := db.AddRollup(tsdb.RollupRule{Metric: "cpu", Step: 5 * time.Second, Agg: tsdb.AggMean}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		ts := time.Duration(i) * time.Second
		if err := db.Append(telemetry.Point{Name: "cpu", Labels: telemetry.Labels{"node": "n1"}, Time: ts, Value: float64(i)}); err != nil {
			t.Fatal(err)
		}
		if err := db.Append(telemetry.Point{Name: "cpu", Labels: telemetry.Labels{"node": "n2"}, Time: ts, Value: float64(2 * i)}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// newTestControl wires a control service with one trivial registered case
// ("script") on the given bus, mirroring the control package's own tests.
func newTestControl(t testing.TB, b *bus.Bus) *control.Service {
	t.Helper()
	reg := control.NewRegistry()
	reg.MustRegister(control.CaseFactory{
		Name:     "script",
		Doc:      "test: plans one action per tick",
		Defaults: func() interface{} { return &struct{}{} },
		Priority: 1,
		Build: func(env *control.Env, c interface{}) ([]control.BuiltLoop, error) {
			l := core.NewLoop("script",
				core.MonitorFunc(func(now time.Duration) (core.Observation, error) {
					return core.Observation{Time: now}, nil
				}),
				core.AnalyzerFunc(func(now time.Duration, obs core.Observation) (core.Symptoms, error) {
					return core.Symptoms{Time: now, Findings: []core.Finding{{Kind: "f", Subject: "s1", Confidence: 1}}}, nil
				}),
				core.PlannerFunc(func(now time.Duration, sym core.Symptoms) (core.Plan, error) {
					return core.Plan{Time: now, Actions: []core.Action{{Kind: "act", Subject: "s1", Amount: 1, Confidence: 1}}}, nil
				}),
				core.ExecutorFunc(func(now time.Duration, a core.Action) (core.ActionResult, error) {
					return core.ActionResult{Action: a, Honored: true, Granted: a.Amount}, nil
				}),
			)
			return []control.BuiltLoop{{Loop: l}}, nil
		},
	})
	engine := sim.NewEngine(1)
	env := &control.Env{Clock: sim.VirtualClock{Engine: engine}, Bus: b}
	svc := control.NewService(reg, env, fleet.New(1), time.Minute).Attach(b, "test")
	t.Cleanup(svc.Close)
	return svc
}

// serve issues one request against the gateway handler.
func serve(g *Gateway, method, target, token, body string) *httptest.ResponseRecorder {
	var r *http.Request
	if body != "" {
		r = httptest.NewRequest(method, target, strings.NewReader(body))
	} else {
		r = httptest.NewRequest(method, target, nil)
	}
	if token != "" {
		r.Header.Set("Authorization", "Bearer "+token)
	}
	w := httptest.NewRecorder()
	g.Handler().ServeHTTP(w, r)
	return w
}

func decodeQueryResponse(t *testing.T, w *httptest.ResponseRecorder) tsdb.QueryResponse {
	t.Helper()
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body.String())
	}
	var resp tsdb.QueryResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode response: %v (%s)", err, w.Body.String())
	}
	return resp
}

// seriesByNode indexes a response by the node label.
func seriesByNode(resp tsdb.QueryResponse) map[string]tsdb.WireSeries {
	out := make(map[string]tsdb.WireSeries, len(resp.Series))
	for _, s := range resp.Series {
		out[s.Labels["node"]] = s
	}
	return out
}

func TestAuthRoles(t *testing.T) {
	b := bus.New()
	g := New(Options{
		Store:          newTestDB(t),
		Control:        newTestControl(t, b),
		Bus:            b,
		ReadTokens:     []string{"reader"},
		OperatorTokens: []string{"operator"},
	})
	defer g.Close()

	cases := []struct {
		name           string
		method, target string
		token          string
		want           int
	}{
		{"healthz open", "GET", "/healthz", "", http.StatusOK},
		{"query no token", "GET", "/v1/query?metric=cpu", "", http.StatusUnauthorized},
		{"query bad token", "GET", "/v1/query?metric=cpu", "wrong", http.StatusUnauthorized},
		{"query read token", "GET", "/v1/query?metric=cpu", "reader", http.StatusOK},
		{"query operator token", "GET", "/v1/query?metric=cpu", "operator", http.StatusOK},
		{"metrics no token", "GET", "/metrics", "", http.StatusUnauthorized},
		{"metrics read token", "GET", "/metrics", "reader", http.StatusOK},
		{"stream no token", "GET", "/v1/stream", "", http.StatusUnauthorized},
		{"control list read token", "POST", "/v1/control/list", "reader", http.StatusOK},
		{"control pending read token", "POST", "/v1/control/pending", "reader", http.StatusOK},
		{"control spawn no token", "POST", "/v1/control/spawn", "", http.StatusUnauthorized},
		{"control spawn read token", "POST", "/v1/control/spawn", "reader", http.StatusForbidden},
		{"control set-mode read token", "POST", "/v1/control/set-mode", "reader", http.StatusForbidden},
		{"control approve read token", "POST", "/v1/control/approve", "reader", http.StatusForbidden},
		{"control unknown op", "POST", "/v1/control/nonsense", "operator", http.StatusNotFound},
		{"control GET not allowed", "GET", "/v1/control/list", "reader", http.StatusMethodNotAllowed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if w := serve(g, tc.method, tc.target, tc.token, ""); w.Code != tc.want {
				t.Fatalf("%s %s token=%q: status = %d, want %d (body %s)",
					tc.method, tc.target, tc.token, w.Code, tc.want, w.Body.String())
			}
		})
	}

	// The query-string token form (EventSource cannot set headers).
	if w := serve(g, "GET", "/v1/query?metric=cpu&token=reader", "", ""); w.Code != http.StatusOK {
		t.Fatalf("query-param token: status = %d", w.Code)
	}
}

func TestOpenModeGrantsOperator(t *testing.T) {
	b := bus.New()
	g := New(Options{Store: newTestDB(t), Control: newTestControl(t, b), Bus: b})
	defer g.Close()
	if w := serve(g, "GET", "/v1/query?metric=cpu", "", ""); w.Code != http.StatusOK {
		t.Fatalf("open-mode query: status = %d", w.Code)
	}
	w := serve(g, "POST", "/v1/control/spawn", "", `{"spec":{"case":"script"}}`)
	var rep control.Reply
	if err := json.Unmarshal(w.Body.Bytes(), &rep); err != nil || w.Code != http.StatusOK || !rep.OK {
		t.Fatalf("open-mode spawn: status = %d, reply %s", w.Code, w.Body.String())
	}
}

func TestQueryRangePOSTMatchesStore(t *testing.T) {
	db := newTestDB(t)
	g := New(Options{Store: db})
	defer g.Close()

	w := serve(g, "POST", "/v1/query", "", `{"metric":"cpu","from_ms":2000,"to_ms":5000}`)
	got := seriesByNode(decodeQueryResponse(t, w))
	want := db.Query("cpu", nil, 2*time.Second, 5*time.Second)
	if len(got) != len(want) {
		t.Fatalf("got %d series, want %d", len(got), len(want))
	}
	for _, ws := range want {
		gs, ok := got[ws.Labels["node"]]
		if !ok {
			t.Fatalf("missing series %v", ws.Labels)
		}
		if gs.Metric != "cpu" || len(gs.Samples) != len(ws.Samples) {
			t.Fatalf("series %v: got %d samples, want %d", ws.Labels, len(gs.Samples), len(ws.Samples))
		}
		for i, s := range ws.Samples {
			if gs.Samples[i].TimeMS != int64(s.Time/time.Millisecond) || gs.Samples[i].Value != s.Value {
				t.Fatalf("series %v sample %d = %+v, want %+v", ws.Labels, i, gs.Samples[i], s)
			}
		}
	}
}

func TestQueryGETWithMatcher(t *testing.T) {
	g := New(Options{Store: newTestDB(t)})
	defer g.Close()
	w := serve(g, "GET", "/v1/query?metric=cpu&from_ms=0&to_ms=10000&match.node=n1", "", "")
	resp := decodeQueryResponse(t, w)
	if len(resp.Series) != 1 || resp.Series[0].Labels["node"] != "n1" {
		t.Fatalf("response = %s", w.Body.String())
	}
	if n := len(resp.Series[0].Samples); n != 10 {
		t.Fatalf("got %d samples, want 10", n)
	}
}

func TestQueryLatest(t *testing.T) {
	g := New(Options{Store: newTestDB(t)})
	defer g.Close()
	w := serve(g, "GET", "/v1/query?metric=cpu&latest=true", "", "")
	got := seriesByNode(decodeQueryResponse(t, w))
	if len(got) != 2 {
		t.Fatalf("got %d series, want 2", len(got))
	}
	for node, wantV := range map[string]float64{"n1": 9, "n2": 18} {
		s := got[node]
		if len(s.Samples) != 1 || s.Samples[0].Value != wantV || s.Samples[0].TimeMS != 9000 {
			t.Fatalf("latest %s = %+v, want value %v at 9000ms", node, s.Samples, wantV)
		}
	}
}

func TestQueryRollup(t *testing.T) {
	g := New(Options{Store: newTestDB(t)})
	defer g.Close()
	w := serve(g, "GET", "/v1/query?metric=cpu&from_ms=0&to_ms=10000&step_ms=5000&agg=mean", "", "")
	got := seriesByNode(decodeQueryResponse(t, w))
	// One flushed bucket per series: [0,5s) stamped at 5s, mean of the first
	// five values.
	for node, wantV := range map[string]float64{"n1": 2, "n2": 4} {
		s := got[node]
		if len(s.Samples) < 1 || s.Samples[0].TimeMS != 5000 || s.Samples[0].Value != wantV {
			t.Fatalf("rollup %s = %+v, want mean %v at 5000ms", node, s.Samples, wantV)
		}
	}
}

func TestQueryBadRequests(t *testing.T) {
	g := New(Options{Store: newTestDB(t)})
	defer g.Close()
	cases := []struct {
		name           string
		method, target string
		body           string
		wantErr        string
	}{
		{"malformed json", "POST", "/v1/query", `{"metric":`, "decode query request"},
		{"wrong field type", "POST", "/v1/query", `{"metric":123,"latest":"yes"}`, "decode query request"},
		{"missing metric", "POST", "/v1/query", `{"from_ms":1}`, "missing metric"},
		{"unknown agg", "GET", "/v1/query?metric=cpu&step_ms=5000&agg=median", "", "unknown agg"},
		{"unregistered rollup", "GET", "/v1/query?metric=cpu&step_ms=7000&agg=mean", "", "no rollup"},
		{"bad from_ms", "GET", "/v1/query?metric=cpu&from_ms=abc", "", "bad from_ms"},
		{"bad latest", "GET", "/v1/query?metric=cpu&latest=maybe", "", "bad latest"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := serve(g, tc.method, tc.target, "", tc.body)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (body %s)", w.Code, w.Body.String())
			}
			if !strings.Contains(w.Body.String(), tc.wantErr) {
				t.Fatalf("body = %s, want mention of %q", w.Body.String(), tc.wantErr)
			}
		})
	}
}

func TestControlLifecycleOverHTTP(t *testing.T) {
	b := bus.New()
	svc := newTestControl(t, b)
	g := New(Options{Store: newTestDB(t), Control: svc, Bus: b})
	defer g.Close()

	post := func(op, body string) (int, control.Reply) {
		w := serve(g, "POST", "/v1/control/"+op, "", body)
		var rep control.Reply
		if err := json.Unmarshal(w.Body.Bytes(), &rep); err != nil {
			t.Fatalf("%s: decode reply: %v (%s)", op, err, w.Body.String())
		}
		return w.Code, rep
	}

	if code, rep := post("spawn", `{"spec":{"case":"script"}}`); code != 200 || !rep.OK || rep.Loop == nil || rep.Loop.Name != "script" {
		t.Fatalf("spawn = %d %+v", code, rep)
	}
	svc.Tick(1 * time.Minute)
	if code, rep := post("list", ""); code != 200 || !rep.OK || len(rep.Loops) != 1 || rep.Loops[0].State != "running" {
		t.Fatalf("list = %d %+v", code, rep)
	}
	if code, rep := post("pause", `{"loop":"script"}`); code != 200 || !rep.OK || rep.Loop.State != "paused" {
		t.Fatalf("pause = %d %+v", code, rep)
	}
	if code, rep := post("resume", `{"loop":"script"}`); code != 200 || !rep.OK || rep.Loop.State != "running" {
		t.Fatalf("resume = %d %+v", code, rep)
	}
	// The op in the path is authoritative: a body naming a different op is
	// overridden, not trusted.
	if code, rep := post("get", `{"op":"remove","loop":"script"}`); code != 200 || !rep.OK || rep.Op != control.OpGet {
		t.Fatalf("get with lying body = %d %+v", code, rep)
	}
	// Failed ops surface as 400 with the control error.
	if code, rep := post("pause", `{"loop":"nope"}`); code != 400 || rep.OK || rep.Error == "" {
		t.Fatalf("pause unknown loop = %d %+v", code, rep)
	}
}

func TestControlApproveDenyOverHTTP(t *testing.T) {
	b := bus.New()
	svc := newTestControl(t, b)
	g := New(Options{Store: newTestDB(t), Control: svc, Bus: b})
	defer g.Close()

	w := serve(g, "POST", "/v1/control/spawn", "", `{"spec":{"case":"script","mode":"human-in-the-loop"}}`)
	if w.Code != 200 {
		t.Fatalf("spawn: %d %s", w.Code, w.Body.String())
	}
	svc.Tick(1 * time.Minute) // plans one action, defers it for approval

	w = serve(g, "POST", "/v1/control/pending", "", "")
	var rep control.Reply
	if err := json.Unmarshal(w.Body.Bytes(), &rep); err != nil || !rep.OK || len(rep.Pending) != 1 {
		t.Fatalf("pending = %s (%v)", w.Body.String(), err)
	}
	seq := rep.Pending[0].Seq

	// Deny a bogus seq: 400 with the control error.
	w = serve(g, "POST", "/v1/control/deny", "", `{"seq":999}`)
	if w.Code != 400 || !strings.Contains(w.Body.String(), "no pending action") {
		t.Fatalf("deny bogus seq = %d %s", w.Code, w.Body.String())
	}
	// Approve the real one: acknowledged as queued.
	w = serve(g, "POST", "/v1/control/approve", "", fmt.Sprintf(`{"seq":%d,"reason":"ok"}`, seq))
	if err := json.Unmarshal(w.Body.Bytes(), &rep); err != nil || w.Code != 200 || !rep.OK ||
		rep.Resolution == nil || rep.Resolution.Outcome != control.OutcomeQueued {
		t.Fatalf("approve = %d %s", w.Code, w.Body.String())
	}
	svc.Tick(5 * time.Minute)
	w = serve(g, "POST", "/v1/control/get", "", `{"loop":"script"}`)
	if err := json.Unmarshal(w.Body.Bytes(), &rep); err != nil || !rep.OK || rep.Loop.Metrics.Executed != 1 {
		t.Fatalf("executed after approval = %s", w.Body.String())
	}
}

func TestControlUnavailable(t *testing.T) {
	g := New(Options{Store: newTestDB(t)})
	defer g.Close()
	if w := serve(g, "POST", "/v1/control/list", "", ""); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", w.Code)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	b := bus.New()
	g := New(Options{Store: newTestDB(t), Control: newTestControl(t, b), Bus: b})
	defer g.Close()
	serve(g, "GET", "/v1/query?metric=cpu", "", "")
	w := serve(g, "GET", "/metrics", "", "")
	if w.Code != http.StatusOK {
		t.Fatalf("metrics status = %d", w.Code)
	}
	body := w.Body.String()
	for _, want := range []string{
		"gateway_requests_total", "gateway_queries_coalesced_total",
		"tsdb_series 2", "tsdb_appended_total 20",
		"bus_published_total", "gateway_sse_clients 0",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics body missing %q:\n%s", want, body)
		}
	}
}

// gateStore wraps a Store so the test can hold the first QueryVisit open
// while concurrent identical queries pile up behind the singleflight.
type gateStore struct {
	Store
	visits  atomic.Int32
	entered chan struct{}
	release chan struct{}
}

func (s *gateStore) QueryVisit(name string, matcher telemetry.Labels, from, to time.Duration, visit telemetry.SeriesVisitor) {
	if s.visits.Add(1) == 1 {
		close(s.entered)
	}
	<-s.release
	s.Store.QueryVisit(name, matcher, from, to, visit)
}

func TestQueryCoalescing(t *testing.T) {
	st := &gateStore{Store: newTestDB(t), entered: make(chan struct{}), release: make(chan struct{})}
	g := New(Options{Store: st})
	defer g.Close()

	const n = 8
	req := tsdb.QueryRequest{Metric: "cpu", ToMS: 10000}
	key := queryKey(&req)

	var wg sync.WaitGroup
	bodies := make([]string, n)
	codes := make([]int, n)
	launch := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := serve(g, "GET", "/v1/query?metric=cpu&to_ms=10000", "", "")
			codes[i], bodies[i] = w.Code, w.Body.String()
		}()
	}
	launch(0)
	<-st.entered // leader is inside the store visit
	for i := 1; i < n; i++ {
		launch(i)
	}
	// Wait for every joiner to be parked on the in-flight call, then let the
	// leader finish.
	deadline := time.Now().Add(10 * time.Second)
	for {
		g.flight.mu.Lock()
		c := g.flight.m[key]
		refs := int32(0)
		if c != nil {
			refs = c.refs.Load()
		}
		g.flight.mu.Unlock()
		if refs == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("joiners never parked: refs = %d", refs)
		}
		time.Sleep(time.Millisecond)
	}
	close(st.release)
	wg.Wait()

	if v := st.visits.Load(); v != 1 {
		t.Fatalf("store visits = %d, want 1", v)
	}
	if got := g.Stats().Coalesced; got != n-1 {
		t.Fatalf("coalesced = %d, want %d", got, n-1)
	}
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK || bodies[i] != bodies[0] {
			t.Fatalf("response %d diverged: %d %s", i, codes[i], bodies[i])
		}
	}
	// The flight is gone once settled: the next query visits the store again.
	st.release = make(chan struct{})
	close(st.release)
	if w := serve(g, "GET", "/v1/query?metric=cpu&to_ms=10000", "", ""); w.Code != http.StatusOK {
		t.Fatalf("follow-up query: %d", w.Code)
	}
	if v := st.visits.Load(); v != 2 {
		t.Fatalf("store visits after follow-up = %d, want 2 (coalescing is not a cache)", v)
	}
}

func TestEncoderProducesValidJSON(t *testing.T) {
	e := getEncoder()
	defer e.release()
	e.begin("req-1")
	e.beginSeries("weird", telemetry.Labels{"q": `a"b\c`, "u": "héllo\n", "z": "plain"})
	e.sample(0, time.Second, math.NaN())
	e.sample(1, 2*time.Second, math.Inf(1))
	e.sample(2, 3*time.Second, 1.5)
	e.endSeries()
	e.end()

	var resp struct {
		ID     string `json:"id"`
		Series []struct {
			Metric  string                `json:"metric"`
			Labels  map[string]string     `json:"labels"`
			Samples []map[string]*float64 `json:"samples"`
		} `json:"series"`
	}
	if err := json.Unmarshal(e.buf, &resp); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, e.buf)
	}
	if resp.ID != "req-1" || len(resp.Series) != 1 {
		t.Fatalf("decoded = %+v", resp)
	}
	s := resp.Series[0]
	if s.Labels["q"] != `a"b\c` || s.Labels["u"] != "héllo\n" {
		t.Fatalf("labels round-trip = %+v", s.Labels)
	}
	if s.Samples[0]["v"] != nil || s.Samples[1]["v"] != nil {
		t.Fatal("non-finite values must encode as null")
	}
	if v := s.Samples[2]["v"]; v == nil || *v != 1.5 {
		t.Fatalf("finite value = %v", v)
	}
}

func TestGatewayEncodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate is meaningless under -race")
	}
	g := New(Options{Store: newTestDB(t)})
	defer g.Close()
	req := tsdb.QueryRequest{Metric: "cpu", ToMS: 10000}
	run := func() {
		e, err := g.encodeQuery(&req)
		if err != nil {
			t.Fatal(err)
		}
		e.release()
	}
	for i := 0; i < 4; i++ {
		run() // warm the pool
	}
	if avg := testing.AllocsPerRun(200, run); avg > 0 {
		t.Fatalf("warm range encode allocates %.1f times per query, want 0", avg)
	}
}
