package cluster

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"autoloop/internal/bus"
	"autoloop/internal/control"
	"autoloop/internal/core"
	"autoloop/internal/fleet"
	"autoloop/internal/knowledge"
	"autoloop/internal/sim"
	"autoloop/internal/telemetry"
	"autoloop/internal/tsdb"
)

// scriptCfg configures the test case: what kind of action each tick plans,
// against which subject. It rides the LoopSpec.Config path over the wire.
type scriptCfg struct {
	Kind    string `json:"kind"`
	Subject string `json:"subject"`
}

// testWorker is one in-process worker node: its own bus, bridge client,
// control service, telemetry store, and cluster agent — the same stack modad
// -role=worker runs, minus the simulation substrates.
type testWorker struct {
	id     string
	b      *bus.Bus
	client *bus.Client
	ctl    *control.Service
	db     *tsdb.DB
	dbsvc  *tsdb.Service
	agent  *Agent

	mu       sync.Mutex
	executed []core.Action
	now      time.Duration
}

func (w *testWorker) record(a core.Action) {
	w.mu.Lock()
	w.executed = append(w.executed, a)
	w.mu.Unlock()
}

func (w *testWorker) executedActions() []core.Action {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]core.Action(nil), w.executed...)
}

// tick runs one control round of virtual time on the worker.
func (w *testWorker) tick() {
	w.now += time.Minute
	w.ctl.Tick(w.now)
}

func newTestWorker(t *testing.T, addr, id string, opts AgentOptions) *testWorker {
	t.Helper()
	w := &testWorker{id: id, b: bus.New(), db: tsdb.New(time.Hour)}
	reg := control.NewRegistry()
	reg.MustRegister(control.CaseFactory{
		Name: "script",
		Doc:  "test: plans one configurable action per tick",
		Defaults: func() interface{} {
			return &scriptCfg{Kind: "act"}
		},
		Priority: 1,
		Build: func(env *control.Env, cfg interface{}) ([]control.BuiltLoop, error) {
			c := *cfg.(*scriptCfg)
			l := core.NewLoop("script",
				core.MonitorFunc(func(now time.Duration) (core.Observation, error) {
					return core.Observation{Time: now}, nil
				}),
				core.AnalyzerFunc(func(now time.Duration, obs core.Observation) (core.Symptoms, error) {
					return core.Symptoms{Time: now, Findings: []core.Finding{{Kind: "f", Subject: c.Subject, Confidence: 1}}}, nil
				}),
				core.PlannerFunc(func(now time.Duration, sym core.Symptoms) (core.Plan, error) {
					return core.Plan{Time: now, Actions: []core.Action{{
						Kind: c.Kind, Subject: c.Subject, Amount: 1, Confidence: 1,
					}}}, nil
				}),
				core.ExecutorFunc(func(now time.Duration, a core.Action) (core.ActionResult, error) {
					w.record(a)
					return core.ActionResult{Action: a, Honored: true, Granted: a.Amount}, nil
				}),
			)
			return []control.BuiltLoop{{Loop: l}}, nil
		},
	})
	env := &control.Env{
		Knowledge: knowledge.NewBase(),
		Clock:     sim.VirtualClock{Engine: sim.NewEngine(1)},
		Rng:       rand.New(rand.NewSource(1)),
		Bus:       w.b,
	}
	w.ctl = control.NewService(reg, env, fleet.New(1), time.Minute)
	w.dbsvc = tsdb.NewService(w.db)

	client, err := bus.Dial(addr, WorkerExportPattern, w.b)
	if err != nil {
		t.Fatalf("worker %s dial %s: %v", id, addr, err)
	}
	w.client = client
	t.Cleanup(func() { client.Close() })

	opts.ID = id
	if opts.Heartbeat == 0 {
		opts.Heartbeat = 50 * time.Millisecond
	}
	agent, err := NewAgent(w.b, w.ctl, w.dbsvc, opts)
	if err != nil {
		t.Fatalf("worker %s agent: %v", id, err)
	}
	w.agent = agent
	t.Cleanup(agent.Close)
	return w
}

// kill simulates a dead worker process: the agent stops heartbeating and the
// TCP connection drops, with no goodbye on the wire.
func (w *testWorker) kill() {
	w.agent.Close()
	w.client.Close()
}

// testCluster is a coordinator plus its cluster-facing bridge server and a
// background wall-clock Tick driver.
type testCluster struct {
	coord *Coordinator
	b     *bus.Bus
	addr  string
}

func newTestCluster(t *testing.T, opts Options) *testCluster {
	t.Helper()
	b := bus.New()
	coord := NewCoordinator(b, opts)
	t.Cleanup(coord.Close)
	srv, err := bus.NewServer("127.0.0.1:0", CoordExportPattern, b)
	if err != nil {
		t.Fatalf("cluster server: %v", err)
	}
	t.Cleanup(func() { srv.Close() })

	stop := make(chan struct{})
	t.Cleanup(func() { close(stop) })
	go func() {
		ticker := time.NewTicker(25 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case now := <-ticker.C:
				coord.Tick(now)
			}
		}
	}()
	return &testCluster{coord: coord, b: b, addr: srv.Addr()}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func placedCount(c *Coordinator) int {
	n := 0
	for _, p := range c.Placements() {
		if p.State == placePlaced {
			n++
		}
	}
	return n
}

// TestClusterPlacementAndScatter drives the full placement path over a real
// TCP loopback bridge: three workers join, nine specs spread across them,
// and the operator surface (list, get, lifecycle, members, tsdb queries)
// answers with merged cluster-wide views.
func TestClusterPlacementAndScatter(t *testing.T) {
	tc := newTestCluster(t, Options{Lease: 2 * time.Second})
	workers := make(map[string]*testWorker)
	for _, id := range []string{"w1", "w2", "w3"} {
		workers[id] = newTestWorker(t, tc.addr, id, AgentOptions{})
	}
	waitFor(t, 5*time.Second, "3 alive members", func() bool {
		return len(tc.coord.Directory().Alive()) == 3
	})

	const groups = 9
	for i := 0; i < groups; i++ {
		spec := control.LoopSpec{Case: "script", Name: fmt.Sprintf("g%d", i)}
		if _, err := tc.coord.AddSpec(spec); err != nil {
			t.Fatalf("AddSpec g%d: %v", i, err)
		}
	}
	waitFor(t, 5*time.Second, "all specs placed", func() bool {
		return placedCount(tc.coord) == groups
	})

	// Placement is spread, not piled on one node.
	owners := make(map[string]int)
	for _, p := range tc.coord.Placements() {
		owners[p.Worker]++
	}
	if len(owners) < 2 {
		t.Fatalf("all %d groups landed on one worker: %v", groups, owners)
	}
	held := 0
	for _, w := range workers {
		held += len(w.agent.Held())
	}
	if held != groups {
		t.Fatalf("workers hold %d groups, want %d", held, groups)
	}

	// Duplicate groups are rejected at admission.
	if _, err := tc.coord.AddSpec(control.LoopSpec{Case: "script", Name: "g0"}); err == nil {
		t.Fatal("duplicate group admitted")
	}

	// Run a few rounds everywhere so loops have live metrics.
	for _, w := range workers {
		for i := 0; i < 3; i++ {
			w.tick()
		}
	}

	// list: a merged facility-wide view with Worker stamped on every row.
	r := tc.coord.Handle(control.Request{Op: control.OpList})
	if !r.OK {
		t.Fatalf("list failed: %s", r.Error)
	}
	if len(r.Loops) != groups {
		t.Fatalf("list returned %d loops, want %d", len(r.Loops), groups)
	}
	for _, st := range r.Loops {
		if st.Worker == "" {
			t.Fatalf("loop %s has no worker stamp", st.Name)
		}
		if st.Metrics.Ticks == 0 {
			t.Fatalf("loop %s never ticked on %s", st.Name, st.Worker)
		}
	}

	// members: three alive workers reporting held groups.
	r = tc.coord.Handle(control.Request{Op: control.OpMembers})
	if !r.OK || len(r.Members) != 3 {
		t.Fatalf("members = %+v", r)
	}
	totalLoops := 0
	for _, m := range r.Members {
		if m.State != "alive" {
			t.Fatalf("member %s state %s", m.ID, m.State)
		}
		totalLoops += m.Loops
	}
	if totalLoops != groups {
		t.Fatalf("members report %d loops, want %d", totalLoops, groups)
	}

	// Lifecycle routed to the owner: pause g0, observe it paused via get.
	r = tc.coord.Handle(control.Request{Op: control.OpPause, Loop: "g0"})
	if !r.OK {
		t.Fatalf("pause g0: %s", r.Error)
	}
	r = tc.coord.Handle(control.Request{Op: control.OpGet, Loop: "g0"})
	if !r.OK || r.Loop == nil {
		t.Fatalf("get g0: %+v", r)
	}
	if r.Loop.State != "paused" || r.Loop.Worker == "" {
		t.Fatalf("get g0 = state %s worker %q, want paused on a worker", r.Loop.State, r.Loop.Worker)
	}

	// tsdb scatter-gather: each worker stores one distinct series; a query
	// published on the coordinator bus returns the merged facility view.
	for i, id := range []string{"w1", "w2", "w3"} {
		if err := workers[id].db.Append(telemetry.Point{
			Name: "node.temp", Labels: telemetry.Labels{"node": id},
			Time: time.Minute, Value: float64(40 + i),
		}); err != nil {
			t.Fatalf("append on %s: %v", id, err)
		}
	}
	results := make(chan tsdb.QueryResponse, 1)
	cancel := tc.b.Subscribe(tsdb.ResultTopic, func(env bus.Envelope) {
		if resp, ok := env.Payload.(tsdb.QueryResponse); ok {
			select {
			case results <- resp:
			default:
			}
		}
	})
	defer cancel()
	tc.b.Publish(bus.Envelope{Topic: tsdb.QueryTopic, Payload: tsdb.QueryRequest{
		ID: "q1", Metric: "node.temp", Latest: true,
	}})
	select {
	case resp := <-results:
		if resp.Err != "" {
			t.Fatalf("query error: %s", resp.Err)
		}
		if len(resp.Series) != 3 {
			t.Fatalf("merged query returned %d series, want 3: %+v", len(resp.Series), resp)
		}
		for i := 1; i < len(resp.Series); i++ {
			if resp.Series[i-1].Labels["node"] > resp.Series[i].Labels["node"] {
				t.Fatalf("merged series not in deterministic order: %+v", resp.Series)
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no merged query response")
	}

	// A request no store could answer is rejected before the fan-out, with
	// the text a single store's service gives.
	fanouts := tc.coord.Stats().Fanouts
	for _, bad := range []struct {
		req  tsdb.QueryRequest
		want string
	}{
		{tsdb.QueryRequest{ID: "q2"}, "missing metric"},
		{tsdb.QueryRequest{ID: "q3", Metric: "node.temp", StepMS: 5000, Agg: "bogus"}, `unknown agg "bogus"`},
	} {
		tc.b.Publish(bus.Envelope{Topic: tsdb.QueryTopic, Payload: bad.req})
		select {
		case resp := <-results:
			if resp.ID != bad.req.ID || resp.Err != bad.want || len(resp.Failed) != 0 {
				t.Fatalf("bad query %s answered %+v, want err %q from the coordinator", bad.req.ID, resp, bad.want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("no answer to bad query %s", bad.req.ID)
		}
	}
	if got := tc.coord.Stats().Fanouts; got != fanouts {
		t.Fatalf("bad queries fanned out: fanouts %d -> %d", fanouts, got)
	}

	// remove: routed to the owner and dropped from the placement table.
	r = tc.coord.Handle(control.Request{Op: control.OpRemove, Loop: "g0"})
	if !r.OK {
		t.Fatalf("remove g0: %s", r.Error)
	}
	if got := len(tc.coord.Placements()); got != groups-1 {
		t.Fatalf("placements after remove = %d, want %d", got, groups-1)
	}
}

// TestClusterFailover kills one worker without a goodbye and asserts its
// loops are re-placed on the survivors within the lease window.
func TestClusterFailover(t *testing.T) {
	const lease = 500 * time.Millisecond
	tc := newTestCluster(t, Options{Lease: lease})
	workers := map[string]*testWorker{
		"w1": newTestWorker(t, tc.addr, "w1", AgentOptions{}),
		"w2": newTestWorker(t, tc.addr, "w2", AgentOptions{}),
		"w3": newTestWorker(t, tc.addr, "w3", AgentOptions{}),
	}
	waitFor(t, 5*time.Second, "3 alive members", func() bool {
		return len(tc.coord.Directory().Alive()) == 3
	})
	const groups = 6
	for i := 0; i < groups; i++ {
		if _, err := tc.coord.AddSpec(control.LoopSpec{Case: "script", Name: fmt.Sprintf("g%d", i)}); err != nil {
			t.Fatalf("AddSpec: %v", err)
		}
	}
	waitFor(t, 5*time.Second, "all specs placed", func() bool {
		return placedCount(tc.coord) == groups
	})

	// Pick a victim that owns at least one group.
	victim := ""
	for _, p := range tc.coord.Placements() {
		if p.Worker != "" {
			victim = p.Worker
			break
		}
	}
	start := time.Now()
	workers[victim].kill()

	waitFor(t, 4*lease+2*time.Second, "failover to survivors", func() bool {
		if placedCount(tc.coord) != groups {
			return false
		}
		for _, p := range tc.coord.Placements() {
			if p.Worker == victim {
				return false
			}
		}
		return true
	})
	elapsed := time.Since(start)

	s := tc.coord.Stats()
	if s.Failovers == 0 {
		t.Fatal("no failovers counted")
	}
	if s.LeaseExpiries == 0 {
		t.Fatal("no lease expiry counted")
	}
	// The lease window bounds detection; allow generous scheduling slack on
	// top for CI, but a failover taking many multiples of the lease means
	// the sweep is broken.
	if elapsed > 4*lease+2*time.Second {
		t.Fatalf("failover took %v with a %v lease", elapsed, lease)
	}
	// The victim stays visible as expired until it re-Hellos.
	found := false
	for _, m := range tc.coord.Members() {
		if m.ID == victim {
			found = true
			if m.State != "expired" {
				t.Fatalf("victim %s state %s, want expired", victim, m.State)
			}
		}
	}
	if !found {
		t.Fatalf("victim %s vanished from the member table", victim)
	}
	// Survivors actually spawned the moved loops.
	held := 0
	for id, w := range workers {
		if id != victim {
			held += len(w.agent.Held())
		}
	}
	if held != groups {
		t.Fatalf("survivors hold %d groups, want %d", held, groups)
	}
}

// TestClusterSeveredConnection severs one worker's TCP connection mid-flight
// — the worker process is alive and still heartbeating into its local bus,
// but nothing crosses the bridge — and asserts the coordinator expires the
// lease and moves the work, exactly as for a dead process.
func TestClusterSeveredConnection(t *testing.T) {
	const lease = 500 * time.Millisecond
	tc := newTestCluster(t, Options{Lease: lease})
	w1 := newTestWorker(t, tc.addr, "w1", AgentOptions{})
	w2 := newTestWorker(t, tc.addr, "w2", AgentOptions{})
	_ = w1
	waitFor(t, 5*time.Second, "2 alive members", func() bool {
		return len(tc.coord.Directory().Alive()) == 2
	})
	const groups = 4
	for i := 0; i < groups; i++ {
		if _, err := tc.coord.AddSpec(control.LoopSpec{Case: "script", Name: fmt.Sprintf("g%d", i)}); err != nil {
			t.Fatalf("AddSpec: %v", err)
		}
	}
	waitFor(t, 5*time.Second, "all specs placed", func() bool {
		return placedCount(tc.coord) == groups
	})

	// Sever w2's wire only: its agent keeps running and publishing
	// heartbeats locally, but the bridge is gone.
	w2.client.Close()

	waitFor(t, 4*lease+2*time.Second, "lease expiry and takeover", func() bool {
		if tc.coord.Directory().IsAlive("w2") {
			return false
		}
		for _, p := range tc.coord.Placements() {
			if p.Worker != "w1" || p.State != placePlaced {
				return false
			}
		}
		return true
	})
	// The severed worker's later heartbeats cannot resurrect it: only a
	// re-Hello (a reconnect in production) could, and its wire is gone.
	time.Sleep(3 * time.Duration(DefaultHeartbeat))
	if tc.coord.Directory().IsAlive("w2") {
		t.Fatal("severed worker came back alive without a wire")
	}
	if len(w1.agent.Held()) != groups {
		t.Fatalf("survivor holds %d groups, want %d", len(w1.agent.Held()), groups)
	}
}

// TestClusterCrossNodeArbitration runs two workers whose loops contradict
// each other on a shared subject and asserts the coordinator's arbiter
// suppresses the later, lower-priority action across the wire.
func TestClusterCrossNodeArbitration(t *testing.T) {
	tc := newTestCluster(t, Options{Lease: 2 * time.Second, ArbWindow: 10 * time.Second})
	agentOpts := AgentOptions{ArbTimeout: 2 * time.Second}
	workers := map[string]*testWorker{
		"w1": newTestWorker(t, tc.addr, "w1", agentOpts),
		"w2": newTestWorker(t, tc.addr, "w2", agentOpts),
	}
	waitFor(t, 5*time.Second, "2 alive members", func() bool {
		return len(tc.coord.Directory().Alive()) == 2
	})

	// Pick group names the ring provably places on different workers, using
	// the same deterministic ring the coordinator computes with.
	ring := NewRing(0)
	ring.Add("w1")
	ring.Add("w2")
	capper := "capper"
	capOwner := ring.Owner(capper)
	raiser := ""
	for i := 0; i < 1000 && raiser == ""; i++ {
		name := fmt.Sprintf("raiser-%d", i)
		if ring.Owner(name) != capOwner {
			raiser = name
		}
	}
	if raiser == "" {
		t.Fatal("could not find a group hashing to the other worker")
	}

	hi, lo := 9, 1
	for _, s := range []control.LoopSpec{
		{Case: "script", Name: capper, Priority: &hi,
			Config: []byte(`{"kind":"cap.power","subject":"plant"}`)},
		{Case: "script", Name: raiser, Priority: &lo,
			Config: []byte(`{"kind":"raise.power","subject":"plant"}`)},
	} {
		if _, err := tc.coord.AddSpec(s); err != nil {
			t.Fatalf("AddSpec %s: %v", s.Name, err)
		}
	}
	waitFor(t, 5*time.Second, "both specs placed", func() bool {
		return placedCount(tc.coord) == 2
	})

	// The capper's round grants it the subject; the raiser's round inside
	// the window is denied across nodes.
	workers[capOwner].tick()
	raiseOwner := "w1"
	if capOwner == "w1" {
		raiseOwner = "w2"
	}
	workers[raiseOwner].tick()

	if got := workers[capOwner].executedActions(); len(got) != 1 || got[0].Kind != "cap.power" {
		t.Fatalf("capper executed %+v, want one cap.power", got)
	}
	if got := workers[raiseOwner].executedActions(); len(got) != 0 {
		t.Fatalf("raiser executed %+v despite cross-node denial", got)
	}
	m := workers[raiseOwner].ctl.Coordinator().Metrics()
	if m.Remote != 1 || m.Arbitrated != 1 {
		t.Fatalf("raiser fleet metrics = %+v, want Remote=1 Arbitrated=1", m)
	}
	if tc.coord.Stats().DigestsDenied != 1 {
		t.Fatalf("coordinator denied %d digests, want 1", tc.coord.Stats().DigestsDenied)
	}

	// Outside the window the raiser is free again.
	time.Sleep(50 * time.Millisecond) // let nothing linger on the wire
	tc.coord.arb.Forget(capOwner)
	workers[raiseOwner].tick()
	if got := workers[raiseOwner].executedActions(); len(got) != 1 {
		t.Fatalf("raiser still suppressed after the grant was dropped: %+v", got)
	}
}
