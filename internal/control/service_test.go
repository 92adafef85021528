package control_test

import (
	"bufio"
	"net"
	"strings"
	"testing"
	"time"

	"autoloop/internal/bus"
	"autoloop/internal/control"
	"autoloop/internal/core"
	"autoloop/internal/fleet"
	"autoloop/internal/sim"
)

// script is a capability-free test case: every tick plans one action on the
// configured subject and records what executes.
type script struct{ executed []core.Action }

// scriptFactory registers the script case under the given name.
func scriptFactory(name string, s *script) control.CaseFactory {
	type cfg struct{ Subject string }
	return control.CaseFactory{
		Name:     name,
		Doc:      "test: plans one action per tick",
		Defaults: func() interface{} { return &cfg{Subject: "s1"} },
		Priority: 1,
		Build: func(env *control.Env, c interface{}) ([]control.BuiltLoop, error) {
			subject := c.(*cfg).Subject
			l := core.NewLoop(name,
				core.MonitorFunc(func(now time.Duration) (core.Observation, error) {
					return core.Observation{Time: now}, nil
				}),
				core.AnalyzerFunc(func(now time.Duration, obs core.Observation) (core.Symptoms, error) {
					return core.Symptoms{Time: now, Findings: []core.Finding{{Kind: "f", Subject: subject, Confidence: 1}}}, nil
				}),
				core.PlannerFunc(func(now time.Duration, sym core.Symptoms) (core.Plan, error) {
					return core.Plan{Time: now, Actions: []core.Action{{Kind: "act", Subject: subject, Amount: 1, Confidence: 1}}}, nil
				}),
				core.ExecutorFunc(func(now time.Duration, a core.Action) (core.ActionResult, error) {
					s.executed = append(s.executed, a)
					return core.ActionResult{Action: a, Honored: true, Granted: a.Amount}, nil
				}),
			)
			return []control.BuiltLoop{{Loop: l}}, nil
		},
	}
}

// scriptService wires a service around one script case on an in-process bus.
func scriptService(t testing.TB) (*control.Service, *bus.Bus, *script) {
	t.Helper()
	s := &script{}
	reg := control.NewRegistry()
	reg.MustRegister(scriptFactory("script", s))
	engine := sim.NewEngine(1)
	b := bus.New()
	env := &control.Env{Clock: sim.VirtualClock{Engine: engine}, Bus: b}
	svc := control.NewService(reg, env, fleet.New(1), time.Minute).Attach(b, "test")
	t.Cleanup(svc.Close)
	return svc, b, s
}

// call performs one control.v1 request over the bus.
func call(t testing.TB, b *bus.Bus, req control.Request) control.Reply {
	t.Helper()
	env, err := bus.Call(b,
		bus.Envelope{Topic: control.TopicRequest, Payload: req},
		control.TopicReply,
		func(e bus.Envelope) bool {
			var r control.Reply
			return bus.DecodePayload(e, &r) == nil && r.ID == req.ID
		}, time.Second)
	if err != nil {
		t.Fatalf("call %s: %v", req.Op, err)
	}
	var r control.Reply
	if err := bus.DecodePayload(env, &r); err != nil {
		t.Fatalf("call %s: %v", req.Op, err)
	}
	return r
}

func TestServiceLifecycleOpsOverBus(t *testing.T) {
	svc, b, s := scriptService(t)

	r := call(t, b, control.Request{ID: "1", Op: control.OpSpawn, Spec: &control.LoopSpec{Case: "script"}})
	if !r.OK || r.Loop == nil || r.Loop.Name != "script" || r.Loop.State != "created" {
		t.Fatalf("spawn reply = %+v", r)
	}
	svc.Tick(1 * time.Minute)
	svc.Tick(2 * time.Minute)
	if len(s.executed) != 2 {
		t.Fatalf("executed %d, want 2", len(s.executed))
	}

	if r = call(t, b, control.Request{ID: "2", Op: control.OpList}); !r.OK || len(r.Loops) != 1 || r.Loops[0].State != "running" {
		t.Fatalf("list reply = %+v", r)
	}
	if r.Loops[0].Metrics.Executed != 2 {
		t.Fatalf("metrics over the wire = %+v", r.Loops[0].Metrics)
	}

	if r = call(t, b, control.Request{ID: "3", Op: control.OpPause, Loop: "script"}); !r.OK || r.Loop.State != "paused" {
		t.Fatalf("pause reply = %+v", r)
	}
	svc.Tick(3 * time.Minute)
	if len(s.executed) != 2 {
		t.Fatal("paused loop executed")
	}
	if r = call(t, b, control.Request{ID: "4", Op: control.OpResume, Loop: "script"}); !r.OK || r.Loop.State != "running" {
		t.Fatalf("resume reply = %+v", r)
	}
	svc.Tick(4 * time.Minute)
	if len(s.executed) != 3 {
		t.Fatal("resumed loop did not execute")
	}

	// A dry-run guard turns the loop into an advisor.
	if r = call(t, b, control.Request{ID: "5", Op: control.OpSetGuard, Loop: "script", Guard: &control.GuardSpec{Kind: "dry-run"}}); !r.OK || r.Loop.Guards != 1 {
		t.Fatalf("set-guard reply = %+v", r)
	}
	svc.Tick(5 * time.Minute)
	if len(s.executed) != 3 {
		t.Fatal("dry-run guard did not veto")
	}

	// get reports the normalized spec.
	r = call(t, b, control.Request{ID: "6", Op: control.OpGet, Loop: "script"})
	if !r.OK || r.Spec == nil || r.Spec.Case != "script" || r.Spec.Mode != "autonomous" {
		t.Fatalf("get reply spec = %+v", r.Spec)
	}

	// drain: gone from fleet within a round, then unknown.
	if r = call(t, b, control.Request{ID: "7", Op: control.OpDrain, Loop: "script"}); !r.OK || r.Loop.State != "draining" {
		t.Fatalf("drain reply = %+v", r)
	}
	svc.Tick(6 * time.Minute)
	if r = call(t, b, control.Request{ID: "8", Op: control.OpGet, Loop: "script"}); r.OK {
		t.Fatalf("drained loop still managed: %+v", r)
	}
	if svc.Coordinator().Len() != 0 {
		t.Fatal("drained loop still in the fleet")
	}
}

func TestServiceCasesOp(t *testing.T) {
	_, b, _ := scriptService(t)
	r := call(t, b, control.Request{ID: "c", Op: control.OpCases})
	if !r.OK || len(r.Cases) != 1 || r.Cases[0].Case != "script" {
		t.Fatalf("cases reply = %+v", r)
	}
	if !strings.Contains(string(r.Cases[0].Defaults), "s1") {
		t.Fatalf("defaults schema = %s", r.Cases[0].Defaults)
	}
}

// approvalSetup spawns a human-in-the-loop script case and collects the
// pending and resolved envelopes from the bus.
func approvalSetup(t *testing.T) (*control.Service, *bus.Bus, *script, *[]control.PendingInfo, *[]control.Resolution) {
	svc, b, s := scriptService(t)
	var pendings []control.PendingInfo
	var resolutions []control.Resolution
	t.Cleanup(b.Subscribe(control.TopicPending, func(env bus.Envelope) {
		var p control.PendingInfo
		if bus.DecodePayload(env, &p) == nil {
			pendings = append(pendings, p)
		}
	}))
	t.Cleanup(b.Subscribe(control.TopicResolved, func(env bus.Envelope) {
		var r control.Resolution
		if bus.DecodePayload(env, &r) == nil {
			resolutions = append(resolutions, r)
		}
	}))
	r := call(t, b, control.Request{ID: "s", Op: control.OpSpawn, Spec: &control.LoopSpec{
		Case: "script", Mode: "human-in-the-loop",
	}})
	if !r.OK {
		t.Fatalf("spawn: %+v", r)
	}
	return svc, b, s, &pendings, &resolutions
}

func TestApprovalApproveExecutesNextRound(t *testing.T) {
	svc, b, s, pendings, resolutions := approvalSetup(t)
	svc.Tick(1 * time.Minute)
	if len(s.executed) != 0 {
		t.Fatal("deferred action executed without approval")
	}
	if len(*pendings) != 1 {
		t.Fatalf("pending announcements = %d, want 1", len(*pendings))
	}
	p := (*pendings)[0]
	if p.Loop != "script" || p.Action.Kind != "act" || p.Seq != 1 {
		t.Fatalf("pending = %+v", p)
	}
	if r := call(t, b, control.Request{ID: "p", Op: control.OpPending}); !r.OK || len(r.Pending) != 1 {
		t.Fatalf("pending op = %+v", r)
	}

	// Approve over the bus: acknowledged as queued, executed on the next
	// round with decision latency from the deferral epoch.
	env, err := bus.Call(b,
		bus.Envelope{Topic: control.TopicApprove, Payload: control.Verdict{ID: "v", Seq: p.Seq, Reason: "ok"}},
		control.TopicReply, nil, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var ack control.Reply
	if err := bus.DecodePayload(env, &ack); err != nil || !ack.OK || ack.Resolution.Outcome != control.OutcomeQueued {
		t.Fatalf("ack = %+v, %v", ack, err)
	}
	svc.Tick(5 * time.Minute)
	if len(s.executed) != 1 {
		t.Fatalf("executed %d after approval, want 1 (plus a fresh deferral)", len(s.executed))
	}
	if len(*resolutions) != 1 || (*resolutions)[0].Outcome != control.OutcomeApproved || !(*resolutions)[0].Executed {
		t.Fatalf("resolutions = %+v", *resolutions)
	}
	// The tick that applied the approval also planned (and deferred) a new
	// action.
	if len(*pendings) != 2 {
		t.Fatalf("pending announcements = %d, want 2", len(*pendings))
	}
}

func TestApprovalDenyAndUnknownSeq(t *testing.T) {
	svc, b, s, pendings, resolutions := approvalSetup(t)
	svc.Tick(1 * time.Minute)
	p := (*pendings)[0]
	env, err := bus.Call(b,
		bus.Envelope{Topic: control.TopicDeny, Payload: control.Verdict{ID: "v", Seq: p.Seq, Reason: "too risky"}},
		control.TopicReply, nil, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var ack control.Reply
	if err := bus.DecodePayload(env, &ack); err != nil || !ack.OK {
		t.Fatalf("deny ack = %+v, %v", ack, err)
	}
	svc.Tick(2 * time.Minute)
	if len(s.executed) != 0 {
		t.Fatal("denied action executed")
	}
	if len(*resolutions) != 1 || (*resolutions)[0].Outcome != control.OutcomeDenied {
		t.Fatalf("resolutions = %+v", *resolutions)
	}

	// Unknown sequence numbers are rejected in the ack.
	env, err = bus.Call(b,
		bus.Envelope{Topic: control.TopicApprove, Payload: control.Verdict{ID: "x", Seq: 999}},
		control.TopicReply, nil, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := bus.DecodePayload(env, &ack); err != nil || ack.OK {
		t.Fatalf("unknown-seq ack = %+v, %v", ack, err)
	}
}

func TestApprovalLoopCrossCheckRejectedInAck(t *testing.T) {
	svc, b, s, pendings, resolutions := approvalSetup(t)
	svc.Tick(1 * time.Minute)
	p := (*pendings)[0]
	env, err := bus.Call(b,
		bus.Envelope{Topic: control.TopicApprove, Payload: control.Verdict{ID: "v", Seq: p.Seq, Loop: "wrong-loop"}},
		control.TopicReply, nil, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var ack control.Reply
	if err := bus.DecodePayload(env, &ack); err != nil || ack.OK || !strings.Contains(ack.Error, "wrong-loop") {
		t.Fatalf("cross-check ack = %+v, %v (want immediate rejection, not a silent drop)", ack, err)
	}
	svc.Tick(2 * time.Minute)
	if len(s.executed) != 0 {
		t.Fatal("mismatched verdict executed the action")
	}
	for _, r := range *resolutions {
		if r.Seq == p.Seq {
			t.Fatalf("rejected verdict produced a resolution: %+v", r)
		}
	}
	// The action is still pending, approvable with the right loop name.
	if r := call(t, b, control.Request{ID: "q", Op: control.OpPending}); len(r.Pending) == 0 {
		t.Fatal("entry vanished after a rejected verdict")
	}
}

func TestApprovalStaleAfterPause(t *testing.T) {
	svc, b, s, pendings, resolutions := approvalSetup(t)
	svc.Tick(1 * time.Minute)
	p := (*pendings)[0]
	if r := call(t, b, control.Request{ID: "p", Op: control.OpPause, Loop: "script"}); !r.OK {
		t.Fatalf("pause: %+v", r)
	}
	// Even an approval cannot revive an action invalidated by the pause.
	if _, err := bus.Call(b,
		bus.Envelope{Topic: control.TopicApprove, Payload: control.Verdict{ID: "v", Seq: p.Seq}},
		control.TopicReply, nil, time.Second); err != nil {
		t.Fatal(err)
	}
	svc.Tick(2 * time.Minute)
	if len(s.executed) != 0 {
		t.Fatal("stale action executed")
	}
	if len(*resolutions) != 1 || (*resolutions)[0].Outcome != control.OutcomeStale {
		t.Fatalf("resolutions = %+v", *resolutions)
	}
	if r := call(t, b, control.Request{ID: "q", Op: control.OpPending}); len(r.Pending) != 0 {
		t.Fatalf("stale entry still pending: %+v", r.Pending)
	}
}

func TestApprovalContingencyTimeout(t *testing.T) {
	svc, b, s, pendings, resolutions := scriptServiceWithHuman(t, &control.HumanSpec{
		Availability: 0, MedianLatency: control.Duration(time.Minute),
		ContingencyAfter: control.Duration(10 * time.Minute),
	})
	svc.Tick(1 * time.Minute)
	if len(*pendings) != 1 || (*pendings)[0].ContingencyAt != control.Duration(11*time.Minute) {
		t.Fatalf("pending = %+v", *pendings)
	}
	svc.Tick(5 * time.Minute)
	if len(s.executed) != 0 {
		t.Fatal("contingency fired early")
	}
	svc.Tick(11 * time.Minute)
	if len(s.executed) != 1 {
		t.Fatal("contingency did not fire")
	}
	var seen bool
	for _, r := range *resolutions {
		if r.Outcome == control.OutcomeContingency && r.Executed {
			seen = true
		}
	}
	if !seen {
		t.Fatalf("resolutions = %+v, want a contingency execution", *resolutions)
	}
	_ = b
}

// TestHumanInTheLoopWaitsForOperator checks that a spawned loop's actions
// wait for an operator however the spec's human block describes the
// approver: with availability 1, a one-minute median latency and no
// contingency, the first action is still pending after 60 rounds, get
// reports the human block as spawned, and an approve executes the action.
func TestHumanInTheLoopWaitsForOperator(t *testing.T) {
	spec, err := control.ParseSpec([]byte(`{"case":"script","mode":"human-in-the-loop",
		"human":{"availability":1,"median_latency":"1m","latency_cv":0.5}}`))
	if err != nil {
		t.Fatal(err)
	}
	want := control.HumanSpec{Availability: 1, MedianLatency: control.Duration(time.Minute), LatencyCV: 0.5}
	if spec.Human == nil || *spec.Human != want {
		t.Fatalf("parsed human = %+v, want %+v", spec.Human, want)
	}
	svc, b, s, pendings, resolutions := scriptServiceWithHuman(t, spec.Human)
	for round := 1; round <= 60; round++ {
		svc.Tick(time.Duration(round) * time.Minute)
	}
	if len(s.executed) != 0 || len(*resolutions) != 0 {
		t.Fatalf("executed %d, resolutions %+v: nothing may settle without an operator", len(s.executed), *resolutions)
	}
	r := call(t, b, control.Request{ID: "p", Op: control.OpPending})
	if !r.OK || len(r.Pending) != 60 || r.Pending[0].Seq != 1 || r.Pending[0].ContingencyAt != 0 {
		t.Fatalf("pending op = %+v", r)
	}
	if len(*pendings) != 60 {
		t.Fatalf("pending announcements = %d, want 60", len(*pendings))
	}

	r = call(t, b, control.Request{ID: "g", Op: control.OpGet, Loop: "script"})
	if !r.OK || r.Spec == nil || r.Spec.Human == nil || *r.Spec.Human != want {
		t.Fatalf("get = %+v, want human %+v", r, want)
	}

	if _, err := bus.Call(b,
		bus.Envelope{Topic: control.TopicApprove, Payload: control.Verdict{ID: "v", Seq: 1, Loop: "script"}},
		control.TopicReply, nil, time.Second); err != nil {
		t.Fatal(err)
	}
	svc.Tick(61 * time.Minute)
	if len(s.executed) != 1 {
		t.Fatalf("executed %d after approval, want 1", len(s.executed))
	}
	if len(*resolutions) != 1 || (*resolutions)[0].Seq != 1 || (*resolutions)[0].Outcome != control.OutcomeApproved || !(*resolutions)[0].Executed {
		t.Fatalf("resolutions = %+v", *resolutions)
	}
}

// TestRoundsReadableWhileTicking reads the round count from another
// goroutine while a service ticks, as a worker's heartbeat does. The
// service has no bus, whose atomic counters would otherwise order the two
// goroutines and hide a racy read from the race detector.
func TestRoundsReadableWhileTicking(t *testing.T) {
	reg := control.NewRegistry()
	reg.MustRegister(scriptFactory("script", &script{}))
	svc := control.NewService(reg, &control.Env{}, fleet.New(1), time.Minute)
	if _, err := svc.Spawn(control.LoopSpec{Case: "script"}); err != nil {
		t.Fatal(err)
	}
	const rounds = 200
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= rounds; i++ {
			svc.Tick(time.Duration(i) * time.Minute)
		}
	}()
	last := 0
	for ticking := true; ticking; {
		select {
		case <-done:
			ticking = false
		default:
		}
		n := svc.Rounds()
		if n < last || n > rounds {
			t.Fatalf("Rounds went %d -> %d", last, n)
		}
		last = n
	}
	if got := svc.Rounds(); got != rounds || got != svc.Coordinator().Metrics().Rounds {
		t.Fatalf("Rounds = %d, coordinator %d, want %d", got, svc.Coordinator().Metrics().Rounds, rounds)
	}
}

// scriptServiceWithHuman is approvalSetup with an explicit HumanSpec.
func scriptServiceWithHuman(t *testing.T, h *control.HumanSpec) (*control.Service, *bus.Bus, *script, *[]control.PendingInfo, *[]control.Resolution) {
	svc, b, s := scriptService(t)
	var pendings []control.PendingInfo
	var resolutions []control.Resolution
	t.Cleanup(b.Subscribe(control.TopicPending, func(env bus.Envelope) {
		var p control.PendingInfo
		if bus.DecodePayload(env, &p) == nil {
			pendings = append(pendings, p)
		}
	}))
	t.Cleanup(b.Subscribe(control.TopicResolved, func(env bus.Envelope) {
		var r control.Resolution
		if bus.DecodePayload(env, &r) == nil {
			resolutions = append(resolutions, r)
		}
	}))
	r := call(t, b, control.Request{ID: "s", Op: control.OpSpawn, Spec: &control.LoopSpec{
		Case: "script", Mode: "human-in-the-loop", Human: h,
	}})
	if !r.OK {
		t.Fatalf("spawn: %+v", r)
	}
	return svc, b, s, &pendings, &resolutions
}

// TestControlSessionOverTCP is the acceptance round trip: a raw TCP client
// (what `nc` sees against cmd/modad) lists the fleet, pauses and resumes a
// loop, changes its mode, and approves a pending action — all as
// newline-delimited control.v1 envelopes across the bus bridge.
func TestControlSessionOverTCP(t *testing.T) {
	svc, b, s := scriptService(t)
	if _, err := svc.Spawn(control.LoopSpec{Case: "script"}); err != nil {
		t.Fatal(err)
	}
	srv, err := bus.NewServer("127.0.0.1:0", "control.*", b)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)

	lines := make(chan bus.Envelope, 64)
	go func() {
		for sc.Scan() {
			if env, err := bus.Decode(sc.Bytes()); err == nil {
				lines <- env
			}
		}
		close(lines)
	}()
	wait := func(topic string, match func(bus.Envelope) bool) bus.Envelope {
		t.Helper()
		deadline := time.After(5 * time.Second)
		for {
			select {
			case env, ok := <-lines:
				if !ok {
					t.Fatal("connection closed")
				}
				if env.Topic == topic && (match == nil || match(env)) {
					return env
				}
			case <-deadline:
				t.Fatalf("no %s envelope within 5s", topic)
			}
		}
	}
	send := func(topic string, payload interface{}) {
		t.Helper()
		data, err := bus.Encode(bus.Envelope{Topic: topic, Payload: payload})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(data); err != nil {
			t.Fatal(err)
		}
	}
	reply := func(id string) control.Reply {
		t.Helper()
		env := wait(control.TopicReply, func(e bus.Envelope) bool {
			var r control.Reply
			return bus.DecodePayload(e, &r) == nil && r.ID == id
		})
		var r control.Reply
		if err := bus.DecodePayload(env, &r); err != nil {
			t.Fatal(err)
		}
		return r
	}

	svc.Tick(1 * time.Minute)

	send(control.TopicRequest, control.Request{ID: "t1", Op: control.OpList})
	if r := reply("t1"); !r.OK || len(r.Loops) != 1 || r.Loops[0].Metrics.Executed != 1 {
		t.Fatalf("list over TCP = %+v", r)
	}

	send(control.TopicRequest, control.Request{ID: "t2", Op: control.OpPause, Loop: "script"})
	if r := reply("t2"); !r.OK || r.Loop.State != "paused" {
		t.Fatalf("pause over TCP = %+v", r)
	}
	svc.Tick(2 * time.Minute)
	if len(s.executed) != 1 {
		t.Fatal("paused loop executed")
	}

	send(control.TopicRequest, control.Request{ID: "t3", Op: control.OpResume, Loop: "script"})
	if r := reply("t3"); !r.OK || r.Loop.State != "running" {
		t.Fatalf("resume over TCP = %+v", r)
	}

	send(control.TopicRequest, control.Request{ID: "t4", Op: control.OpSetMode, Loop: "script", Mode: "human-in-the-loop"})
	if r := reply("t4"); !r.OK || r.Loop.Mode != "human-in-the-loop" {
		t.Fatalf("set-mode over TCP = %+v", r)
	}

	svc.Tick(3 * time.Minute) // defers and announces the pending action
	penv := wait(control.TopicPending, nil)
	var p control.PendingInfo
	if err := bus.DecodePayload(penv, &p); err != nil || p.Action.Kind != "act" {
		t.Fatalf("pending over TCP = %+v, %v", p, err)
	}

	send(control.TopicApprove, control.Verdict{ID: "t5", Seq: p.Seq, Reason: "go"})
	if r := reply("t5"); !r.OK || r.Resolution.Outcome != control.OutcomeQueued {
		t.Fatalf("approve ack over TCP = %+v", r)
	}
	svc.Tick(4 * time.Minute)
	renv := wait(control.TopicResolved, nil)
	var res control.Resolution
	if err := bus.DecodePayload(renv, &res); err != nil || res.Outcome != control.OutcomeApproved || !res.Executed {
		t.Fatalf("resolution over TCP = %+v, %v", res, err)
	}
	if len(s.executed) != 2 {
		t.Fatalf("executed = %d, want the approved action applied", len(s.executed))
	}
}
