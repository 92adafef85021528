package control

import (
	"encoding/json"
	"time"

	"autoloop/internal/core"
)

// WireVersion is the control-plane wire version. All topics and payload
// shapes under it are additive-only; incompatible changes go to a new
// version prefix.
const WireVersion = "v1"

// control.v1 topics. Requests and verdicts travel client → service;
// replies, pending announcements, and resolutions travel service → client.
// All of them cross the existing bus/TCP bridge as ordinary envelopes.
const (
	// TopicRequest carries Request payloads; each is answered on
	// TopicReply with the same correlation id.
	TopicRequest = "control.v1.req"
	// TopicReply carries Reply payloads.
	TopicReply = "control.v1.resp"
	// TopicPending announces each new pending human-in-the-loop action
	// (PendingInfo payload) awaiting an operator verdict.
	TopicPending = "control.v1.pending"
	// TopicApprove and TopicDeny carry operator Verdict payloads.
	TopicApprove = "control.v1.approve"
	TopicDeny    = "control.v1.deny"
	// TopicResolved reports the final fate of each pending action
	// (Resolution payload): approved, denied, contingency, dropped, stale.
	TopicResolved = "control.v1.resolved"
	// TopicApplied records each state-changing op the service applied
	// (Applied payload), whichever surface it came through, for a journal
	// to fold back on recovery (Service.ApplyWAL).
	TopicApplied = "control.v1.applied"
)

// Request ops.
const (
	OpList     = "list"      // enumerate managed loops
	OpGet      = "get"       // one loop: spec + status + metrics
	OpCases    = "cases"     // enumerate spawnable case factories
	OpSpawn    = "spawn"     // instantiate a LoopSpec into the fleet
	OpPause    = "pause"     // lifecycle: running -> paused
	OpResume   = "resume"    // lifecycle: paused -> running
	OpDrain    = "drain"     // lifecycle: graceful stop at the round barrier
	OpRemove   = "remove"    // stop and unregister a loop
	OpSetMode  = "set-mode"  // change the operating mode at runtime
	OpSetGuard = "set-guard" // append a guardrail (confidence gate, rate limit, ...)
	OpPending  = "pending"   // list actions awaiting approval
	// OpMembers enumerates a cluster coordinator's worker directory. A
	// single-process control.Service answers it with an empty member list.
	OpMembers = "members"
)

// Request is the payload of TopicRequest envelopes. ID correlates the
// reply; Loop names the target for lifecycle ops; Spec, Mode, and Guard
// carry op-specific arguments.
type Request struct {
	ID    string     `json:"id,omitempty"`
	Op    string     `json:"op"`
	Loop  string     `json:"loop,omitempty"`
	Spec  *LoopSpec  `json:"spec,omitempty"`
	Mode  string     `json:"mode,omitempty"`
	Guard *GuardSpec `json:"guard,omitempty"`
}

// Applied is the payload of TopicApplied: the request of a spawn, remove,
// pause, resume, drain, set-mode or set-guard, or an approve or deny (Op)
// and its Verdict.
type Applied struct {
	Request
	Verdict *Verdict `json:"verdict,omitempty"`
}

// GuardSpec declares one guardrail appended by the set-guard op.
type GuardSpec struct {
	// Kind selects the guardrail: "confidence", "rate-limit",
	// "subject-cap", or "dry-run".
	Kind string `json:"kind"`
	// Min is the confidence floor (kind "confidence").
	Min float64 `json:"min,omitempty"`
	// Max is the action budget (kinds "rate-limit" and "subject-cap").
	Max int `json:"max,omitempty"`
	// Window is the sliding rate-limit window (kind "rate-limit").
	Window Duration `json:"window,omitempty"`
	// Action filters subject-cap to one action kind; empty caps all.
	Action string `json:"action,omitempty"`
}

// WireAction is the lowercase wire form of a planned action.
type WireAction struct {
	Kind        string  `json:"kind"`
	Subject     string  `json:"subject"`
	Amount      float64 `json:"amount"`
	Confidence  float64 `json:"confidence"`
	Explanation string  `json:"explanation,omitempty"`
}

// wireAction converts a core action.
func wireAction(a core.Action) WireAction {
	return WireAction{
		Kind: a.Kind, Subject: a.Subject, Amount: a.Amount,
		Confidence: a.Confidence, Explanation: a.Explanation.String(),
	}
}

// WireMetrics is the lowercase wire form of a loop's counters.
type WireMetrics struct {
	Ticks      int `json:"ticks"`
	Findings   int `json:"findings"`
	Planned    int `json:"planned"`
	Executed   int `json:"executed"`
	Honored    int `json:"honored"`
	Vetoed     int `json:"vetoed"`
	Arbitrated int `json:"arbitrated"`
	Deferred   int `json:"deferred"`
	Dropped    int `json:"dropped"`
	Denied     int `json:"denied"`
	Stale      int `json:"stale"`
	Errors     int `json:"errors"`
	// MeanDecisionLatency is DecisionLatency / Executed, as a duration
	// string.
	MeanDecisionLatency Duration `json:"mean_decision_latency,omitempty"`
}

// wireMetrics converts a core metrics snapshot.
func wireMetrics(m core.Metrics) WireMetrics {
	var mean time.Duration
	if m.ExecutedActions > 0 {
		mean = m.DecisionLatency / time.Duration(m.ExecutedActions)
	}
	return WireMetrics{
		Ticks: m.Ticks, Findings: m.Findings, Planned: m.PlannedActions,
		Executed: m.ExecutedActions, Honored: m.HonoredActions,
		Vetoed: m.VetoedActions, Arbitrated: m.ArbitratedActions,
		Deferred: m.DeferredActions, Dropped: m.DroppedActions,
		Denied: m.DeniedActions, Stale: m.StaleDeferred, Errors: m.Errors,
		MeanDecisionLatency: Duration(mean),
	}
}

// MemberInfo is one worker process in a cluster coordinator's directory —
// the payload of the members op (additive within control.v1).
type MemberInfo struct {
	ID    string `json:"id"`
	State string `json:"state"` // "alive" or "expired"
	// Loops is how many loop groups are currently placed on the member.
	Loops int `json:"loops"`
	// Series, Samples, and Rounds mirror the member's last heartbeat stats.
	Series  int    `json:"series,omitempty"`
	Samples uint64 `json:"samples,omitempty"`
	Rounds  int    `json:"rounds,omitempty"`
	// LastBeatMS is how many wall milliseconds ago the last heartbeat (or
	// hello) arrived.
	LastBeatMS int64 `json:"last_beat_ms"`
}

// PlacementInfo reports where a cluster coordinator placed one spawned spec
// (additive within control.v1): the group name, the worker that owns it, and
// the placement state ("pending" until a worker is available, "assigned"
// while the assign is in flight, "placed" after the worker's ack).
type PlacementInfo struct {
	Group  string `json:"group"`
	Case   string `json:"case"`
	Worker string `json:"worker,omitempty"`
	State  string `json:"state"`
}

// LoopStatus is one managed loop's reported state.
type LoopStatus struct {
	Name string `json:"name"`
	Case string `json:"case"`
	// Group is the spec's primary loop name; multi-loop cases (ioqos)
	// report each loop under the same group.
	Group string `json:"group,omitempty"`
	// Worker names the cluster worker serving the loop; empty in a
	// single-process deployment.
	Worker     string      `json:"worker,omitempty"`
	State      string      `json:"state"`
	Mode       string      `json:"mode"`
	Priority   int         `json:"priority"`
	Period     Duration    `json:"period,omitempty"`
	Generation uint64      `json:"generation"`
	Guards     int         `json:"guards"`
	Pending    int         `json:"pending,omitempty"`
	Metrics    WireMetrics `json:"metrics"`
}

// CaseInfo describes one spawnable factory (the cases op).
type CaseInfo struct {
	Case     string          `json:"case"`
	Doc      string          `json:"doc,omitempty"`
	Requires []string        `json:"requires,omitempty"`
	Defaults json.RawMessage `json:"defaults,omitempty"`
	Priority int             `json:"priority"`
	Period   Duration        `json:"period,omitempty"`
}

// Reply is the payload of TopicReply envelopes. Exactly one of the result
// fields is set, matching the op; Error carries the failure text when OK is
// false.
type Reply struct {
	ID    string `json:"id,omitempty"`
	Op    string `json:"op"`
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	// Partial marks a cluster-merged reply that is missing at least one
	// worker's contribution: OK with the reachable workers' results, Error
	// naming the gaps. Single-process replies never set it.
	Partial bool          `json:"partial,omitempty"`
	Loops   []LoopStatus  `json:"loops,omitempty"`
	Loop    *LoopStatus   `json:"loop,omitempty"`
	Spec    *LoopSpec     `json:"spec,omitempty"`
	Cases   []CaseInfo    `json:"cases,omitempty"`
	Pending []PendingInfo `json:"pending,omitempty"`
	// Resolution acknowledges a verdict (outcome "queued"): the final
	// fate is published on TopicResolved when the next round applies it.
	Resolution *Resolution `json:"resolution,omitempty"`
	// Members answers the members op (cluster coordinators only).
	Members []MemberInfo `json:"members,omitempty"`
	// Placement reports where a cluster coordinator placed a spawned spec.
	Placement *PlacementInfo `json:"placement,omitempty"`
}

// PendingInfo is one queued human-in-the-loop action awaiting a verdict.
type PendingInfo struct {
	Seq  uint64 `json:"seq"`
	Loop string `json:"loop"`
	// Worker names the cluster worker holding the pending action; empty in
	// a single-process deployment. Cluster verdicts should carry the loop
	// name as a cross-check, since pending sequence numbers are per-worker.
	Worker string `json:"worker,omitempty"`
	// Decided is the virtual time the loop planned the action (the
	// decision-latency epoch).
	Decided Duration   `json:"decided"`
	Action  WireAction `json:"action"`
	// ContingencyAt, when nonzero, is the virtual time at which the
	// action executes anyway under the loop's contingency policy.
	ContingencyAt Duration `json:"contingency_at,omitempty"`
}

// Verdict is the payload of TopicApprove / TopicDeny envelopes. Verdicts
// are applied at the next control round; the final fate is published on
// TopicResolved.
type Verdict struct {
	ID     string `json:"id,omitempty"`
	Seq    uint64 `json:"seq"`
	Loop   string `json:"loop,omitempty"` // optional cross-check
	Reason string `json:"reason,omitempty"`
}

// Resolution outcomes.
const (
	OutcomeApproved    = "approved"    // operator approved; action executed
	OutcomeDenied      = "denied"      // operator denied; action dropped
	OutcomeStale       = "stale"       // lifecycle moved on; action invalidated
	OutcomeContingency = "contingency" // approval window elapsed; contingency executed
	OutcomeDropped     = "dropped"     // human absent, no contingency
	OutcomeQueued      = "queued"      // verdict accepted, applies at the next round
)

// Resolution is the payload of TopicResolved envelopes and the reply body
// for verdicts.
type Resolution struct {
	Seq      uint64 `json:"seq"`
	Loop     string `json:"loop"`
	Outcome  string `json:"outcome"`
	Executed bool   `json:"executed"`
	Reason   string `json:"reason,omitempty"`
}
