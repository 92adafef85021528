// Package cluster distributes the control plane over the wire: one
// coordinator process places LoopSpecs across N worker processes, each
// running its own simulation slice, telemetry store, and fleet — the
// facility-wide deployment shape of site-scale ODA stacks (DCDB Wintermute,
// LRZ's production ODA), where collection and analysis run on many daemons
// and a central service decides placement.
//
// The pieces:
//
//   - Ring: a consistent-hash placement ring assigning loop groups (and,
//     through them, the telemetry series their subjects emit) to workers,
//     so membership changes move only the affected keys.
//   - Directory: the member table — worker registration, periodic
//     heartbeats, and lease expiry.
//   - Coordinator: the placement brain. It owns the ring, the directory,
//     the spec table, cross-node arbitration, and the scatter-gather query
//     layer, and journals every placement event to an optional WAL ledger
//     so a restart rebuilds its table.
//   - Agent: the worker side. It dials the coordinator over the existing
//     bus/TCP bridge, registers, heartbeats, spawns assigned specs into its
//     local control.Service, and answers fanned-out queries.
//
// Everything crosses the wire as ordinary bus envelopes under the
// control.v1 version prefix ("control.v1.cluster.*"); the vocabulary is
// additive-only, like the rest of control.v1. Topics are split into two
// disjoint direction prefixes — "control.v1.cluster.w.*" worker→coordinator
// and "control.v1.cluster.c.*" coordinator→worker — so each side can bridge
// its own direction without echo loops, and every payload names its worker
// so broadcast fan-out still addresses one member.
package cluster

import (
	"encoding/json"
	"fmt"

	"autoloop/internal/control"
	"autoloop/internal/fleet"
	"autoloop/internal/tsdb"
)

// Cluster wire topics. Worker→coordinator traffic lives under the "w."
// prefix, coordinator→worker traffic under "c."; the two patterns are the
// export patterns each side's bridge uses (see WorkerExportPattern and
// CoordExportPattern).
const (
	// TopicHello announces a worker joining (Hello payload).
	TopicHello = "control.v1.cluster.w.hello"
	// TopicHeartbeat renews a worker's lease (Heartbeat payload).
	TopicHeartbeat = "control.v1.cluster.w.hb"
	// TopicAck answers an assignment or revocation (Ack payload).
	TopicAck = "control.v1.cluster.w.ack"
	// TopicDigest submits one round's surviving action digests for
	// cross-node arbitration (Digest payload).
	TopicDigest = "control.v1.cluster.w.digest"
	// TopicReply answers a fanned-out request (FanReply payload).
	TopicReply = "control.v1.cluster.w.reply"

	// TopicAssign places one LoopSpec on a worker (Assign payload).
	TopicAssign = "control.v1.cluster.c.assign"
	// TopicRevoke removes a placed group from a worker (Revoke payload).
	TopicRevoke = "control.v1.cluster.c.revoke"
	// TopicVerdict answers a digest with the deny mask (Verdict payload).
	TopicVerdict = "control.v1.cluster.c.verdict"
	// TopicFanout carries one scattered request to a worker (Fanout
	// payload).
	TopicFanout = "control.v1.cluster.c.fanout"
)

// WorkerExportPattern is the bus pattern a worker's bridge client exports to
// its coordinator; CoordExportPattern is the pattern the coordinator's
// cluster-facing bus server exports to its workers. The two are disjoint by
// construction, so an envelope can never echo back through the bridge.
const (
	WorkerExportPattern = "control.v1.cluster.w.*"
	CoordExportPattern  = "control.v1.cluster.c.*"
)

// Hello announces a worker joining (or rejoining) the cluster.
type Hello struct {
	Worker string `json:"worker"`
	// Groups lists the loop groups the worker already holds — empty on a
	// fresh start, populated when a worker reconnects after a coordinator
	// restart so placements can be reconciled instead of re-spawned.
	Groups []string `json:"groups,omitempty"`
}

// Heartbeat renews a worker's lease and reports its load.
type Heartbeat struct {
	Worker  string `json:"worker"`
	Seq     uint64 `json:"seq"`
	Groups  int    `json:"groups"`
	Series  int    `json:"series,omitempty"`
	Samples uint64 `json:"samples,omitempty"`
	Rounds  int    `json:"rounds,omitempty"`
}

// Assign places one spec on one worker. ID correlates the worker's Ack.
type Assign struct {
	Worker string           `json:"worker"`
	ID     string           `json:"id"`
	Group  string           `json:"group"`
	Spec   control.LoopSpec `json:"spec"`
}

// Revoke removes one placed group from a worker (rebalance or operator
// remove). ID correlates the worker's Ack.
type Revoke struct {
	Worker string `json:"worker"`
	ID     string `json:"id"`
	Group  string `json:"group"`
}

// Ack answers one Assign or Revoke.
type Ack struct {
	Worker string `json:"worker"`
	ID     string `json:"id"`
	Group  string `json:"group"`
	OK     bool   `json:"ok"`
	Error  string `json:"error,omitempty"`
	// Loops lists the loop names the assignment spawned (a multi-loop case
	// reports every member), so the coordinator can route loop-addressed
	// ops without guessing naming conventions.
	Loops []string `json:"loops,omitempty"`
}

// Digest submits the actions of one worker fleet round that survived local
// arbitration. Seq correlates the coordinator's Verdict; the coordinator
// answers every digest, even when nothing is denied.
type Digest struct {
	Worker  string               `json:"worker"`
	Seq     uint64               `json:"seq"`
	Actions []fleet.ActionDigest `json:"actions"`
	// Backfill marks a digest re-delivered from a worker's degraded-mode
	// buffer after the link healed. The actions it describes already ran
	// under the worker's local fail-open arbitration; the coordinator
	// records them for observability but owes no verdict.
	Backfill bool `json:"backfill,omitempty"`
}

// Verdict answers one Digest: Deny[i] suppresses Actions[i] on the worker,
// exactly like a local arbitration loss.
type Verdict struct {
	Worker string `json:"worker"`
	Seq    uint64 `json:"seq"`
	Deny   []bool `json:"deny,omitempty"`
	// Reasons annotates denied indices ("" for allowed ones).
	Reasons []string `json:"reasons,omitempty"`
}

// Fanout carries one scattered request to one worker. Exactly one of the
// request fields is set: Control for control.v1 ops, Query for tsdb
// queries, Approve/Deny verdicts travel as Control ops via Verdicts.
type Fanout struct {
	Worker string `json:"worker"`
	ID     string `json:"id"`
	// Control is a control.v1 request executed against the worker's local
	// control.Service.
	Control *control.Request `json:"control,omitempty"`
	// Query is a tsdb query answered from the worker's local store.
	Query *tsdb.QueryRequest `json:"query,omitempty"`
	// ApproveVerdict / DenyVerdict settle a pending approval on the worker
	// owning it (per-worker sequence numbers; the Loop field cross-checks).
	ApproveVerdict *control.Verdict `json:"approve,omitempty"`
	DenyVerdict    *control.Verdict `json:"deny,omitempty"`
}

// FanReply answers one Fanout.
type FanReply struct {
	Worker  string              `json:"worker"`
	ID      string              `json:"id"`
	Control *control.Reply      `json:"control,omitempty"`
	Query   *tsdb.QueryResponse `json:"query,omitempty"`
	Err     string              `json:"err,omitempty"`
}

// mustJSON marshals v for ledger records; cluster wire types always marshal.
func mustJSON(v interface{}) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("cluster: marshal %T: %v", v, err))
	}
	return data
}
