package cluster

import (
	"strconv"

	"autoloop/internal/bus"
	"autoloop/internal/control"
	"autoloop/internal/tsdb"
)

// This file is the coordinator's operator-facing surface: it serves the same
// control.v1 request/verdict topics and tsdb query topic a single-process
// modad serves, but answers them by consulting its own placement state or by
// scatter-gathering across workers. Operator tooling (nc, the HTTP gateway)
// cannot tell a coordinator from a single process — same ops, same reply
// shapes, plus the additive Members/Placement fields.

// handleControlRequest answers one control.v1 request envelope. It runs on
// the publishing connection's goroutine and may block for up to the scatter
// timeout; worker replies arrive on their own connections, so the gather
// cannot deadlock.
func (c *Coordinator) handleControlRequest(env bus.Envelope) {
	var req control.Request
	if err := bus.DecodePayload(env, &req); err != nil {
		c.publishReply(env, control.Reply{Op: "?", OK: false, Error: err.Error()})
		return
	}
	c.publishReply(env, c.Handle(req))
}

func (c *Coordinator) publishReply(env bus.Envelope, r control.Reply) {
	c.b.Publish(bus.Envelope{
		Topic: control.TopicReply, Time: env.Time, Source: c.opts.Source, Payload: r,
	})
}

// Handle executes one control request against the cluster and returns the
// merged reply. Exported so the HTTP gateway can serve the same surface.
func (c *Coordinator) Handle(req control.Request) control.Reply {
	r := control.Reply{ID: req.ID, Op: req.Op}
	switch req.Op {
	case control.OpMembers:
		r.Members = c.Members()
		r.OK = true
		return r

	case control.OpCases:
		// The coordinator's registry copy is authoritative: every worker
		// runs the same binary, hence the same case factories.
		if c.opts.Registry == nil {
			r.Error = "coordinator has no case registry"
			return r
		}
		r.Cases = c.opts.Registry.CaseInfos()
		r.OK = true
		return r

	case control.OpSpawn:
		if req.Spec == nil {
			r.Error = "spawn without spec"
			return r
		}
		info, err := c.AddSpec(*req.Spec)
		if err != nil {
			r.Error = err.Error()
			return r
		}
		// Placement is asynchronous: the reply reports where the spec went
		// (or that it is pending a worker), not a live loop status.
		r.Placement = &info
		r.OK = true
		return r

	case control.OpList, control.OpPending:
		workers := c.dir.Alive()
		if len(workers) == 0 {
			r.OK = true // an empty cluster has no loops and nothing pending
			return r
		}
		replies := c.scatter.Fan(workers, func(w, id string) Fanout {
			fr := req
			fr.ID = id
			return Fanout{Worker: w, ID: id, Control: &fr}
		})
		merged := mergeControlLists(req.Op, req.ID, replies)
		merged.ID = req.ID
		if merged.Partial {
			c.scatter.partials.Add(1)
		}
		return merged

	default:
		// Loop-addressed ops route to the owner; unknown loops and unknown
		// ops fail the same way a single-process service fails them.
		return c.routeLoopOp(req)
	}
}

// routeLoopOp forwards a loop-addressed op (get, pause, resume, drain,
// remove, set-mode, set-guard) to the worker owning the loop.
func (c *Coordinator) routeLoopOp(req control.Request) control.Reply {
	r := control.Reply{ID: req.ID, Op: req.Op}
	group, worker := c.ownerOf(req.Loop)
	if worker == "" || !c.dir.IsAlive(worker) {
		if group == "" {
			r.Error = "unknown loop " + strconv.Quote(req.Loop)
		} else {
			r.Error = "loop " + strconv.Quote(req.Loop) + " is not placed on an alive worker"
		}
		return r
	}
	replies := c.scatter.Fan([]string{worker}, func(w, id string) Fanout {
		fr := req
		fr.ID = id
		return Fanout{Worker: w, ID: id, Control: &fr}
	})
	if len(replies) == 0 || replies[0].Control == nil {
		err := "no reply from worker " + worker
		if len(replies) > 0 && replies[0].Err != "" {
			err = worker + ": " + replies[0].Err
		}
		r.Error = err
		return r
	}
	out := *replies[0].Control
	out.ID = req.ID
	stampWorker(&out, worker)
	if out.OK && req.Op == control.OpRemove {
		// The worker already tore the loops down; drop the spec so the next
		// rebalance does not resurrect it (no revoke needed).
		c.dropGroup(group)
	}
	return out
}

// stampWorker fills the Worker field on loop statuses and pending entries of
// a single-worker reply.
func stampWorker(r *control.Reply, worker string) {
	for i := range r.Loops {
		r.Loops[i].Worker = worker
	}
	if r.Loop != nil {
		r.Loop.Worker = worker
	}
	for i := range r.Pending {
		r.Pending[i].Worker = worker
	}
}

// ownerOf resolves a loop name (or group name) to its placement.
func (c *Coordinator) ownerOf(loop string) (group, worker string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	group = c.byLoop[loop]
	if group == "" {
		if _, ok := c.specs[loop]; ok {
			group = loop
		}
	}
	if p := c.specs[group]; p != nil {
		return group, p.worker
	}
	return group, ""
}

// dropGroup removes a group's spec and loop-index entries after its worker
// confirmed removal.
func (c *Coordinator) dropGroup(group string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.specs, group)
	for loop, g := range c.byLoop {
		if g == group {
			delete(c.byLoop, loop)
		}
	}
	c.ledger(ledgerEvent{Op: "unspec", Group: group})
}

// handleVerdict forwards an operator approve/deny to the worker holding the
// pending action. Pending sequence numbers are per-worker, so the verdict
// fans to every alive worker with the loop name as a cross-check; only the
// owner answers OK, and its resolution wins the merged reply.
func (c *Coordinator) handleVerdict(env bus.Envelope, approve bool) {
	var v control.Verdict
	if err := bus.DecodePayload(env, &v); err != nil {
		return
	}
	c.publishReply(env, c.Verdict(approve, v))
}

// Verdict settles one pending approval across the cluster and returns the
// owning worker's reply. Exported so the HTTP gateway can serve approvals
// against a coordinator the same way it serves them against a local
// control.Service.
func (c *Coordinator) Verdict(approve bool, v control.Verdict) control.Reply {
	workers := c.dir.Alive()
	if v.Loop != "" {
		// With the cross-check present the owner is known: route narrowly.
		if _, worker := c.ownerOf(v.Loop); worker != "" && c.dir.IsAlive(worker) {
			workers = []string{worker}
		}
	}
	op := control.OpApprove
	if !approve {
		op = control.OpDeny
	}
	if len(workers) == 0 {
		return control.Reply{ID: v.ID, Op: op, Error: "no alive workers"}
	}
	replies := c.scatter.Fan(workers, func(w, id string) Fanout {
		fv := v
		f := Fanout{Worker: w, ID: id}
		if approve {
			f.ApproveVerdict = &fv
		} else {
			f.DenyVerdict = &fv
		}
		return f
	})
	var best *control.Reply
	var firstErr string
	for i := range replies {
		switch {
		case replies[i].Err != "":
			if firstErr == "" {
				firstErr = replies[i].Worker + ": " + replies[i].Err
			}
		case replies[i].Control == nil:
			if firstErr == "" {
				firstErr = replies[i].Worker + ": empty reply"
			}
		case replies[i].Control.OK:
			best = replies[i].Control
		case firstErr == "":
			firstErr = replies[i].Worker + ": " + replies[i].Control.Error
		}
	}
	if best == nil {
		return control.Reply{ID: v.ID, Op: op, Error: firstErr}
	}
	out := *best
	out.ID = v.ID
	return out
}

// handleQuery answers one tsdb query by scatter-gathering it across every
// alive worker and merging the per-worker responses: each worker stores the
// series its own simulation slice emits, so the union is the facility view.
func (c *Coordinator) handleQuery(env bus.Envelope) {
	var req tsdb.QueryRequest
	var resp tsdb.QueryResponse
	if err := bus.DecodePayload(env, &req); err != nil {
		resp = tsdb.QueryResponse{ID: req.ID, Err: "tsdb: decode query request: " + err.Error()}
	} else {
		resp = c.Answer(req)
	}
	c.b.Publish(bus.Envelope{Topic: tsdb.ResultTopic, Time: env.Time, Source: c.opts.Source, Payload: resp})
}

// Answer scatter-gathers one already-decoded query across the alive workers
// and returns the merged facility-wide response. Exported for the HTTP
// gateway's /v1/query path, which has no local store on a coordinator.
//
// A request tsdb.QueryRequest.Validate rejects is answered before any
// fan-out, with Err set and no Failed sources — the answer a single store
// gives — so it never reaches a worker.
func (c *Coordinator) Answer(req tsdb.QueryRequest) tsdb.QueryResponse {
	if err := req.Validate(); err != nil {
		return tsdb.QueryResponse{ID: req.ID, Err: err.Error()}
	}
	workers := c.dir.Alive()
	if len(workers) == 0 {
		return tsdb.QueryResponse{ID: req.ID}
	}
	replies := c.scatter.Fan(workers, func(w, id string) Fanout {
		fr := req
		fr.ID = id
		return Fanout{Worker: w, ID: id, Query: &fr}
	})
	resp := MergeQuery(req.ID, replies)
	if resp.Partial {
		c.scatter.partials.Add(1)
	}
	return resp
}
