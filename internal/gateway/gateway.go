// Package gateway is the public HTTP serving surface of the ODA plane: the
// front end real site tooling integrates against (paper question (ii), and
// the pattern both DCDB Wintermute and Netti et al.'s production ODA report
// converge on). It exposes, over plain net/http:
//
//   - the query plane: POST/GET /v1/query answering the same
//     tsdb.QueryRequest vocabulary the bus service speaks — range, instant
//     (latest), and rollup reads. Identical in-flight queries are coalesced
//     through a singleflight layer, and the hot range path encodes straight
//     from the store's QueryVisit stream into the response buffer: no
//     intermediate []WireSeries is materialized.
//   - the control plane: POST /v1/control/<op> for every control.v1 op
//     (list, get, cases, spawn, pause, resume, drain, remove, set-mode,
//     set-guard, pending) plus approve/deny verdicts, delegating to
//     control.Service. Bearer tokens split read-only from operator access.
//   - live subscriptions: GET /v1/stream serves server-sent events for any
//     bus topic patterns (findings, approvals, fleet rounds, telemetry),
//     fanned out through a hub with per-client bounded outboxes — an idle
//     subscriber costs one buffered channel, a slow one drops events and
//     sees its dropped counter, and the bus is never backpressured.
//   - self-telemetry: GET /healthz and GET /metrics (Prometheus text
//     format) covering gateway, bus, pipeline, TSDB, WAL, and TCP-bridge
//     counters.
//
// The wire vocabulary under /v1 is additive-only, like control.v1: new
// endpoints and new optional fields may appear within the version, breaking
// changes go to /v2.
package gateway

import (
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"autoloop/internal/bus"
	"autoloop/internal/cluster"
	"autoloop/internal/control"
	"autoloop/internal/telemetry"
	"autoloop/internal/tsdb"
	"autoloop/internal/wal"
)

// maxBodyBytes bounds one request body (queries and control requests are
// small; loop specs are the largest legitimate payload).
const maxBodyBytes = 1 << 20

// Store is the query surface the gateway serves — the store interface
// tsdb.Execute reads. *tsdb.DB implements it.
type Store = tsdb.Store

// Role is an authenticated caller's capability level.
type Role int

const (
	// RoleNone is an unauthenticated (or unknown-token) caller.
	RoleNone Role = iota
	// RoleRead may query, stream, and read metrics and control state.
	RoleRead
	// RoleOperator may additionally mutate the control plane (spawn,
	// lifecycle ops, set-mode, set-guard, approve/deny).
	RoleOperator
)

// Options configures a Gateway. Store (or Cluster, on a coordinator) is
// required for the query plane; every other field is optional — nil
// subsystems simply disable their endpoints or metrics rows.
type Options struct {
	// Store answers /v1/query from a local TSDB. Required unless Cluster is
	// set.
	Store Store
	// Control answers /v1/control/<op>; nil returns 503 there (unless
	// Cluster serves the control plane instead).
	Control *control.Service
	// Cluster, when set, makes this gateway a coordinator front end:
	// /v1/control/<op> routes through the cluster coordinator (placement,
	// scatter-gather, members), /v1/query scatter-gathers across workers
	// when no local Store is present, and /metrics gains the cluster rows.
	Cluster *cluster.Coordinator
	// Bus feeds /v1/stream subscriptions and bus metrics; nil returns 503
	// on /v1/stream.
	Bus *bus.Bus
	// Pipeline, WAL, and WireServer contribute rows to /metrics when set.
	Pipeline   *telemetry.Pipeline
	WAL        *wal.WAL
	WireServer *bus.Server

	// ReadTokens and OperatorTokens are the accepted bearer tokens per
	// role (operator tokens also pass read checks). With both lists empty
	// the gateway is open: every caller is an operator — the dev-mode
	// default, matching the raw TCP bridge.
	ReadTokens     []string
	OperatorTokens []string

	// OutboxDepth is the per-SSE-client outbox capacity (default 256).
	OutboxDepth int
}

// Stats is a snapshot of the gateway's own counters.
type Stats struct {
	Requests      uint64 // HTTP requests served (all endpoints)
	Errors        uint64 // requests answered with a 4xx/5xx status
	Coalesced     uint64 // /v1/query requests that joined an in-flight identical query
	Gzipped       uint64 // /v1/query responses served gzip-encoded
	StreamClients int64  // currently connected SSE subscribers
	StreamEvents  uint64 // events fanned out to SSE outboxes
	StreamDropped uint64 // events dropped at full SSE outboxes
}

// Gateway serves the HTTP query/control/stream surface. Build one with New,
// then either Serve (own listener) or mount Handler on an existing server.
type Gateway struct {
	opts Options
	hub  *Hub
	mux  *http.ServeMux
	srv  *http.Server
	ln   net.Listener

	flight flightGroup

	requests  atomic.Uint64
	errors    atomic.Uint64
	coalesced atomic.Uint64
	gzipped   atomic.Uint64
}

// New builds a gateway over the given subsystems.
func New(opts Options) *Gateway {
	if opts.Store == nil && opts.Cluster == nil {
		panic("gateway: Options.Store is required (or Options.Cluster on a coordinator)")
	}
	g := &Gateway{opts: opts}
	if opts.Bus != nil {
		g.hub = NewHub(opts.Bus, defaultReplayDepth)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", g.handleHealthz)
	mux.HandleFunc("/metrics", g.authed(RoleRead, g.handleMetrics))
	mux.HandleFunc("/v1/query", g.authed(RoleRead, g.handleQuery))
	mux.HandleFunc("/v1/stream", g.authed(RoleRead, g.handleStream))
	mux.HandleFunc("/v1/control/", g.handleControl) // role depends on the op
	g.mux = mux
	return g
}

// Handler returns the gateway's HTTP handler, for mounting on an existing
// server or for tests.
func (g *Gateway) Handler() http.Handler { return g.mux }

// Serve starts listening on addr (e.g. "127.0.0.1:8080") and serves in a
// background goroutine. Close stops it.
func (g *Gateway) Serve(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("gateway: listen %s: %w", addr, err)
	}
	g.ln = ln
	g.srv = &http.Server{Handler: g.mux, ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = g.srv.Serve(ln) }()
	return nil
}

// Addr returns the bound address after Serve.
func (g *Gateway) Addr() string {
	if g.ln == nil {
		return ""
	}
	return g.ln.Addr().String()
}

// Close stops the listener, terminates open connections (including SSE
// streams), and detaches the stream hub from the bus.
func (g *Gateway) Close() error {
	if g.hub != nil {
		g.hub.Close()
	}
	if g.srv != nil {
		return g.srv.Close()
	}
	return nil
}

// Stats returns a snapshot of the gateway's counters.
func (g *Gateway) Stats() Stats {
	s := Stats{
		Requests:  g.requests.Load(),
		Errors:    g.errors.Load(),
		Coalesced: g.coalesced.Load(),
		Gzipped:   g.gzipped.Load(),
	}
	if g.hub != nil {
		s.StreamClients = g.hub.Clients()
		s.StreamEvents = g.hub.Events()
		s.StreamDropped = g.hub.Dropped()
	}
	return s
}

// role authenticates one request. Open mode (no tokens configured) grants
// operator to everyone; otherwise the bearer token (Authorization header,
// or ?token= for EventSource clients that cannot set headers) selects the
// role, and unknown tokens get RoleNone.
func (g *Gateway) role(r *http.Request) Role {
	if len(g.opts.ReadTokens) == 0 && len(g.opts.OperatorTokens) == 0 {
		return RoleOperator
	}
	tok := bearerToken(r)
	if tok == "" {
		return RoleNone
	}
	for _, t := range g.opts.OperatorTokens {
		if t != "" && subtle.ConstantTimeCompare([]byte(t), []byte(tok)) == 1 {
			return RoleOperator
		}
	}
	for _, t := range g.opts.ReadTokens {
		if t != "" && subtle.ConstantTimeCompare([]byte(t), []byte(tok)) == 1 {
			return RoleRead
		}
	}
	return RoleNone
}

func bearerToken(r *http.Request) string {
	if h := r.Header.Get("Authorization"); h != "" {
		if rest, ok := strings.CutPrefix(h, "Bearer "); ok {
			return strings.TrimSpace(rest)
		}
		return ""
	}
	return r.URL.Query().Get("token")
}

// authed wraps h with request counting and a minimum-role check.
func (g *Gateway) authed(need Role, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		g.requests.Add(1)
		if !g.require(w, r, need) {
			return
		}
		h(w, r)
	}
}

// require enforces the minimum role, writing 401/403 on failure.
func (g *Gateway) require(w http.ResponseWriter, r *http.Request, need Role) bool {
	have := g.role(r)
	switch {
	case have >= need:
		return true
	case have == RoleNone:
		w.Header().Set("WWW-Authenticate", `Bearer realm="autoloop"`)
		g.httpError(w, http.StatusUnauthorized, "missing or unknown bearer token")
	default:
		g.httpError(w, http.StatusForbidden, "operator role required")
	}
	return false
}

// httpError writes a JSON error body with the given status and counts it.
func (g *Gateway) httpError(w http.ResponseWriter, status int, format string, args ...interface{}) {
	g.errors.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	msg, _ := json.Marshal(fmt.Sprintf(format, args...))
	fmt.Fprintf(w, `{"error":%s}`+"\n", msg)
}

// writeJSON marshals v with the given status.
func (g *Gateway) writeJSON(w http.ResponseWriter, status int, v interface{}) {
	if status >= 400 {
		g.errors.Add(1)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// handleHealthz is the (unauthenticated) liveness probe.
func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	g.requests.Add(1)
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"status":"ok"}`+"\n")
}
