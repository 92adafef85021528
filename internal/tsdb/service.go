package tsdb

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"autoloop/internal/bus"
	"autoloop/internal/telemetry"
)

// Topics of the bus query surface: clients publish QueryRequest payloads on
// QueryTopic (in process or over the cmd/modad TCP bridge, which republishes
// client lines locally) and receive QueryResponse payloads on ResultTopic.
const (
	QueryTopic  = "tsdb.query"
	ResultTopic = "tsdb.result"
)

// QueryRequest is the wire form of one query against a served DB. Times are
// virtual milliseconds since the simulation epoch. Step selects a registered
// rollup (with Agg naming the rule's aggregation); Latest asks for each
// matching series' newest point instead of a range.
type QueryRequest struct {
	ID     string           `json:"id,omitempty"`
	Metric string           `json:"metric"`
	Match  telemetry.Labels `json:"match,omitempty"`
	FromMS int64            `json:"from_ms,omitempty"`
	ToMS   int64            `json:"to_ms,omitempty"`
	StepMS int64            `json:"step_ms,omitempty"`
	Agg    string           `json:"agg,omitempty"`
	Latest bool             `json:"latest,omitempty"`
}

// WireSample is one (time, value) pair of a response series.
type WireSample struct {
	TimeMS int64   `json:"t_ms"`
	Value  float64 `json:"v"`
}

// WireSeries is one series of a response.
type WireSeries struct {
	Metric  string           `json:"metric"`
	Labels  telemetry.Labels `json:"labels,omitempty"`
	Samples []WireSample     `json:"samples"`
}

// QueryResponse answers one QueryRequest, echoing its ID.
//
// A single-store response never sets Partial or Failed. A cluster
// coordinator merging per-worker answers sets Partial when at least one
// source failed to contribute and Failed names each gap, so callers can
// tell "empty because nothing matched" from "empty because the owner was
// unreachable".
type QueryResponse struct {
	ID     string       `json:"id,omitempty"`
	Series []WireSeries `json:"series,omitempty"`
	Err    string       `json:"err,omitempty"`
	// Partial marks a merged response missing at least one source's slice.
	Partial bool `json:"partial,omitempty"`
	// Failed attributes each missing slice to its source.
	Failed []SourceError `json:"failed,omitempty"`
}

// SourceError attributes one failed contribution to a merged response.
type SourceError struct {
	Source string `json:"source"`
	Err    string `json:"err"`
}

// Store is the read surface a QueryRequest executes against: the
// visitor/fill-buffer calls of the telemetry querier plus rollup reads.
// *DB implements it.
type Store interface {
	telemetry.Querier
	QueryRollup(metric string, matcher telemetry.Labels, step time.Duration, agg Agg, from, to time.Duration) ([]telemetry.Series, bool)
}

// latestScratch is Execute's pooled state for latest requests: the
// LatestInto buffer and the one-sample window each point is emitted as.
type latestScratch struct {
	pts []telemetry.Point
	one [1]telemetry.Sample
}

var latestPool = sync.Pool{New: func() interface{} { return new(latestScratch) }}

// Validate rejects what no store could answer: a missing metric, and on a
// step request (StepMS > 0, not Latest) an aggregation ParseAgg does not
// know. Execute runs it first; a cluster coordinator runs it before fanning
// a request out, so both answer a bad request with the same text.
func (r *QueryRequest) Validate() error {
	if r.Metric == "" {
		return errors.New("missing metric")
	}
	if !r.Latest && r.StepMS > 0 {
		if _, ok := ParseAgg(r.Agg); !ok {
			return fmt.Errorf("unknown agg %q", r.Agg)
		}
	}
	return nil
}

// Execute is the one interpreter of the QueryRequest vocabulary; the bus
// service, the HTTP gateway and (through each worker's service) the cluster
// coordinator are sinks over it. It validates req, reads st — latest beats
// step beats range — and calls emit once per series of req.Metric. A
// request is rejected before anything is emitted.
//
// emit runs under the contract of telemetry.SeriesVisitor: labels and
// samples may alias store memory and are valid only during the call. Series
// arrive in label-key order on all three branches — the order of every
// Store read — so a sink's response is ordered as it is written.
func Execute(st Store, req *QueryRequest, emit telemetry.SeriesVisitor) error {
	if err := req.Validate(); err != nil {
		return err
	}
	from := time.Duration(req.FromMS) * time.Millisecond
	to := time.Duration(req.ToMS) * time.Millisecond
	switch {
	case req.Latest:
		sc := latestPool.Get().(*latestScratch)
		sc.pts = st.LatestInto(sc.pts[:0], req.Metric, req.Match)
		for _, p := range sc.pts {
			sc.one[0] = telemetry.Sample{Time: p.Time, Value: p.Value}
			emit(p.Labels, sc.one[:])
		}
		clear(sc.pts) // the scratch must not pin store labels
		latestPool.Put(sc)
	case req.StepMS > 0:
		agg, _ := ParseAgg(req.Agg) // Validate accepted it
		step := time.Duration(req.StepMS) * time.Millisecond
		ss, ok := st.QueryRollup(req.Metric, req.Match, step, agg, from, to)
		if !ok {
			return fmt.Errorf("no rollup %s/%v/%s registered", req.Metric, step, req.Agg)
		}
		for _, s := range ss {
			emit(s.Labels, s.Samples)
		}
	default:
		st.QueryVisit(req.Metric, req.Match, from, to, emit)
	}
	return nil
}

// SortSeries orders response series by metric, then label key — the order
// one store's answer already has and a coordinator's merge of several must
// restore — computing each key once.
func SortSeries(ss []WireSeries) {
	type entry struct {
		key string
		s   WireSeries
	}
	items := make([]entry, len(ss))
	for i, s := range ss {
		items[i] = entry{s.Metric + "\x00" + s.Labels.Key(), s}
	}
	slices.SortFunc(items, func(a, b entry) int { return strings.Compare(a.key, b.key) })
	for i := range items {
		ss[i] = items[i].s
	}
}

// Service answers QueryRequest envelopes published on a bus from a DB —
// the query endpoint cmd/modad exposes next to its envelope stream.
type Service struct {
	db     *DB
	cancel func()
	source string
}

// NewService returns a query service over db.
func NewService(db *DB) *Service {
	if db == nil {
		panic("tsdb: NewService with nil DB")
	}
	return &Service{db: db}
}

// Attach subscribes the service to QueryTopic on b, publishing responses on
// ResultTopic tagged with source. It returns s for chaining; Close detaches.
func (s *Service) Attach(b *bus.Bus, source string) *Service {
	if s.cancel != nil {
		panic("tsdb: Service attached twice")
	}
	s.source = source
	s.cancel = b.Subscribe(QueryTopic, func(env bus.Envelope) {
		var req QueryRequest
		var resp QueryResponse
		if err := bus.DecodePayload(env, &req); err != nil {
			// An unreadable request must say so — answering "missing
			// metric" for a malformed payload sends the client debugging
			// the wrong field.
			resp = QueryResponse{ID: req.ID, Err: "tsdb: decode query request: " + err.Error()}
		} else {
			resp = s.Answer(req)
		}
		b.Publish(bus.Envelope{Topic: ResultTopic, Time: env.Time, Source: s.source, Payload: resp})
	})
	return s
}

// Close detaches the service from its bus.
func (s *Service) Close() {
	if s.cancel != nil {
		s.cancel()
		s.cancel = nil
	}
}

// DecodeRequestJSON decodes one JSON-encoded QueryRequest, the HTTP
// gateway's POST body.
func DecodeRequestJSON(data []byte) (QueryRequest, error) {
	var req QueryRequest
	if err := json.Unmarshal(data, &req); err != nil {
		return QueryRequest{}, fmt.Errorf("tsdb: decode query request: %w", err)
	}
	return req, nil
}

// Answer executes one request against the DB and materializes the response:
// every series is an independent copy (labels cloned, samples converted
// once), in the label-key order Execute emits.
func (s *Service) Answer(req QueryRequest) QueryResponse {
	resp := QueryResponse{ID: req.ID}
	err := Execute(s.db, &req, func(labels telemetry.Labels, samples []telemetry.Sample) {
		ws := WireSeries{Metric: req.Metric, Labels: labels.Clone(), Samples: make([]WireSample, len(samples))}
		for i, smp := range samples {
			ws.Samples[i] = WireSample{TimeMS: smp.Time.Milliseconds(), Value: smp.Value}
		}
		resp.Series = append(resp.Series, ws)
	})
	if err != nil {
		resp.Err = err.Error()
		return resp
	}
	return resp
}
