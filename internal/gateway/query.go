package gateway

import (
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"autoloop/internal/telemetry"
	"autoloop/internal/tsdb"
)

// handleQuery answers the query plane. POST carries a tsdb.QueryRequest
// JSON body (the exact vocabulary of the "tsdb.query" bus topic); GET maps
// query parameters onto the same fields (metric, from_ms, to_ms, step_ms,
// agg, latest, and match.<key>=<value> label matchers) for curl-ability.
// The handler only decodes: what the request means, and whether it is
// valid, is tsdb.Execute's to say — here through encodeQuery, on a
// coordinator through QueryRequest.Validate and every worker's service.
//
// The response body is a tsdb.QueryResponse-shaped JSON object. Unlike the
// bus service, the request's id is not echoed: HTTP responses correlate by
// the exchange itself, and identical concurrent queries share one encoded
// body through the singleflight layer.
func (g *Gateway) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req tsdb.QueryRequest
	var err error
	switch r.Method {
	case http.MethodPost:
		var body []byte
		body, err = io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
		if err == nil {
			req, err = tsdb.DecodeRequestJSON(body)
		}
	case http.MethodGet:
		req, err = queryFromParams(r.URL.Query())
	default:
		g.httpError(w, http.StatusMethodNotAllowed, "use GET or POST")
		return
	}
	if err != nil {
		g.httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	// A coordinator has no local store: scatter-gather across the workers
	// and return the merged facility view. Partial coverage stays 200 with
	// the gap named in err, matching the bus-topic query surface. An error
	// no worker is blamed for is the request's own, rejected before the
	// fan-out: it gets the 400 a single store answers.
	if g.opts.Store == nil {
		resp := g.opts.Cluster.Answer(req)
		if resp.Err != "" && len(resp.Failed) == 0 {
			g.httpError(w, http.StatusBadRequest, "%s", resp.Err)
			return
		}
		resp.ID = "" // HTTP correlates by the exchange itself
		g.writeJSON(w, http.StatusOK, resp)
		return
	}

	c, shared := g.flight.do(queryKey(&req), func() (*encoder, error) { return g.encodeQuery(&req) })
	if shared {
		g.coalesced.Add(1)
	}
	defer c.release()
	if c.err != nil {
		g.httpError(w, http.StatusBadRequest, "%v", c.err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	g.writeMaybeGzip(w, r, c.enc.buf)
}

// queryKey canonicalizes a request for coalescing: everything that affects
// the result, nothing that does not (the id).
func queryKey(req *tsdb.QueryRequest) string {
	var b strings.Builder
	b.Grow(64)
	b.WriteString(req.Metric)
	b.WriteByte(0)
	b.WriteString(req.Match.Key())
	b.WriteByte(0)
	b.WriteString(strconv.FormatInt(req.FromMS, 10))
	b.WriteByte(0)
	b.WriteString(strconv.FormatInt(req.ToMS, 10))
	b.WriteByte(0)
	b.WriteString(strconv.FormatInt(req.StepMS, 10))
	b.WriteByte(0)
	b.WriteString(req.Agg)
	b.WriteByte(0)
	b.WriteString(strconv.FormatBool(req.Latest))
	return b.String()
}

// queryFromParams maps GET parameters onto the wire request.
func queryFromParams(q url.Values) (tsdb.QueryRequest, error) {
	req := tsdb.QueryRequest{Metric: q.Get("metric"), Agg: q.Get("agg")}
	for _, f := range []struct {
		name string
		dst  *int64
	}{
		{"from_ms", &req.FromMS},
		{"to_ms", &req.ToMS},
		{"step_ms", &req.StepMS},
	} {
		if s := q.Get(f.name); s != "" {
			v, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				return req, fmt.Errorf("gateway: bad %s %q", f.name, s)
			}
			*f.dst = v
		}
	}
	if s := q.Get("latest"); s != "" {
		v, err := strconv.ParseBool(s)
		if err != nil {
			return req, fmt.Errorf("gateway: bad latest %q", s)
		}
		req.Latest = v
	}
	for key, vals := range q {
		if label, ok := strings.CutPrefix(key, "match."); ok && label != "" && len(vals) > 0 {
			if req.Match == nil {
				req.Match = telemetry.Labels{}
			}
			req.Match[label] = vals[0]
		}
	}
	return req, nil
}

// encodeQuery runs one request through tsdb.Execute with a pooled encoder
// as the sink: every series is appended to the response body from inside
// the emit callback — for a range request that is the store's QueryVisit
// callback, so no intermediate series slices exist. A request the executor
// rejects returns its error and no encoder.
func (g *Gateway) encodeQuery(req *tsdb.QueryRequest) (*encoder, error) {
	e := getEncoder()
	e.begin("")
	e.metric = req.Metric
	if err := tsdb.Execute(g.opts.Store, req, e.emit); err != nil {
		e.release()
		return nil, err
	}
	e.end()
	return e, nil
}
