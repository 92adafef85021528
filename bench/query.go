package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"sync/atomic"
	"time"

	"autoloop/internal/gateway"
	"autoloop/internal/tsdb"
)

// front is a gateway served on a loopback port together with the one
// open-loop client that queries it — the serving side of durable-serve and
// cluster3.
type front struct {
	gw   *gateway.Gateway
	srv  *http.Server
	th   *timedHandler // traced only: the gateway's handler, timed from outside
	base string
	qc   *queryClient
}

// serveGateway puts gw behind an http.Server on 127.0.0.1:0 (behind a timing
// handler when tracing) and readies qc to query it.
func serveGateway(it *iter, gw *gateway.Gateway, qc *queryClient) (*front, error) {
	f := &front{gw: gw, qc: qc}
	handler := gw.Handler()
	if it.rec != nil {
		f.th = &timedHandler{rec: it.rec, inner: handler}
		handler = f.th
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f.srv = &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = f.srv.Serve(ln) }() // stopped by srv.Close in close()
	f.base = "http://" + ln.Addr().String()
	qc.base, qc.seed, qc.lateLimit = f.base, it.seed, it.tw.lateLimit
	return f, nil
}

// during runs fn with the client querying beside it.
func (f *front) during(fn func()) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.qc.loop(ctx)
	}()
	fn()
	cancel()
	<-done
}

// fold counts the client's queries as operations and, when tracing, adds
// the gateway's rows.
func (f *front) fold(res *iterResult) {
	res.query, res.late = f.qc.latMS, f.qc.lateMS
	res.ops += f.qc.issued
	res.failures = append(res.failures, f.qc.bad...)
	if f.th == nil {
		return
	}
	l, gs := res.layers, f.gw.Stats()
	l["gateway.queries"] = float64(f.qc.issued)
	l["gateway.bytes"] = float64(f.th.bytes)
	l["gateway.gzipped"] = float64(gs.Gzipped)
	l["gateway.coalesced"] = float64(gs.Coalesced)
	l["gateway.errors"] = float64(gs.Errors)
	res.dists["gateway.handler_ms"] = append(res.dists["gateway.handler_ms"], f.th.handlerMS...)
}

func (f *front) close() {
	_ = f.srv.Close()
	_ = f.gw.Close()
}

// queryPlan is one generated request and what a correct answer looks like.
type queryPlan struct {
	params url.Values
	series int   // exact series count expected
	fromMS int64 // every sample must fall in [fromMS, toMS]; toMS < 0 skips the range check
	toMS   int64
}

// queryClient is the open-loop load generator: one goroutine, one
// connection, a fixed schedule. Each request is timed from when it was due,
// so a stall shows up as latency on the requests queued behind it, and how
// late the generator itself ran is kept beside the latencies.
type queryClient struct {
	base string
	rate float64 // requests per second
	next func(rng *rand.Rand, vnowMS int64) queryPlan
	vnow *atomic.Int64 // virtual time of the newest sampling round, ns
	seed int64
	// lateLimit is how long after its due time an answer still counts.
	lateLimit time.Duration

	latMS  []float64
	lateMS []float64
	issued int
	bad    []string
}

func (c *queryClient) loop(ctx context.Context) {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr}
	rng := rand.New(rand.NewSource(c.seed))
	period := time.Duration(float64(time.Second) / c.rate)

	// The writer needs a few rounds in the store before a ten-minute
	// window or a five-minute rollup bucket can be checked for an exact
	// series count.
	for c.vnow.Load() < int64(10*time.Minute) {
		select {
		case <-ctx.Done():
			return
		case <-time.After(time.Millisecond):
		}
	}
	start := time.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * period)
		if wait := time.Until(due); wait > 0 {
			select {
			case <-ctx.Done():
				return
			case <-time.After(wait):
			}
		} else if ctx.Err() != nil {
			return
		}
		plan := c.next(rng, c.vnow.Load()/int64(time.Millisecond))
		sent := time.Now()
		err := c.do(ctx, hc, plan)
		if ctx.Err() != nil {
			return // cancelled mid-request: not an operation
		}
		c.issued++
		c.lateMS = append(c.lateMS, float64(sent.Sub(due))/1e6)
		lat := time.Since(due)
		switch {
		case err != nil:
			c.bad = append(c.bad, err.Error())
		case lat > c.lateLimit:
			c.bad = append(c.bad, fmt.Sprintf("query answered %v after it was due", lat))
		default:
			c.latMS = append(c.latMS, float64(lat)/1e6)
		}
	}
}

// do issues one query, reads the whole body, and validates it.
func (c *queryClient) do(ctx context.Context, hc *http.Client, plan queryPlan) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/query?"+plan.params.Encode(), nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("query %s: status %d: %s", plan.params.Encode(), resp.StatusCode, body)
	}
	return validate(plan, body)
}

// validate holds one response to its plan: the expected series count,
// samples sorted and in range, nothing partial.
func validate(plan queryPlan, body []byte) error {
	var qr tsdb.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		return fmt.Errorf("query %s: %w", plan.params.Encode(), err)
	}
	if qr.Err != "" || qr.Partial || len(qr.Failed) > 0 {
		return fmt.Errorf("query %s: err %q partial %v failed %v", plan.params.Encode(), qr.Err, qr.Partial, qr.Failed)
	}
	if len(qr.Series) != plan.series {
		return fmt.Errorf("query %s: %d series, want %d", plan.params.Encode(), len(qr.Series), plan.series)
	}
	for _, s := range qr.Series {
		if len(s.Samples) == 0 {
			return fmt.Errorf("query %s: series %v has no samples", plan.params.Encode(), s.Labels)
		}
		for i, smp := range s.Samples {
			if i > 0 && smp.TimeMS <= s.Samples[i-1].TimeMS {
				return fmt.Errorf("query %s: series %v samples out of order", plan.params.Encode(), s.Labels)
			}
			if plan.toMS >= 0 && (smp.TimeMS < plan.fromMS || smp.TimeMS > plan.toMS) {
				return fmt.Errorf("query %s: series %v sample at %dms outside [%d, %d]",
					plan.params.Encode(), s.Labels, smp.TimeMS, plan.fromMS, plan.toMS)
			}
		}
	}
	return nil
}

func rangeParams(metric string, fromMS, toMS int64) url.Values {
	return url.Values{
		"metric":  {metric},
		"from_ms": {strconv.FormatInt(fromMS, 10)},
		"to_ms":   {strconv.FormatInt(toMS, 10)},
	}
}

const tenMinMS = int64(10 * time.Minute / time.Millisecond)

// serveMix is durable-serve's request mix over a facility of the given
// shape: a rack's temperatures over the last ten virtual minutes, every
// node's latest temperature, one node's utilization range, and a rack's
// five-minute temperature rollup.
func serveMix(nodes, perRack int) func(*rand.Rand, int64) queryPlan {
	racks := (nodes + perRack - 1) / perRack
	return func(rng *rand.Rand, nowMS int64) queryPlan {
		rack := fmt.Sprintf("r%02d", rng.Intn(racks))
		from := nowMS - tenMinMS
		switch rng.Intn(4) {
		case 0:
			p := rangeParams("node.temp.celsius", from, nowMS)
			p.Set("match.rack", rack)
			return queryPlan{params: p, series: perRack, fromMS: from, toMS: nowMS}
		case 1:
			return queryPlan{
				params: url.Values{"metric": {"node.temp.celsius"}, "latest": {"true"}},
				series: nodes, toMS: -1,
			}
		case 2:
			p := rangeParams("node.cpu.util", from, nowMS)
			p.Set("match.node", fmt.Sprintf("n%03d", rng.Intn(nodes)))
			return queryPlan{params: p, series: 1, fromMS: from, toMS: nowMS}
		default:
			p := rangeParams("node.temp.celsius", 0, nowMS)
			p.Set("match.rack", rack)
			p.Set("step_ms", strconv.FormatInt(int64(5*time.Minute/time.Millisecond), 10))
			p.Set("agg", "mean")
			return queryPlan{params: p, series: perRack, fromMS: 0, toMS: nowMS}
		}
	}
}

// scatterMix is cluster3's request: one rack's temperatures over the last
// ten virtual minutes, answered by every worker (each simulates a facility
// of the same shape, so each contributes the rack's nodes).
func scatterMix(workers, nodes, perRack int) func(*rand.Rand, int64) queryPlan {
	racks := (nodes + perRack - 1) / perRack
	return func(rng *rand.Rand, nowMS int64) queryPlan {
		from := nowMS - tenMinMS
		p := rangeParams("node.temp.celsius", from, nowMS)
		p.Set("match.rack", fmt.Sprintf("r%02d", rng.Intn(racks)))
		return queryPlan{params: p, series: workers * perRack, fromMS: from, toMS: nowMS}
	}
}
