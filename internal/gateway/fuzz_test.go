package gateway

import (
	"encoding/json"
	"net/url"
	"testing"

	"autoloop/internal/tsdb"
)

// FuzzQueryRequest drives both /v1/query decoders — GET parameters through
// queryFromParams, POST bodies through tsdb.DecodeRequestJSON — into
// tsdb.Execute over a small populated store. Nothing may panic, and any
// request the executor accepts must encode to a body that decodes back as a
// tsdb.QueryResponse. Seeds are the TestQueryBadRequests cases plus one
// accepted request per read kind.
func FuzzQueryRequest(f *testing.F) {
	for _, seed := range [][2]string{
		{"", `{"metric":`},
		{"", `{"metric":123,"latest":"yes"}`},
		{"", `{"from_ms":1}`},
		{"metric=cpu&step_ms=5000&agg=median", ""},
		{"metric=cpu&step_ms=7000&agg=mean", ""},
		{"metric=cpu&from_ms=abc", ""},
		{"metric=cpu&latest=maybe", ""},
		{"metric=cpu&from_ms=0&to_ms=10000&match.node=n1", `{"metric":"cpu","from_ms":2000,"to_ms":5000}`},
		{"metric=cpu&latest=true", `{"metric":"cpu","match":{"node":"n2"},"latest":true}`},
		{"metric=cpu&to_ms=10000&step_ms=5000&agg=mean", `{"metric":"cpu","to_ms":10000,"step_ms":5000,"agg":"mean"}`},
	} {
		f.Add(seed[0], seed[1])
	}
	g := New(Options{Store: newTestDB(f)})
	f.Cleanup(func() { g.Close() })
	f.Fuzz(func(t *testing.T, query, body string) {
		run := func(req tsdb.QueryRequest, err error) {
			if err != nil {
				return
			}
			e, err := g.encodeQuery(&req)
			if err != nil {
				return
			}
			defer e.release()
			var resp tsdb.QueryResponse
			if err := json.Unmarshal(e.buf, &resp); err != nil {
				t.Fatalf("request %+v encoded to %q: %v", req, e.buf, err)
			}
		}
		params, _ := url.ParseQuery(query) // like r.URL.Query(): keep what parsed
		run(queryFromParams(params))
		run(tsdb.DecodeRequestJSON([]byte(body)))
	})
}
