package tsdb

import (
	"strings"
	"testing"
	"time"

	"autoloop/internal/bus"
	"autoloop/internal/telemetry"
)

func serviceFixture(t *testing.T) (*DB, *bus.Bus, *[]QueryResponse) {
	t.Helper()
	db := New(0)
	if err := db.AddRollup(RollupRule{Metric: "cpu", Step: 10 * time.Second, Agg: AggMean}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		for _, node := range []string{"n1", "n2"} {
			if err := db.Append(pt("cpu", telemetry.Labels{"node": node}, time.Duration(i)*time.Second, float64(i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	b := bus.New()
	svc := NewService(db).Attach(b, "test")
	t.Cleanup(svc.Close)
	var got []QueryResponse
	b.Subscribe(ResultTopic, func(env bus.Envelope) {
		got = append(got, env.Payload.(QueryResponse))
	})
	return db, b, &got
}

func ask(b *bus.Bus, req QueryRequest) {
	b.Publish(bus.Envelope{Topic: QueryTopic, Time: time.Second, Payload: req})
}

func TestServiceRangeQuery(t *testing.T) {
	_, b, got := serviceFixture(t)
	ask(b, QueryRequest{ID: "q1", Metric: "cpu", Match: telemetry.Labels{"node": "n1"}, FromMS: 5000, ToMS: 8000})
	if len(*got) != 1 {
		t.Fatalf("got %d responses, want 1", len(*got))
	}
	resp := (*got)[0]
	if resp.ID != "q1" || resp.Err != "" {
		t.Fatalf("resp = %+v", resp)
	}
	if len(resp.Series) != 1 || len(resp.Series[0].Samples) != 4 {
		t.Fatalf("series = %+v", resp.Series)
	}
	if resp.Series[0].Samples[0].TimeMS != 5000 {
		t.Errorf("first sample at %d ms, want 5000", resp.Series[0].Samples[0].TimeMS)
	}
}

func TestServiceLatestAndRollup(t *testing.T) {
	_, b, got := serviceFixture(t)
	ask(b, QueryRequest{ID: "latest", Metric: "cpu", Latest: true})
	ask(b, QueryRequest{ID: "roll", Metric: "cpu", StepMS: 10000, Agg: "mean", ToMS: 3600000})
	if len(*got) != 2 {
		t.Fatalf("got %d responses, want 2", len(*got))
	}
	latest := (*got)[0]
	if len(latest.Series) != 2 || latest.Series[0].Samples[0].Value != 29 {
		t.Fatalf("latest = %+v", latest)
	}
	roll := (*got)[1]
	if roll.Err != "" || len(roll.Series) != 2 {
		t.Fatalf("rollup = %+v", roll)
	}
	// Buckets 0..9 and 10..19 are flushed, 20..29 is the open partial.
	if n := len(roll.Series[0].Samples); n != 3 {
		t.Fatalf("rollup buckets = %d, want 3", n)
	}
	if v := roll.Series[0].Samples[0].Value; v != 4.5 {
		t.Errorf("bucket 0 mean = %v, want 4.5", v)
	}
}

func TestServiceErrors(t *testing.T) {
	_, b, got := serviceFixture(t)
	ask(b, QueryRequest{ID: "e1"})                                             // missing metric
	ask(b, QueryRequest{ID: "e2", Metric: "cpu", StepMS: 10000, Agg: "bogus"}) // bad agg
	ask(b, QueryRequest{ID: "e3", Metric: "cpu", StepMS: 99000, Agg: "mean"})  // no such rule
	ask(b, QueryRequest{ID: "e4", Metric: "nope", FromMS: 0, ToMS: 1000})      // unknown metric: empty, no error
	for i, wantErr := range []bool{true, true, true, false} {
		resp := (*got)[i]
		if (resp.Err != "") != wantErr {
			t.Errorf("resp %d: err = %q, wantErr=%v", i, resp.Err, wantErr)
		}
	}
}

// TestServiceWireDecode feeds the request the way a TCP client's line
// arrives: as generic JSON-decoded payload.
func TestServiceWireDecode(t *testing.T) {
	_, b, got := serviceFixture(t)
	line := []byte(`{"topic":"tsdb.query","time":1000000000,"payload":{"id":"w1","metric":"cpu","match":{"node":"n2"},"latest":true}}` + "\n")
	env, err := bus.Decode(line)
	if err != nil {
		t.Fatal(err)
	}
	b.Publish(env)
	if len(*got) != 1 {
		t.Fatalf("got %d responses", len(*got))
	}
	resp := (*got)[0]
	if resp.ID != "w1" || len(resp.Series) != 1 || resp.Series[0].Labels["node"] != "n2" {
		t.Fatalf("wire resp = %+v", resp)
	}
}

// TestServiceMalformedWirePayload: an unreadable payload must answer with a
// decode error, not the misleading "missing metric".
func TestServiceMalformedWirePayload(t *testing.T) {
	_, b, got := serviceFixture(t)
	line := []byte(`{"topic":"tsdb.query","time":1000000000,"payload":{"metric":123,"latest":"yes"}}` + "\n")
	env, err := bus.Decode(line)
	if err != nil {
		t.Fatal(err)
	}
	b.Publish(env)
	if len(*got) != 1 {
		t.Fatalf("got %d responses", len(*got))
	}
	resp := (*got)[0]
	if resp.Err == "" || !strings.Contains(resp.Err, "decode query request") {
		t.Fatalf("Err = %q, want a decode error", resp.Err)
	}
	if strings.Contains(resp.Err, "missing metric") {
		t.Fatalf("Err = %q still reports the misleading missing-metric text", resp.Err)
	}
}
