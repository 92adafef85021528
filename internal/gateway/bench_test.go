package gateway

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"autoloop/internal/bus"
	"autoloop/internal/telemetry"
	"autoloop/internal/tsdb"
)

// nullWriter is a reusable ResponseWriter that discards the body, so the
// benchmark measures the gateway, not the recorder.
type nullWriter struct {
	h http.Header
	n int
}

func (w *nullWriter) Header() http.Header {
	if w.h == nil {
		w.h = make(http.Header, 4)
	}
	return w.h
}
func (w *nullWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }
func (w *nullWriter) WriteHeader(int)             {}

// BenchmarkGatewayQuery measures the query hot path end to end through the
// HTTP handler: auth, decode, singleflight, QueryVisit streaming encode.
// 16 series x 512 samples per response.
func BenchmarkGatewayQuery(b *testing.B) {
	db := tsdb.New(0)
	for s := 0; s < 16; s++ {
		labels := telemetry.Labels{"node": "n" + string(rune('a'+s))}
		for i := 0; i < 512; i++ {
			if err := db.Append(telemetry.Point{
				Name: "cpu", Labels: labels,
				Time: time.Duration(i) * time.Second, Value: float64(i),
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
	g := New(Options{Store: db})
	defer g.Close()
	req := httptest.NewRequest("GET", "/v1/query?metric=cpu&from_ms=0&to_ms=600000", nil)
	h := g.Handler()
	w := &nullWriter{}

	// One warm-up pass to size the pooled encoder buffer.
	h.ServeHTTP(w, req)
	if w.n == 0 {
		b.Fatal("empty response")
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(w, req)
	}
	b.SetBytes(int64(w.n / (b.N + 1)))
}

// BenchmarkSSEFanout measures one bus publish fanned out to 1000 connected
// SSE subscribers, each drained by its own goroutine (the shape of 1000
// live dashboard clients).
func BenchmarkSSEFanout(b *testing.B) {
	b.Run("clients=1000", func(b *testing.B) {
		bb := bus.New()
		h := NewHub(bb, 64)
		defer h.Close()
		const clients = 1000
		for i := 0; i < clients; i++ {
			sub := h.Subscribe([]string{"loop.*"}, 0, 256)
			go func() {
				for range sub.out {
				}
			}()
		}
		env := bus.Envelope{Topic: "loop.finding", Payload: map[string]string{"kind": "overheat", "subject": "node-17"}}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bb.Publish(env)
		}
		b.StopTimer()
		b.ReportMetric(float64(h.Dropped())/float64(b.N), "drops/op")
	})
}
