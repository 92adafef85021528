package gateway

import (
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"sync"
	"time"

	"autoloop/internal/telemetry"
)

// encoder builds one /v1/query response body directly in a reusable byte
// buffer: it is the gateway's sink for tsdb.Execute. For a range request
// emit runs inside the store's QueryVisit callback, so the response is
// encoded straight off the live sample windows — no intermediate
// []WireSeries (or any per-series copy) is materialized — in the label-key
// order Execute emits. The JSON shape and series order match
// tsdb.QueryResponse exactly, so bus and HTTP clients parse one vocabulary.
//
// Encoders are pooled; with warm buffers an encode performs no allocations
// (gated by TestGatewayEncodeAllocs).
type encoder struct {
	buf    []byte
	keys   []string // label-name sort scratch
	series int      // series emitted so far

	// metric and emit are the tsdb.Execute sink: emit is built once per
	// pooled encoder (not per request), so a warm encode allocates nothing
	// at all.
	metric string
	emit   telemetry.SeriesVisitor
}

var encoderPool = sync.Pool{New: func() interface{} {
	e := new(encoder)
	e.emit = func(labels telemetry.Labels, samples []telemetry.Sample) {
		e.beginSeries(e.metric, labels)
		for i, s := range samples {
			e.sample(i, s.Time, s.Value)
		}
		e.endSeries()
	}
	return e
}}

func getEncoder() *encoder {
	e := encoderPool.Get().(*encoder)
	e.buf = e.buf[:0]
	e.series = 0
	return e
}

// release pools e.
func (e *encoder) release() {
	e.keys = e.keys[:0]
	encoderPool.Put(e)
}

func (e *encoder) begin(id string) {
	e.buf = append(e.buf, '{')
	if id != "" {
		e.buf = append(e.buf, `"id":`...)
		e.appendString(id)
		e.buf = append(e.buf, ',')
	}
	e.buf = append(e.buf, `"series":[`...)
}

func (e *encoder) end() {
	e.buf = append(e.buf, ']', '}', '\n')
}

// beginSeries opens one series object. labels may alias store memory; keys
// are copied into the scratch only for sorting, never retained.
func (e *encoder) beginSeries(metric string, labels telemetry.Labels) {
	if e.series > 0 {
		e.buf = append(e.buf, ',')
	}
	e.series++
	e.buf = append(e.buf, `{"metric":`...)
	e.appendString(metric)
	if len(labels) > 0 {
		e.buf = append(e.buf, `,"labels":{`...)
		e.keys = e.keys[:0]
		for k := range labels {
			e.keys = append(e.keys, k)
		}
		slices.Sort(e.keys)
		for i, k := range e.keys {
			if i > 0 {
				e.buf = append(e.buf, ',')
			}
			e.appendString(k)
			e.buf = append(e.buf, ':')
			e.appendString(labels[k])
		}
		e.buf = append(e.buf, '}')
	}
	e.buf = append(e.buf, `,"samples":[`...)
}

func (e *encoder) sample(i int, t time.Duration, v float64) {
	if i > 0 {
		e.buf = append(e.buf, ',')
	}
	e.buf = append(e.buf, `{"t_ms":`...)
	e.buf = strconv.AppendInt(e.buf, int64(t/time.Millisecond), 10)
	e.buf = append(e.buf, `,"v":`...)
	e.appendFloat(v)
	e.buf = append(e.buf, '}')
}

func (e *encoder) endSeries() {
	e.buf = append(e.buf, ']', '}')
}

// appendFloat writes v as a JSON number; non-finite values (not
// representable in JSON) become null, matching encoding/json's strictness
// without failing the whole response.
func (e *encoder) appendFloat(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		e.buf = append(e.buf, `null`...)
		return
	}
	e.buf = strconv.AppendFloat(e.buf, v, 'g', -1, 64)
}

// appendString writes s as a JSON string. Metric names and labels are plain
// ASCII identifiers in practice, so the fast path just scans; anything
// needing escapes falls back to encoding/json.
func (e *encoder) appendString(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c == '"' || c == '\\' || c >= 0x80 {
			esc, err := json.Marshal(s)
			if err != nil { // unreachable for strings
				esc = []byte(`""`)
			}
			e.buf = append(e.buf, esc...)
			return
		}
	}
	e.buf = append(e.buf, '"')
	e.buf = append(e.buf, s...)
	e.buf = append(e.buf, '"')
}
