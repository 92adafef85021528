package tsdb

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"autoloop/internal/telemetry"
)

func pt(name string, labels telemetry.Labels, t time.Duration, v float64) telemetry.Point {
	return telemetry.Point{Name: name, Labels: labels, Time: t, Value: v}
}

func TestAppendAndQuery(t *testing.T) {
	db := New(0)
	l := telemetry.Labels{"node": "n1"}
	for i := 0; i < 10; i++ {
		if err := db.Append(pt("cpu", l, time.Duration(i)*time.Second, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	ss := db.Query("cpu", nil, 2*time.Second, 5*time.Second)
	if len(ss) != 1 {
		t.Fatalf("got %d series, want 1", len(ss))
	}
	if got := len(ss[0].Samples); got != 4 {
		t.Errorf("got %d samples, want 4 (t=2..5)", got)
	}
	if ss[0].Samples[0].Value != 2 || ss[0].Samples[3].Value != 5 {
		t.Errorf("range boundaries wrong: %v", ss[0].Samples)
	}
}

func TestAppendRejectsOutOfOrder(t *testing.T) {
	db := New(0)
	l := telemetry.Labels{"n": "1"}
	if err := db.Append(pt("m", l, 10*time.Second, 1)); err != nil {
		t.Fatal(err)
	}
	if err := db.Append(pt("m", l, 5*time.Second, 2)); err == nil {
		t.Error("expected out-of-order error")
	}
}

func TestAppendEqualTimestampOverwrites(t *testing.T) {
	db := New(0)
	l := telemetry.Labels{"n": "1"}
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(db.Append(pt("m", l, time.Second, 1)))
	must(db.Append(pt("m", l, time.Second, 9)))
	v, ok := db.LatestValue(&telemetry.Handle{Name: "m", Matcher: l})
	if !ok || v != 9 {
		t.Errorf("LatestValue = %v, %v; want 9", v, ok)
	}
	if db.Appended() != 1 {
		t.Errorf("Appended = %d, want 1 (overwrite should not count)", db.Appended())
	}
}

func TestAppendRejectsInvalid(t *testing.T) {
	db := New(0)
	if err := db.Append(pt("", nil, 0, 1)); err == nil {
		t.Error("expected error for empty name")
	}
	if err := db.Append(pt("m", nil, 0, math.NaN())); err == nil {
		t.Error("expected error for NaN")
	}
}

// TestAppendRejectsInfinity: ±Inf has no JSON form, so one stored infinity
// used to fail every later Snapshot. Both append paths must reject it and
// leave the store snapshottable.
func TestAppendRejectsInfinity(t *testing.T) {
	db := New(0)
	if err := db.Append(pt("m", nil, 0, 1)); err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{math.Inf(1), math.Inf(-1)} {
		if err := db.Append(pt("m", nil, time.Second, v)); err == nil {
			t.Errorf("Append accepted %v", v)
		}
		batch := []telemetry.Point{pt("m", nil, 2*time.Second, 2), pt("m", telemetry.Labels{"k": "v"}, 0, v)}
		if err := db.AppendBatch(batch); err == nil {
			t.Errorf("AppendBatch accepted %v", v)
		}
	}
	if got := db.Appended(); got != 2 {
		t.Errorf("Appended = %d, want 2 (the finite points only)", got)
	}
	if _, err := db.Snapshot(); err != nil {
		t.Fatalf("Snapshot after rejected infinities: %v", err)
	}
}

func TestQueryMatcherSelectsSeries(t *testing.T) {
	db := New(0)
	for _, node := range []string{"n1", "n2", "n3"} {
		_ = db.Append(pt("cpu", telemetry.Labels{"node": node, "rack": "r1"}, time.Second, 1))
	}
	_ = db.Append(pt("cpu", telemetry.Labels{"node": "n4", "rack": "r2"}, time.Second, 1))
	if got := len(db.Query("cpu", telemetry.Labels{"rack": "r1"}, 0, time.Minute)); got != 3 {
		t.Errorf("rack=r1 matched %d series, want 3", got)
	}
	if got := len(db.Query("cpu", nil, 0, time.Minute)); got != 4 {
		t.Errorf("nil matcher matched %d series, want 4", got)
	}
	if got := len(db.Query("mem", nil, 0, time.Minute)); got != 0 {
		t.Errorf("unknown metric matched %d series, want 0", got)
	}
}

func TestQueryResultsAreCopies(t *testing.T) {
	db := New(0)
	l := telemetry.Labels{"n": "1"}
	_ = db.Append(pt("m", l, time.Second, 5))
	ss := db.Query("m", nil, 0, time.Minute)
	ss[0].Samples[0].Value = 99
	v, _ := db.LatestValue(&telemetry.Handle{Name: "m", Matcher: l})
	if v != 5 {
		t.Error("query result mutation leaked into the database")
	}
}

func TestRetention(t *testing.T) {
	db := New(10 * time.Second)
	l := telemetry.Labels{"n": "1"}
	for i := 0; i <= 30; i++ {
		_ = db.Append(pt("m", l, time.Duration(i)*time.Second, float64(i)))
	}
	ss := db.Query("m", nil, 0, time.Hour)
	if len(ss) != 1 {
		t.Fatal("series missing")
	}
	first := ss[0].Samples[0].Time
	if first < 20*time.Second {
		t.Errorf("retention kept sample at %v, want >= 20s", first)
	}
}

func TestLatestAndQuery(t *testing.T) {
	db := New(0)
	_ = db.Append(pt("m", telemetry.Labels{"n": "1"}, time.Second, 1))
	_ = db.Append(pt("m", telemetry.Labels{"n": "1"}, 2*time.Second, 7))
	_ = db.Append(pt("m", telemetry.Labels{"n": "2"}, time.Second, 3))
	latest := db.Latest("m", nil)
	if len(latest) != 2 {
		t.Fatalf("Latest returned %d, want 2", len(latest))
	}
	if latest[0].Value != 7 {
		t.Errorf("latest n=1 = %v, want 7", latest[0].Value)
	}
	if ss := db.Query("m", nil, 0, time.Hour); len(ss) != 2 {
		t.Errorf("Query returned %d series, want 2", len(ss))
	}
	ss := db.Query("m", telemetry.Labels{"n": "2"}, 0, time.Hour)
	if len(ss) != 1 || ss[0].Samples[0].Value != 3 {
		t.Errorf("Query n=2 = %v", ss)
	}
}

func TestMetricNamesSorted(t *testing.T) {
	db := New(0)
	_ = db.Append(pt("z", nil, 0, 1))
	_ = db.Append(pt("a", nil, 0, 1))
	names := db.MetricNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "z" {
		t.Errorf("MetricNames = %v", names)
	}
	if db.NumSeries() != 2 {
		t.Errorf("NumSeries = %d", db.NumSeries())
	}
}

func TestDownsample(t *testing.T) {
	s := telemetry.Series{Name: "m"}
	for i := 0; i < 10; i++ {
		s.Samples = append(s.Samples, telemetry.Sample{Time: time.Duration(i) * time.Second, Value: float64(i)})
	}
	d := downsample(s, 5*time.Second, AggMean)
	if len(d.Samples) != 2 {
		t.Fatalf("downsampled to %d buckets, want 2", len(d.Samples))
	}
	if d.Samples[0].Value != 2 { // mean(0..4)
		t.Errorf("bucket 0 = %v, want 2", d.Samples[0].Value)
	}
	if d.Samples[1].Value != 7 { // mean(5..9)
		t.Errorf("bucket 1 = %v, want 7", d.Samples[1].Value)
	}
	if d.Samples[0].Time != 5*time.Second {
		t.Errorf("bucket end = %v, want 5s", d.Samples[0].Time)
	}
}

func TestAggregations(t *testing.T) {
	vals := []float64{4, 1, 3, 2, 5}
	cases := []struct {
		agg  Agg
		want float64
	}{
		{AggMean, 3}, {AggSum, 15}, {AggMin, 1}, {AggMax, 5},
		{AggCount, 5}, {AggLast, 5}, {AggP50, 3},
	}
	for _, c := range cases {
		if got := c.agg.apply(append([]float64(nil), vals...)); got != c.want {
			t.Errorf("%v = %v, want %v", c.agg, got, c.want)
		}
	}
	if got := AggStddev.apply([]float64{2, 4, 4, 4, 5, 5, 7, 9}); math.Abs(got-2.138) > 0.01 {
		t.Errorf("stddev = %v, want ~2.138", got)
	}
	if !math.IsNaN(AggMean.apply(nil)) {
		t.Error("empty aggregation should be NaN")
	}
}

func TestPercentile(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := Percentile(vals, 0.5); got != 5.5 {
		t.Errorf("p50 = %v, want 5.5", got)
	}
	if got := Percentile(vals, 0); got != 1 {
		t.Errorf("p0 = %v, want 1", got)
	}
	if got := Percentile(vals, 1); got != 10 {
		t.Errorf("p100 = %v, want 10", got)
	}
	if !math.IsNaN(Percentile(nil, 0.5)) {
		t.Error("empty percentile should be NaN")
	}
	// input must not be mutated
	in := []float64{3, 1, 2}
	Percentile(in, 0.5)
	if in[0] != 3 {
		t.Error("Percentile mutated input")
	}
}

// Property: percentile is monotone in q and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, q1, q2 float64) bool {
		var vals []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		q1 = math.Abs(math.Mod(q1, 1))
		q2 = math.Abs(math.Mod(q2, 1))
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		lo, hi := Percentile(vals, 0), Percentile(vals, 1)
		p1, p2 := Percentile(vals, q1), Percentile(vals, q2)
		return p1 <= p2 && p1 >= lo && p2 <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRate(t *testing.T) {
	s := telemetry.Series{Samples: []telemetry.Sample{
		{Time: 0, Value: 0},
		{Time: 10 * time.Second, Value: 20},
	}}
	if got := Rate(s); got != 2 {
		t.Errorf("Rate = %v, want 2", got)
	}
	if got := Rate(telemetry.Series{}); got != 0 {
		t.Errorf("empty Rate = %v, want 0", got)
	}
	same := telemetry.Series{Samples: []telemetry.Sample{{Time: 5, Value: 1}, {Time: 5, Value: 2}}}
	if got := Rate(same); got != 0 {
		t.Errorf("zero-dt Rate = %v, want 0", got)
	}
}

func TestAggString(t *testing.T) {
	if AggP99.String() != "p99" || AggMean.String() != "mean" {
		t.Error("Agg.String")
	}
	if Agg(99).String() != "unknown" {
		t.Error("unknown Agg.String")
	}
}
