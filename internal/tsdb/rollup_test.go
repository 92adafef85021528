package tsdb

import (
	"testing"
	"time"

	"autoloop/internal/telemetry"
)

func TestRollupMatchesDownsample(t *testing.T) {
	db := New(0)
	rule := RollupRule{Metric: "m", Step: 5 * time.Second, Agg: AggMean}
	if err := db.AddRollup(rule); err != nil {
		t.Fatal(err)
	}
	l := telemetry.Labels{"n": "1"}
	for i := 0; i < 23; i++ {
		if err := db.Append(pt("m", l, time.Duration(i)*time.Second, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	got, ok := db.QueryRollup("m", nil, 5*time.Second, AggMean, 0, time.Hour)
	if !ok || len(got) != 1 {
		t.Fatalf("QueryRollup = %v, %v", got, ok)
	}
	want := downsample(db.Query("m", nil, 0, time.Hour)[0], 5*time.Second, AggMean)
	if len(got[0].Samples) != len(want.Samples) {
		t.Fatalf("rollup has %d buckets, downsample %d", len(got[0].Samples), len(want.Samples))
	}
	for i := range want.Samples {
		if got[0].Samples[i] != want.Samples[i] {
			t.Errorf("bucket %d: rollup %v, downsample %v", i, got[0].Samples[i], want.Samples[i])
		}
	}
}

func TestRollupSurvivesRawRetention(t *testing.T) {
	db := New(30 * time.Second) // raw window: 30s
	rule := RollupRule{Metric: "m", Step: 10 * time.Second, Agg: AggMax}
	if err := db.AddRollup(rule); err != nil {
		t.Fatal(err)
	}
	l := telemetry.Labels{"n": "1"}
	for i := 0; i <= 300; i++ {
		if err := db.Append(pt("m", l, time.Duration(i)*time.Second, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	raw := db.Query("m", nil, 0, time.Hour)
	if first := raw[0].Samples[0].Time; first < 270*time.Second {
		t.Fatalf("raw retention kept %v, want >= 270s", first)
	}
	rolled, ok := db.QueryRollup("m", nil, 10*time.Second, AggMax, 0, time.Hour)
	if !ok || len(rolled) != 1 {
		t.Fatalf("QueryRollup = %v, %v", rolled, ok)
	}
	// The first flushed bucket covers t=0..9 (max 9), long expired from raw.
	if got := rolled[0].Samples[0]; got.Time != 10*time.Second || got.Value != 9 {
		t.Errorf("oldest rollup bucket = %v, want max 9 @10s", got)
	}
}

func TestRollupOwnRetention(t *testing.T) {
	db := New(0)
	rule := RollupRule{Metric: "m", Step: 2 * time.Second, Agg: AggLast, Retention: 10 * time.Second}
	if err := db.AddRollup(rule); err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= 60; i++ {
		_ = db.Append(pt("m", nil, time.Duration(i)*time.Second, float64(i)))
	}
	rolled, _ := db.QueryRollup("m", nil, 2*time.Second, AggLast, 0, time.Hour)
	if len(rolled) != 1 {
		t.Fatal("series missing")
	}
	first := rolled[0].Samples[0].Time
	if first < 50*time.Second {
		t.Errorf("rollup retention kept bucket at %v, want >= 50s", first)
	}
}

func TestRollupBackfillAndOverwrite(t *testing.T) {
	db := New(0)
	l := telemetry.Labels{"n": "1"}
	for i := 0; i < 8; i++ {
		_ = db.Append(pt("m", l, time.Duration(i)*time.Second, float64(i)))
	}
	// Register after ingestion: existing samples must be replayed.
	if err := db.AddRollup(RollupRule{Metric: "m", Step: 4 * time.Second, Agg: AggSum}); err != nil {
		t.Fatal(err)
	}
	// Overwrite the tail: the open bucket must track the newest value.
	if err := db.Append(pt("m", l, 7*time.Second, 100)); err != nil {
		t.Fatal(err)
	}
	rolled, _ := db.QueryRollup("m", nil, 4*time.Second, AggSum, 0, time.Hour)
	if len(rolled) != 1 || len(rolled[0].Samples) != 2 {
		t.Fatalf("rollup = %v", rolled)
	}
	if got := rolled[0].Samples[0].Value; got != 0+1+2+3 {
		t.Errorf("bucket 0 sum = %v, want 6", got)
	}
	if got := rolled[0].Samples[1].Value; got != 4+5+6+100 {
		t.Errorf("open bucket sum = %v, want 115 (overwrite applied)", got)
	}
}

func TestAddRollupValidation(t *testing.T) {
	db := New(0)
	if err := db.AddRollup(RollupRule{Metric: "", Step: time.Second}); err == nil {
		t.Error("want error for empty metric")
	}
	if err := db.AddRollup(RollupRule{Metric: "m", Step: 0}); err == nil {
		t.Error("want error for zero step")
	}
	rule := RollupRule{Metric: "m", Step: time.Second, Agg: AggMean}
	if err := db.AddRollup(rule); err != nil {
		t.Fatal(err)
	}
	if err := db.AddRollup(rule); err == nil {
		t.Error("want error for duplicate rule")
	}
	if got := len(db.rules); got != 1 {
		t.Errorf("rules = %d, want 1", got)
	}
	if _, ok := db.QueryRollup("m", nil, 2*time.Second, AggMean, 0, time.Hour); ok {
		t.Error("unregistered (metric, step, agg) must report ok=false")
	}
}

func TestParseAgg(t *testing.T) {
	for a := AggMean; a <= AggStddev; a++ {
		got, ok := ParseAgg(a.String())
		if !ok || got != a {
			t.Errorf("ParseAgg(%q) = %v, %v", a.String(), got, ok)
		}
	}
	if _, ok := ParseAgg("nope"); ok {
		t.Error("ParseAgg should reject unknown names")
	}
}

// downsample is the offline reference the continuous rollups are checked
// against: it buckets s into fixed windows of width step aligned to the
// epoch and reduces each non-empty bucket with agg. Bucket timestamps are
// the bucket end, so downsampled points never claim knowledge of the
// future.
func downsample(s telemetry.Series, step time.Duration, agg Agg) telemetry.Series {
	if step <= 0 || len(s.Samples) == 0 {
		return s
	}
	out := telemetry.Series{Name: s.Name, Labels: s.Labels}
	var bucket []float64
	bucketIdx := int64(-1)
	flush := func(idx int64) {
		if len(bucket) == 0 {
			return
		}
		end := time.Duration(idx+1) * step
		out.Samples = append(out.Samples, telemetry.Sample{Time: end, Value: agg.apply(bucket)})
		bucket = bucket[:0]
	}
	for _, smp := range s.Samples {
		idx := int64(smp.Time / step)
		if idx != bucketIdx {
			flush(bucketIdx)
			bucketIdx = idx
		}
		bucket = append(bucket, smp.Value)
	}
	flush(bucketIdx)
	return out
}
