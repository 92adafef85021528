package tsdb

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"autoloop/internal/telemetry"
)

// ingestBatch builds one sampling round: 32 nodes × 8 metrics, the shape of
// a holistic monitoring sweep.
func ingestBatch(t time.Duration) []telemetry.Point {
	pts := make([]telemetry.Point, 0, 32*8)
	for n := 0; n < 32; n++ {
		labels := telemetry.Labels{"node": fmt.Sprintf("n%03d", n)}
		for m := 0; m < 8; m++ {
			pts = append(pts, telemetry.Point{
				Name:   fmt.Sprintf("node.metric%d", m),
				Labels: labels,
				Time:   t,
				Value:  float64(n * m),
			})
		}
	}
	return pts
}

// retime advances every point in the pre-built round to tick i, so the timed
// loop measures ingestion, not batch construction.
func retime(pts []telemetry.Point, i int) {
	t := time.Duration(i) * time.Second
	for j := range pts {
		pts[j].Time = t
	}
}

// BenchmarkTelemetryIngest measures one sampling round flowing into the
// TSDB through the batched single-lock path.
func BenchmarkTelemetryIngest(b *testing.B) {
	db := New(time.Hour)
	pts := ingestBatch(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		retime(pts, i)
		if err := db.AppendBatch(pts); err != nil {
			b.Fatal(err)
		}
	}
}

// highCardSetup ingests a 10k-series fleet (one metric, node+rack labels,
// 8 samples each) into both the DB and the linear-scan reference.
func highCardSetup(b *testing.B, series int) (*DB, *refDB, telemetry.Labels) {
	b.Helper()
	db := New(0)
	ref := newRefDB(0)
	for n := 0; n < series; n++ {
		labels := telemetry.Labels{
			"node": fmt.Sprintf("n%05d", n),
			"rack": fmt.Sprintf("r%03d", n/64),
		}
		for i := 0; i < 8; i++ {
			p := telemetry.Point{Name: "hc.load", Labels: labels, Time: time.Duration(i) * time.Second, Value: float64(n + i)}
			if err := db.Append(p); err != nil {
				b.Fatal(err)
			}
			if err := ref.append(p); err != nil {
				b.Fatal(err)
			}
		}
	}
	// One rack = 64 of the 10k series: a selective matcher.
	return db, ref, telemetry.Labels{"rack": "r003"}
}

// BenchmarkQueryMatcher measures a label-matcher query at 10k-series
// cardinality on the label-indexed store: the matcher resolves
// through rack=r003's posting lists instead of scanning every series of the
// metric. Compare against BenchmarkQueryMatcherLinear.
func BenchmarkQueryMatcher(b *testing.B) {
	db, _, matcher := highCardSetup(b, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := db.Query("hc.load", matcher, 0, time.Minute); len(got) != 64 {
			b.Fatalf("matched %d series, want 64", len(got))
		}
	}
}

// BenchmarkQueryMatcherLinear is the same query answered by the reference
// model's linear scan over all 10k series of the metric.
func BenchmarkQueryMatcherLinear(b *testing.B) {
	_, ref, matcher := highCardSetup(b, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := ref.query("hc.load", matcher, 0, time.Minute); len(got) != 64 {
			b.Fatalf("matched %d series, want 64", len(got))
		}
	}
}

// BenchmarkParallelAppend measures parallel appenders over a high-cardinality
// store: 10k background series plus 1k private series per appender
// goroutine. The appenders serialize on the store's one lock, so this is the
// per-point cost of Append under contention — a shape no deployment has
// (one pipeline appends per DB). Every point is resolved from its name and
// labels.
func BenchmarkParallelAppend(b *testing.B) { benchParallelAppend(b, false) }

// BenchmarkParallelAppendWarmRefs is the same workload with each private
// series' points carrying a telemetry.Ref, as the static collectors' do: the
// first lap resolves the memos, every later append skips the identity hash
// and the label comparison.
func BenchmarkParallelAppendWarmRefs(b *testing.B) { benchParallelAppend(b, true) }

func benchParallelAppend(b *testing.B, withRefs bool) {
	db := New(time.Hour)
	for n := 0; n < 10240; n++ {
		labels := telemetry.Labels{"node": fmt.Sprintf("bg%05d", n)}
		if err := db.Append(telemetry.Point{Name: "par.load", Labels: labels, Value: 1}); err != nil {
			b.Fatal(err)
		}
	}
	var gid atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		g := gid.Add(1)
		labels := make([]telemetry.Labels, 1024)
		for i := range labels {
			labels[i] = telemetry.Labels{"node": fmt.Sprintf("g%03d.n%04d", g, i)}
		}
		refs := make([]telemetry.Ref, len(labels))
		j := 0
		for pb.Next() {
			p := telemetry.Point{
				Name:   "par.load",
				Labels: labels[j%1024],
				Time:   time.Duration(1+j/1024) * time.Second,
				Value:  float64(j),
			}
			if withRefs {
				p.Ref = &refs[j%1024]
			}
			if err := db.Append(p); err != nil {
				b.Fatal(err)
			}
			j++
		}
	})
}

// BenchmarkTelemetryIngestPerPoint is the pre-batching baseline: one lock
// round-trip per point.
func BenchmarkTelemetryIngestPerPoint(b *testing.B) {
	db := New(time.Hour)
	pts := ingestBatch(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		retime(pts, i)
		for _, p := range pts {
			if err := db.Append(p); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// windowQuerySetup seeds a fleet-shaped store for the window-read
// benchmarks: 16 OSTs × 512 samples, the per-tick Analyze window of the
// storage loop.
func windowQuerySetup(b *testing.B) *DB {
	b.Helper()
	db := New(0)
	for s := 0; s < 16; s++ {
		labels := telemetry.Labels{"ost": fmt.Sprintf("ost%02d", s)}
		for i := 0; i < 512; i++ {
			if err := db.Append(telemetry.Point{
				Name: "pfs.ost.lat_ms", Labels: labels,
				Time: time.Duration(i) * time.Second, Value: float64(i % 37),
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
	return db
}

// BenchmarkWindowQuery measures one tick-time window read over the fleet:
// the materializing Query path (fresh []Series, label clones, and sample
// copies per call) against the zero-copy fill-buffer WindowInto path (same
// values, caller-owned buffer, zero allocations). The "into" row is the
// gated number.
func BenchmarkWindowQuery(b *testing.B) {
	b.Run("materialize", func(b *testing.B) {
		db := windowQuerySetup(b)
		b.ReportAllocs()
		b.ResetTimer()
		total := 0
		for i := 0; i < b.N; i++ {
			var n int
			for _, s := range db.Query("pfs.ost.lat_ms", nil, 0, time.Hour) {
				n += len(s.Samples)
			}
			total = n
		}
		if total != 16*512 {
			b.Fatalf("read %d samples, want %d", total, 16*512)
		}
	})
	b.Run("into", func(b *testing.B) {
		db := windowQuerySetup(b)
		var buf []float64
		buf = db.WindowInto(buf[:0], "pfs.ost.lat_ms", nil, 0, time.Hour)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = db.WindowInto(buf[:0], "pfs.ost.lat_ms", nil, 0, time.Hour)
		}
		if len(buf) != 16*512 {
			b.Fatalf("read %d values, want %d", len(buf), 16*512)
		}
	})
	b.Run("visit", func(b *testing.B) {
		db := windowQuerySetup(b)
		var total int
		visit := telemetry.SeriesVisitor(func(_ telemetry.Labels, samples []telemetry.Sample) {
			total += len(samples)
		})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			total = 0
			db.QueryVisit("pfs.ost.lat_ms", nil, 0, time.Hour, visit)
		}
		if total != 16*512 {
			b.Fatalf("visited %d samples, want %d", total, 16*512)
		}
	})
}
