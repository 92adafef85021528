package tsdb

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"autoloop/internal/telemetry"
)

// logOf returns a log holding samples, pushed in order.
func logOf(samples []telemetry.Sample) *sampleLog {
	l := new(sampleLog)
	for _, smp := range samples {
		l.push(smp)
	}
	return l
}

// all returns a copy of the log's live samples.
func (l *sampleLog) all() []telemetry.Sample { return l.appendTo(nil, 0, l.len()) }

// edgeWindows returns [from, to] windows around every chunk boundary of l:
// starting, ending and straddling exactly on it, a point window on either
// side of it, and an empty one between its two samples; plus the whole log.
// Samples are assumed a whole second or more apart.
func edgeWindows(l *sampleLog) [][2]time.Duration {
	var out [][2]time.Duration
	n := l.len()
	if n == 0 {
		return [][2]time.Duration{{0, time.Hour}}
	}
	first, last := l.at(0).Time, l.last().Time
	out = append(out, [2]time.Duration{first, last}, [2]time.Duration{first - time.Second, last + time.Second})
	// Live index i is a chunk's first slot when head+i is a multiple of
	// chunkSize.
	for i := (chunkSize - int(l.head)) % chunkSize; i < n; i += chunkSize {
		if i == 0 {
			continue
		}
		b, prev := l.at(i).Time, l.at(i-1).Time
		out = append(out,
			[2]time.Duration{b, b},                                    // the chunk's first sample alone
			[2]time.Duration{prev, prev},                              // the previous chunk's last alone
			[2]time.Duration{prev, b},                                 // straddles the boundary
			[2]time.Duration{b, b + 40*time.Second},                   // starts on it
			[2]time.Duration{b - 40*time.Second, prev},                // ends on it
			[2]time.Duration{prev + time.Second/2, b - time.Second/2}, // between the two: empty
		)
	}
	return out
}

// sliceWindow is the linear-scan reference for a window of a sample slice.
func sliceWindow(samples []telemetry.Sample, from, to time.Duration) []telemetry.Sample {
	var out []telemetry.Sample
	for _, smp := range samples {
		if smp.Time >= from && smp.Time <= to {
			out = append(out, smp)
		}
	}
	return out
}

// TestSampleLogMatchesSlice drives a sampleLog and a plain slice through
// the same pushes, tail overwrites and retention cuts — cuts landing on,
// before and after chunk boundaries, and ones that expire several whole
// chunks at once — and demands the same samples, the same window for every
// boundary-edge window, and the layout invariant after every step.
func TestSampleLogMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var l sampleLog
	var ref []telemetry.Sample
	next := time.Second
	check := func(step int, what string) {
		t.Helper()
		if got := l.all(); !slices.Equal(got, ref) {
			t.Fatalf("step %d (%s): log holds %v, want %v", step, what, got, ref)
		}
		if l.len() > 0 {
			if l.head >= chunkSize {
				t.Fatalf("step %d (%s): head %d past the first chunk", step, what, l.head)
			}
			if want := (int(l.head) + l.len() + chunkSize - 1) / chunkSize; len(l.chunks) != want {
				t.Fatalf("step %d (%s): %d chunks for head %d + %d samples, want %d", step, what, len(l.chunks), l.head, l.len(), want)
			}
			if *l.last() != ref[len(ref)-1] {
				t.Fatalf("step %d (%s): last = %v, want %v", step, what, *l.last(), ref[len(ref)-1])
			}
		}
		for _, w := range edgeWindows(&l) {
			lo, hi := l.bounds(w[0], w[1])
			if got, want := l.appendTo(nil, lo, hi), sliceWindow(ref, w[0], w[1]); !slices.Equal(got, want) {
				t.Fatalf("step %d (%s): window %v holds %v, want %v", step, what, w, got, want)
			}
		}
	}
	for step := 0; step < 600; step++ {
		switch r := rng.Intn(10); {
		case r < 6:
			for range rng.Intn(3 * chunkSize) {
				smp := telemetry.Sample{Time: next, Value: float64(next / time.Second)}
				l.push(smp)
				ref = append(ref, smp)
				next += time.Duration(1+rng.Intn(2)) * time.Second
			}
			check(step, "push")
		case r < 7 && len(ref) > 0:
			l.last().Value = -float64(step)
			ref[len(ref)-1].Value = -float64(step)
			check(step, "overwrite")
		case len(ref) > 0:
			// Cut at a chunk's first sample, one either side of it, or
			// anywhere.
			var cutoff time.Duration
			switch i := rng.Intn(len(ref)); rng.Intn(4) {
			case 0:
				cutoff = ref[i].Time
			default:
				b := max(0, min(len(ref)-1, i-(int(l.head)+i)%chunkSize+chunkSize*rng.Intn(3)))
				cutoff = ref[b].Time + time.Duration(rng.Intn(3)-1)*time.Second/2
			}
			l.truncateBefore(cutoff)
			ref = slices.DeleteFunc(ref, func(smp telemetry.Sample) bool { return smp.Time < cutoff })
			check(step, fmt.Sprintf("cut before %v", cutoff))
		}
	}
}

// TestSampleLogReusesExpiredChunks checks that retention parks the chunks
// it empties and that push refills them: a log sliding under retention
// allocates nothing once warm, and holds the same chunks throughout.
func TestSampleLogReusesExpiredChunks(t *testing.T) {
	var l sampleLog
	for i := range 4 * chunkSize {
		l.push(telemetry.Sample{Time: time.Duration(i)})
	}
	expired := slices.Clone(l.chunks[:3])
	l.truncateBefore(3*chunkSize + 1) // three whole chunks and one sample
	if len(l.chunks) != 1 || l.head != 1 || l.len() != chunkSize-1 {
		t.Fatalf("after the cut: %d chunks, head %d, %d samples; want 1, 1, %d", len(l.chunks), l.head, l.len(), chunkSize-1)
	}
	for i := range 3 * chunkSize {
		l.push(telemetry.Sample{Time: time.Duration(4*chunkSize + i)})
	}
	for _, c := range expired {
		if !slices.Contains(l.chunks, c) {
			t.Fatal("an expired chunk was not reused; push allocated a new one")
		}
	}
	if raceEnabled {
		return // the alloc gate below runs in the non-race jobs
	}
	next := time.Duration(7 * chunkSize)
	if allocs := testing.AllocsPerRun(100, func() {
		for range chunkSize {
			l.push(telemetry.Sample{Time: next})
			next++
			l.truncateBefore(next - 2*chunkSize - 5)
		}
	}); allocs != 0 {
		t.Errorf("a log sliding under retention allocates %v per chunk of samples; want 0", allocs)
	}
}

// TestStoreChunkEdges is TestStoreMatchesReference's sibling for the chunk
// layout: a few series several chunks long, driven against the reference
// with and without retention, with a tail overwrite whenever a series'
// newest sample lands on a chunk's first slot, and rollup logs longer than
// one chunk, one of them cut by its own retention. After every round, every
// boundary-edge window of every series (edgeWindows) must read the same
// through Query, QueryVisit and WindowInto as the reference's, and at the
// end a snapshot must restore to the same store.
func TestStoreChunkEdges(t *testing.T) {
	for _, retention := range []time.Duration{0, 100 * time.Second, 64 * time.Second} {
		t.Run(fmt.Sprintf("retention=%v", retention), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(retention) + 1))
			db := New(retention)
			ref := newRefDB(retention)
			long := RollupRule{Metric: "m", Step: 2 * time.Second, Agg: AggMax}
			cut := RollupRule{Metric: "m", Step: 3 * time.Second, Agg: AggMean, Retention: 150 * time.Second}
			for _, r := range []RollupRule{long, cut} {
				if err := db.AddRollup(r); err != nil {
					t.Fatal(err)
				}
			}
			nodes := []string{"a", "b", "c"}
			at := map[string]time.Duration{}
			overwrites := 0
			for round := 0; round < 40; round++ {
				for _, node := range nodes {
					labels := telemetry.Labels{"node": node}
					// At least one point a round, so the first round creates
					// the series in nodes' order, the family's label-key order.
					for range 1 + rng.Intn(2*chunkSize) {
						at[node] += time.Duration(1+rng.Intn(2)) * time.Second
						p := telemetry.Point{Name: "m", Labels: labels, Time: at[node], Value: float64(rng.Intn(1000))}
						if err := db.Append(p); err != nil {
							t.Fatal(err)
						}
						if err := ref.append(p); err != nil {
							t.Fatal(err)
						}
						s := db.byName["m"].series[slices.IndexFunc(nodes, func(n string) bool { return n == node })]
						if (int(s.head)+s.len()-1)%chunkSize == 0 {
							p.Value = -p.Value - 1
							if err := db.Append(p); err != nil {
								t.Fatal(err)
							}
							if err := ref.append(p); err != nil {
								t.Fatal(err)
							}
							overwrites++
						}
					}
				}
				for i, s := range db.byName["m"].series {
					matcher := telemetry.Labels{"node": nodes[i]}
					for _, w := range edgeWindows(&s.sampleLog) {
						want := ref.query("m", matcher, w[0], w[1])
						if got := db.Query("m", matcher, w[0], w[1]); !reflect.DeepEqual(got, want) {
							t.Fatalf("round %d: Query %s %v:\n got %v\nwant %v", round, nodes[i], w, got, want)
						}
						var visited []telemetry.Sample
						db.QueryVisit("m", matcher, w[0], w[1], func(_ telemetry.Labels, samples []telemetry.Sample) {
							visited = append(visited, samples...)
						})
						var wantSamples []telemetry.Sample
						var wantVals []float64
						if len(want) == 1 {
							wantSamples = want[0].Samples
							for _, smp := range wantSamples {
								wantVals = append(wantVals, smp.Value)
							}
						}
						if !slices.Equal(visited, wantSamples) {
							t.Fatalf("round %d: QueryVisit %s %v = %v, want %v", round, nodes[i], w, visited, wantSamples)
						}
						if got := db.WindowInto(nil, "m", matcher, w[0], w[1]); !slices.Equal(got, wantVals) {
							t.Fatalf("round %d: WindowInto %s %v = %v, want %v", round, nodes[i], w, got, wantVals)
						}
					}
				}
				if !reflect.DeepEqual(db.Latest("m", nil), ref.latest("m", nil)) {
					t.Fatalf("round %d: Latest = %v, want %v", round, db.Latest("m", nil), ref.latest("m", nil))
				}
			}
			if overwrites == 0 {
				t.Fatal("the workload never overwrote a chunk's first slot")
			}
			// The rollup logs: the retention-free one against the offline
			// reference, the cut one against the reference's last buckets.
			got, _ := db.QueryRollup("m", nil, long.Step, long.Agg, 0, time.Hour)
			if want := ref.queryRollup("m", nil, long.Step, long.Agg, 0, time.Hour); !reflect.DeepEqual(got, want) {
				t.Fatalf("rollup %v:\n got %v\nwant %v", long, got, want)
			}
			got, _ = db.QueryRollup("m", nil, cut.Step, cut.Agg, 0, time.Hour)
			full := ref.queryRollup("m", nil, cut.Step, cut.Agg, 0, time.Hour)
			for i, s := range db.byName["m"].series {
				var sr *seriesRollup
				for _, r := range s.rollups {
					if r.rule.same(cut) {
						sr = r
					}
				}
				if sr.len() <= chunkSize || len(full[i].Samples) <= sr.len()+chunkSize {
					t.Fatalf("%s: rollup log holds %d of %d buckets; the test wants one longer than a chunk with a chunk or more cut", nodes[i], sr.len(), len(full[i].Samples))
				}
				// Every flushed bucket since the newest flushed end minus
				// the rule's retention, then the open bucket.
				buckets := full[i].Samples
				cutoff := buckets[len(buckets)-2].Time - cut.Retention
				want := slices.DeleteFunc(slices.Clone(buckets), func(smp telemetry.Sample) bool { return smp.Time < cutoff })
				if !slices.Equal(got[i].Samples, want) {
					t.Fatalf("%s: rollup %v:\n got %v\nwant %v", nodes[i], cut, got[i].Samples, want)
				}
			}
			// A snapshot of chunked, partly expired logs restores to the
			// same store and encodes to the same bytes again.
			snap, err := db.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			restored := New(retention)
			for _, r := range []RollupRule{long, cut} {
				if err := restored.AddRollup(r); err != nil {
					t.Fatal(err)
				}
			}
			if err := restored.RestoreSnapshot(snap); err != nil {
				t.Fatal(err)
			}
			if a, b := dumpDB(t, db), dumpDB(t, restored); !bytes.Equal(a, b) {
				t.Fatal("the restored store differs from the snapshotted one")
			}
			if again, err := restored.Snapshot(); err != nil || !bytes.Equal(again, snap) {
				t.Fatalf("the restored store's snapshot (err=%v) differs from the one it was restored from", err)
			}
		})
	}
}

// TestQueryVisitStraddleAllocs gates the chunk-spanning read: a warm
// QueryVisit whose windows straddle chunk boundaries assembles each in the
// pooled scratch buffer, allocating nothing, and hands the visitor the
// window's samples in order.
func TestQueryVisitStraddleAllocs(t *testing.T) {
	db := New(0)
	for s := range 4 {
		labels := telemetry.Labels{"node": fmt.Sprintf("n%d", s)}
		for i := range 3 * chunkSize {
			if err := db.Append(telemetry.Point{Name: "m", Labels: labels, Time: time.Duration(i) * time.Second, Value: float64(i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Samples 20..70: the tail of chunk 0, all of chunk 1, the head of 2.
	from, to := 20*time.Second, 70*time.Second
	bad := 0
	visit := telemetry.SeriesVisitor(func(_ telemetry.Labels, samples []telemetry.Sample) {
		if len(samples) != 51 {
			bad++
			return
		}
		for i, smp := range samples {
			if smp.Value != float64(20+i) {
				bad++
			}
		}
	})
	db.QueryVisit("m", nil, from, to, visit)
	if bad != 0 {
		t.Fatalf("QueryVisit handed %d wrong samples or windows", bad)
	}
	if raceEnabled {
		t.Skip("race instrumentation allocates; the gate runs in the non-race jobs")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		db.QueryVisit("m", nil, from, to, visit)
	}); allocs != 0 {
		t.Errorf("a warm QueryVisit over chunk-straddling windows allocates %v per call; want 0", allocs)
	}
}
