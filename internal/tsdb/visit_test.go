package tsdb

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"autoloop/internal/telemetry"
)

// fillRandom seeds db with a randomized layout: several metrics, fleet-style
// label sets, random sample counts.
func fillRandom(t *testing.T, db *DB, rng *rand.Rand) {
	t.Helper()
	for m := 0; m < 4; m++ {
		name := fmt.Sprintf("m%d", m)
		series := 1 + rng.Intn(24)
		for s := 0; s < series; s++ {
			labels := telemetry.Labels{"node": fmt.Sprintf("n%03d", s)}
			if rng.Intn(3) == 0 {
				labels["rack"] = fmt.Sprintf("r%d", s%3)
			}
			samples := rng.Intn(50)
			for i := 0; i < samples; i++ {
				if err := db.Append(telemetry.Point{
					Name: name, Labels: labels,
					Time:  time.Duration(i) * time.Second,
					Value: rng.NormFloat64(),
				}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// fillFleet seeds db with one metric ("m0") of n series, two samples each, appended in a stride permutation of the node index — the
// shape of stress10k's per-node metrics, in non-key order.
func fillFleet(t *testing.T, db *DB, n int) {
	t.Helper()
	const stride = 7919 // prime, so i*stride%n visits every index once for n not a multiple of it
	for i := 0; i < n; i++ {
		node := i * stride % n
		labels := telemetry.Labels{"node": fmt.Sprintf("n%05d", node), "rack": fmt.Sprintf("r%d", node%3)}
		for k := 0; k < 2; k++ {
			if err := db.Append(telemetry.Point{
				Name: "m0", Labels: labels, Time: time.Duration(k) * time.Second, Value: float64(node + k),
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// fleetSize is the series count stress10k runs the ordering helper at.
const fleetSize = 10240

// TestWindowIntoMatchesQuery checks, over randomized stores, matchers, and
// ranges, and over one fleet-sized store, that WindowInto appends exactly
// the concatenation of Query's series values in label-key order, and
// QueryVisit visits exactly Query's series set.
func TestWindowIntoMatchesQuery(t *testing.T) {
	compare := func(label string, db *DB, name string, matcher telemetry.Labels, from, to time.Duration) {
		var want []float64
		ss := db.Query(name, matcher, from, to)
		for _, s := range ss {
			for _, smp := range s.Samples {
				want = append(want, smp.Value)
			}
		}
		got := db.WindowInto(nil, name, matcher, from, to)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s %s%v [%v,%v]: WindowInto=%v want %v", label, name, matcher, from, to, got, want)
		}
		// Appending must preserve the prefix.
		prefix := []float64{1, 2, 3}
		got2 := db.WindowInto(prefix, name, matcher, from, to)
		if fmt.Sprint(got2[:3]) != fmt.Sprint(prefix) || fmt.Sprint(got2[3:]) != fmt.Sprint(want) {
			t.Fatalf("%s: WindowInto with prefix = %v", label, got2)
		}

		// QueryVisit covers the same series set with the same samples.
		visited := map[string][]telemetry.Sample{}
		db.QueryVisit(name, matcher, from, to, func(labels telemetry.Labels, samples []telemetry.Sample) {
			cp := make([]telemetry.Sample, len(samples))
			copy(cp, samples)
			visited[labels.Key()] = cp
		})
		if len(visited) != len(ss) {
			t.Fatalf("%s: QueryVisit visited %d series, Query returned %d", label, len(visited), len(ss))
		}
		for _, s := range ss {
			if fmt.Sprint(visited[s.Labels.Key()]) != fmt.Sprint(s.Samples) {
				t.Fatalf("%s: QueryVisit samples for %v = %v, want %v",
					label, s.Labels, visited[s.Labels.Key()], s.Samples)
			}
		}
	}

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		db := New(0)
		fillRandom(t, db, rng)
		matchers := []telemetry.Labels{nil, {"rack": "r1"}, {"node": "n002"}, {"nope": "x"}}
		for m := 0; m < 4; m++ {
			matcher := matchers[rng.Intn(len(matchers))]
			from := time.Duration(rng.Intn(30)) * time.Second
			to := from + time.Duration(rng.Intn(30))*time.Second
			compare(fmt.Sprintf("trial %d", trial), db, fmt.Sprintf("m%d", m), matcher, from, to)
		}
	}

	db := New(0)
	fillFleet(t, db, fleetSize)
	if got := len(db.WindowInto(nil, "m0", nil, 0, time.Hour)); got != 2*fleetSize {
		t.Fatalf("fleet: WindowInto returned %d values, want %d", got, 2*fleetSize)
	}
	compare("fleet", db, "m0", nil, 0, time.Hour)
	compare("fleet rack", db, "m0", telemetry.Labels{"rack": "r1"}, time.Second, time.Second)
}

// TestLatestIntoMatchesLatest checks LatestInto against Latest on randomized
// stores and on one fleet-sized store: same points, same label-key order,
// prefix preserved.
func TestLatestIntoMatchesLatest(t *testing.T) {
	compare := func(label string, db *DB, name string, matcher telemetry.Labels) int {
		want := db.Latest(name, matcher)
		got := db.LatestInto(nil, name, matcher)
		if len(got) != len(want) {
			t.Fatalf("%s: LatestInto %d points, Latest %d", label, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Time != want[i].Time || got[i].Value != want[i].Value ||
				got[i].Labels.Key() != want[i].Labels.Key() {
				t.Fatalf("%s point %d: %+v want %+v", label, i, got[i], want[i])
			}
		}
		if !sort.SliceIsSorted(got, func(a, b int) bool { return got[a].Labels.Key() < got[b].Labels.Key() }) {
			t.Fatalf("%s: LatestInto not in label-key order", label)
		}
		return len(got)
	}

	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		db := New(0)
		fillRandom(t, db, rng)
		for m := 0; m < 4; m++ {
			matcher := []telemetry.Labels{nil, {"rack": "r0"}}[rng.Intn(2)]
			compare(fmt.Sprintf("trial %d", trial), db, fmt.Sprintf("m%d", m), matcher)
		}
	}

	db := New(0)
	fillFleet(t, db, fleetSize)
	if n := compare("fleet", db, "m0", nil); n != fleetSize {
		t.Fatalf("fleet: LatestInto returned %d points, want %d", n, fleetSize)
	}
	compare("fleet rack", db, "m0", telemetry.Labels{"rack": "r0"})
}

// TestVisitSurfaceAllocs is the steady-state allocation gate for the
// fill-buffer query surface: with warm buffers, WindowInto, LatestInto, and
// QueryVisit allocate nothing per call.
func TestVisitSurfaceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the gate runs in the non-race jobs")
	}
	db := New(0)
	for s := 0; s < 16; s++ {
		labels := telemetry.Labels{"ost": fmt.Sprintf("ost%02d", s)}
		for i := 0; i < 256; i++ {
			if err := db.Append(telemetry.Point{Name: "lat", Labels: labels, Time: time.Duration(i) * time.Second, Value: float64(i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	var vals []float64
	var pts []telemetry.Point
	// Warm the buffers once.
	vals = db.WindowInto(vals[:0], "lat", nil, 0, time.Hour)
	pts = db.LatestInto(pts[:0], "lat", nil)

	if allocs := testing.AllocsPerRun(100, func() {
		vals = db.WindowInto(vals[:0], "lat", nil, 0, time.Hour)
	}); allocs != 0 {
		t.Errorf("WindowInto allocates %v per call; want 0", allocs)
	}
	if len(vals) != 16*256 {
		t.Fatalf("WindowInto returned %d values, want %d", len(vals), 16*256)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		pts = db.LatestInto(pts[:0], "lat", nil)
	}); allocs != 0 {
		t.Errorf("LatestInto allocates %v per call; want 0", allocs)
	}
	var sum float64
	visit := telemetry.SeriesVisitor(func(_ telemetry.Labels, samples []telemetry.Sample) {
		sum += samples[len(samples)-1].Value
	})
	if allocs := testing.AllocsPerRun(100, func() {
		db.QueryVisit("lat", nil, 0, time.Hour, visit)
	}); allocs != 0 {
		t.Errorf("QueryVisit allocates %v per call; want 0", allocs)
	}
	if sum == 0 {
		t.Error("QueryVisit visited nothing")
	}
}

// TestHandleReadAllocs gates the handle read: once a handle's memo is left,
// LatestValue through it allocates nothing, and a series created in its
// metric costs one re-resolution, after which reads are free again.
func TestHandleReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the gate runs in the non-race jobs")
	}
	db := New(0)
	appendOne := func(ost string, v float64) {
		if err := db.Append(telemetry.Point{Name: "lat", Labels: telemetry.Labels{"ost": ost, "rack": "r0"}, Value: v}); err != nil {
			t.Fatal(err)
		}
	}
	appendOne("ost00", 1)
	h := &telemetry.Handle{Name: "lat", Matcher: telemetry.Labels{"rack": "r0"}}
	read := func() float64 {
		v, ok := db.LatestValue(h)
		if !ok {
			t.Fatal("handle read found nothing")
		}
		return v
	}
	read()
	if allocs := testing.AllocsPerRun(100, func() { read() }); allocs != 0 {
		t.Errorf("a handle read on a valid memo allocates %v; want 0", allocs)
	}
	appendOne("ost01", 2)
	if v := read(); v != 2 {
		t.Fatalf("after a later match was created the handle read %v, want 2", v)
	}
	if allocs := testing.AllocsPerRun(100, func() { read() }); allocs != 0 {
		t.Errorf("a handle read on a re-resolved memo allocates %v; want 0", allocs)
	}
}
