package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"autoloop/internal/gateway"
	"autoloop/internal/telemetry"
	"autoloop/internal/tsdb"
	"autoloop/internal/wal"
)

// durable-serve hand-wires the daemon shape once more — WAL, rollups, bus
// fan-out, gateway, snapshots over an assembled scenario — because modad's
// own wiring is not importable. It should shrink to a call when the repo has
// one assembler (ROADMAP item 2a).

const (
	snapshotName = "bench"
	queryRate    = 50.0 // durable-serve's open-loop rate, requests per second
	// snapshotEvery is the share of the horizon between snapshots: one, at
	// the midpoint. The store keeps every sample, so a snapshot's cost grows
	// with the horizon behind it; more of them and the run phase is mostly
	// serializing and fsyncing snapshots, at the disk's mercy.
	snapshotEvery = 2
)

// modadRollups are the three continuous rollups modad registers.
var modadRollups = []tsdb.RollupRule{
	{Metric: "node.temp.celsius", Step: 5 * time.Minute, Agg: tsdb.AggMean, Retention: 24 * time.Hour},
	{Metric: "facility.pue", Step: 5 * time.Minute, Agg: tsdb.AggMean, Retention: 24 * time.Hour},
	{Metric: "pfs.ost.lat_ms", Step: 5 * time.Minute, Agg: tsdb.AggP95, Retention: 24 * time.Hour},
}

type durableRig struct {
	it *iter
	n  *node

	dir   string
	fs    *timedFS // traced only
	w     *wal.WAL
	front *front
	sse   *sseReader
	snaps struct {
		n     int
		bytes uint64
		err   error
	}
}

func (r *durableRig) walOptions() wal.Options {
	// The writer runs flat out on virtual time, far faster than the daemon's
	// wall-clock pacing, so the group-commit backlog gets room a real
	// deployment would never need; a backlog reject would be a failed round.
	opt := wal.Options{Sync: wal.SyncBatch, MaxBacklog: 256 << 20}
	if r.fs != nil {
		opt.FS = r.fs
	}
	return opt
}

func (r *durableRig) setup() error {
	it := r.it
	spec, err := loadSpec(it)
	if err != nil {
		return err
	}
	t0 := time.Now()
	if r.n, err = assemble(it, spec, "modad"); err != nil {
		return err
	}
	assembled := time.Since(t0)
	rt := r.n.rt
	for _, rule := range modadRollups {
		if err := rt.DB.AddRollup(rule); err != nil {
			return err
		}
	}
	if r.dir, err = os.MkdirTemp(it.tw.scratch, "wal-"); err != nil {
		return err
	}
	if it.rec != nil {
		r.fs = &timedFS{}
	}
	if r.w, err = wal.Open(r.dir, r.walOptions()); err != nil {
		return err
	}
	var j tsdb.Journaler = r.w
	if it.tw.wrapJournal != nil {
		j = it.tw.wrapJournal(j)
	}
	if it.rec != nil {
		j = &timedJournal{rec: it.rec, inner: j}
	}
	rt.DB.Journal(j)

	var store gateway.Store = rt.DB
	if it.rec != nil {
		store = timedStore{Store: rt.DB, rec: it.rec}
	}
	gw := gateway.New(gateway.Options{Store: store, Control: rt.Ctl, Bus: rt.Bus, Pipeline: rt.Pipe, WAL: r.w})
	r.front, err = serveGateway(it, gw, &queryClient{
		rate: queryRate, vnow: &r.n.vnow,
		next: serveMix(spec.Facility.Nodes, spec.Facility.NodesPerRack),
	})
	if err != nil {
		return err
	}
	if r.sse, err = openSSE(r.front.base + "/v1/stream?topics=loop.*"); err != nil {
		return err
	}

	// Snapshots fall between sampling rounds, so none of their cost lands
	// inside a round's reaction time; the crash comes before a last one could.
	horizon := spec.Horizon.D()
	sample, _ := cadence(spec)
	every := horizon / snapshotEvery
	rt.Engine.Every(every+sample/2, every, func() bool {
		if rt.Engine.Now() >= horizon {
			return false
		}
		if err := r.snapshot(); err != nil && r.snaps.err == nil {
			r.snaps.err = err
		}
		return true
	})

	if it.rec != nil {
		spawnCost(it, spec, assembled)
	}
	return nil
}

// snapshot is modad's: sync so the snapshot never claims buffered records,
// serialize the store, write it atomically, drop the segments it covers.
func (r *durableRig) snapshot() error {
	var id int32
	if rec := r.it.rec; rec != nil {
		id = rec.begin(spanSnapshot)
		defer rec.end(id)
	}
	if err := r.w.Sync(); err != nil {
		return err
	}
	seq := r.w.LastSeq()
	payload, err := r.n.rt.DB.Snapshot()
	if err != nil {
		return err
	}
	if err := wal.WriteSnapshot(r.dir, snapshotName, seq, payload); err != nil {
		return err
	}
	removed, err := r.w.Compact(seq + 1)
	r.snaps.n++
	r.snaps.bytes += uint64(len(payload))
	if r.it.rec != nil {
		r.it.res.layers["wal.compacted_segments"] += float64(removed)
	}
	return err
}

func (r *durableRig) run() {
	r.front.during(func() {
		r.it.measure(func() { r.n.rt.Engine.RunUntil(r.n.spec.Horizon.D()) })
	})
}

func (r *durableRig) finish() error {
	it, res := r.it, r.it.res
	r.n.score()
	r.front.fold(res)
	res.check(r.snaps.err == nil, "snapshot: %v", r.snaps.err)
	// Every loop event the hub fanned out and did not drop reached the one
	// subscriber.
	gs := r.front.gw.Stats()
	delivered := int64(gs.StreamEvents - gs.StreamDropped)
	r.sse.waitFor(delivered, 2*time.Second)
	res.check(r.sse.events.Load() == delivered, "sse subscriber read %d events, hub delivered %d", r.sse.events.Load(), delivered)

	// Crash: make what was appended durable, then walk away from the live
	// handles without closing them, as kill -9 would.
	if err := r.w.Sync(); err != nil {
		return fmt.Errorf("sync before crash: %w", err)
	}
	wm := r.w.Metrics()
	res.diskBytes = wm.Bytes + r.snaps.bytes
	want := digestOf(r.n.rt.DB, r.n.spec.Horizon.D())

	rec, err := r.recover()
	if err != nil {
		res.check(false, "recover: %v", err)
		return nil
	}
	res.recover = rec.total
	got := digestOf(rec.db, r.n.spec.Horizon.D())
	res.check(got == want, "recovered store differs from the pre-crash store: %+v, want %+v", got, want)

	if it.rec != nil {
		l := res.layers
		l["wal.records"] = float64(wm.Appends)
		l["wal.bytes"] = float64(wm.Bytes)
		l["wal.fsyncs"] = float64(wm.Syncs)
		l["wal.sync_s"] = time.Duration(r.fs.syncNS.Load()).Seconds()
		l["wal.snapshot_bytes"] = float64(r.snaps.bytes)
		l["wal.replay_s"] = rec.replay.Seconds()
		l["wal.replay_records"] = float64(rec.records)
		l["tsdb.restore_s"] = rec.restore.Seconds()
		l["tsdb.applywal_ns"] = float64(rec.replay)
		l["tsdb.applywal_points"] = float64(rec.db.Appended()) - float64(rec.snapAppended)
		l["gateway.sse_events"] = float64(gs.StreamEvents)
		l["gateway.sse_dropped"] = float64(gs.StreamDropped)
	}
	return nil
}

// recovery is what reopening the directory produced and what it cost.
type recovery struct {
	db           *tsdb.DB
	total        time.Duration
	restore      time.Duration
	replay       time.Duration
	records      int
	snapAppended uint64
}

// recover reopens the WAL directory the way a restarted daemon does: newest
// snapshot into a fresh store, the log tail replayed over it, and one query
// answered through a gateway built on the result.
func (r *durableRig) recover() (*recovery, error) {
	t0 := time.Now()
	w2, err := wal.Open(r.dir, wal.Options{Sync: wal.SyncBatch})
	if err != nil {
		return nil, err
	}
	defer w2.Close()
	db := tsdb.New(0)
	for _, rule := range modadRollups {
		if err := db.AddRollup(rule); err != nil {
			return nil, err
		}
	}
	rec := &recovery{db: db}
	payload, seq, ok, err := wal.LatestSnapshot(r.dir, snapshotName)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("no snapshot found in %s", r.dir)
	}
	t1 := time.Now()
	if err := db.RestoreSnapshot(payload); err != nil {
		return nil, err
	}
	rec.restore = time.Since(t1)
	rec.snapAppended = db.Appended()

	t2 := time.Now()
	rd, err := w2.Replay(seq + 1)
	if err != nil {
		return nil, err
	}
	counted := &countingSource{src: rd}
	err = db.RestoreFrom(counted)
	rd.Close()
	if err != nil {
		return nil, err
	}
	rec.replay = time.Since(t2)
	rec.records = counted.n

	gw := gateway.New(gateway.Options{Store: db})
	rr := httptest.NewRecorder()
	gw.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/v1/query?metric=facility.pue&latest=true", nil))
	if rr.Code != http.StatusOK {
		return nil, fmt.Errorf("first query after recovery: status %d: %s", rr.Code, rr.Body.String())
	}
	if err := validate(queryPlan{series: 1, toMS: -1}, rr.Body.Bytes()); err != nil {
		return nil, fmt.Errorf("first query after recovery: %w", err)
	}
	rec.total = time.Since(t0)
	return rec, nil
}

// countingSource counts the records a replay hands to the store.
type countingSource struct {
	src tsdb.ReplaySource
	n   int
}

func (c *countingSource) Next() (wal.Record, error) {
	rec, err := c.src.Next()
	if err == nil {
		c.n++
	}
	return rec, err
}

// storeDigest identifies a store's contents independent of shard placement
// and visit order.
type storeDigest struct {
	Series   int
	Appended uint64
	Sum      uint64
}

func digestOf(db *tsdb.DB, horizon time.Duration) storeDigest {
	d := storeDigest{Series: db.NumSeries(), Appended: db.Appended()}
	for _, metric := range db.MetricNames() {
		db.QueryVisit(metric, nil, 0, horizon+time.Hour, func(labels telemetry.Labels, samples []telemetry.Sample) {
			h := fnv.New64a()
			h.Write([]byte(metric))
			keys := make([]string, 0, len(labels))
			for k := range labels {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				h.Write([]byte(k))
				h.Write([]byte{0})
				h.Write([]byte(labels[k]))
				h.Write([]byte{0})
			}
			var buf [16]byte
			for _, s := range samples {
				binary.LittleEndian.PutUint64(buf[:8], uint64(s.Time))
				binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(s.Value))
				h.Write(buf[:])
			}
			d.Sum += h.Sum64() // addition commutes, so visit order cannot matter
		})
	}
	return d
}

func (r *durableRig) close() {
	if r.sse != nil {
		r.sse.close()
	}
	if r.front != nil {
		r.front.close()
	}
	if r.w != nil {
		_ = r.w.Close() // stops the abandoned log's committer; nothing is left to flush
	}
	if r.dir != "" {
		_ = os.RemoveAll(r.dir)
	}
}

// sseReader is the one live subscriber: it reads the stream and counts
// event frames.
type sseReader struct {
	cancel context.CancelFunc
	events atomic.Int64
	done   chan struct{}
}

func openSSE(url string) (*sseReader, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		cancel()
		return nil, err
	}
	tr := &http.Transport{}
	resp, err := tr.RoundTrip(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("sse subscribe: status %d", resp.StatusCode)
	}
	s := &sseReader{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		defer tr.CloseIdleConnections()
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			if line := sc.Bytes(); len(line) > 4 && string(line[:4]) == "id: " {
				s.events.Add(1)
			}
		}
	}()
	return s, nil
}

// waitFor gives the stream a moment to drain what the hub already queued.
func (s *sseReader) waitFor(n int64, limit time.Duration) {
	deadline := time.Now().Add(limit)
	for s.events.Load() < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}

func (s *sseReader) close() {
	s.cancel()
	<-s.done
}

// timedFS is a plain process filesystem for the WAL that also adds up the
// time its files spend in fsync, most of which happens on the group
// committer's goroutine where no span can see it.
type timedFS struct {
	syncNS atomic.Int64
}

func (*timedFS) MkdirAll(dir string, perm os.FileMode) error { return os.MkdirAll(dir, perm) }

func (fs *timedFS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: f, fs: fs}, nil
}

func (*timedFS) ReadDir(dir string) ([]os.DirEntry, error) { return os.ReadDir(dir) }
func (*timedFS) Remove(name string) error                  { return os.Remove(name) }

func (*timedFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

type timedFile struct {
	*os.File
	fs *timedFS
}

func (f *timedFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	f.fs.syncNS.Add(int64(time.Since(t0)))
	return err
}
