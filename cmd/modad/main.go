// Command modad is a small MODA telemetry daemon: it runs a simulated HPC
// system in real time (wall clock, scaled by -speed: 60 means one wall
// second carries one virtual minute), samples all sensor domains into a
// TSDB, and serves the telemetry stream, loop audit events, and the
// control.v1 runtime API over TCP as newline-delimited JSON envelopes — the
// interoperability surface the paper's question (ii) asks for. A client can
// connect with `nc`, watch the envelopes an autonomy loop consumes, and
// manage the fleet (list, spawn, pause, resume, set-mode, approve, deny).
//
//	modad -addr 127.0.0.1:7675 -speed 60 -duration 2m [-specs file.json]
//	      [-wal-dir dir] [-fsync batch|always|none] [-snapshot-every 10m]
//	      [-http 127.0.0.1:7676] [-http-read-token t1,t2] [-http-op-token t3]
//
// The facility the daemon simulates is the scenario.Daemon preset, built by
// scenario.AssembleOn exactly as a scenario run builds its own; -specs
// replaces the preset's loop fleet (power + ost) and nothing else.
//
// Scenario batch mode runs a declarative chaos scenario instead of serving:
// it assembles the stack the file describes (see internal/scenario), runs it
// to the horizon on virtual time, prints the deterministic score table, and
// exits.
//
//	modagen scenario -preset midsize -seed 1 > midsize.json
//	modad -scenario midsize.json
//
// Multi-node mode splits the same daemon across processes:
//
//	modad -role=coordinator -addr :7675 -cluster-addr :7677 [-wal-dir dir]
//	modad -role=worker -join 127.0.0.1:7677 -node w1
//
// The coordinator places loop specs on the joined workers by consistent
// hashing, fails loops over when a worker's lease expires, arbitrates
// contradicting actions across nodes, and answers operators by scatter-
// gathering the workers; workers simulate, and spawn only what they are
// assigned. The operator surface is identical to a single process.
//
// With -http the same vocabulary is served over HTTP: /v1/query,
// /v1/control/<op>, server-sent events on /v1/stream, and Prometheus-style
// counters on /metrics. Bearer tokens split read-only from operator access;
// with no tokens the gateway is open, like the TCP bridge.
//
// With -wal-dir the daemon is durable: TSDB appends, knowledge-base
// mutations, and the loop/fleet/control bus traffic are journaled to a
// write-ahead log, and the whole daemon state is snapshotted periodically.
// A restart on the same directory restores the newest snapshot, replays the
// WAL tail, re-spawns the fleet in its recorded lifecycle states (pending
// approvals included), and resumes the virtual clock where it stood.
// SIGINT/SIGTERM shuts down gracefully: final snapshot, drain, fsync.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"autoloop/internal/bus"
	"autoloop/internal/cases"
	"autoloop/internal/cluster"
	"autoloop/internal/control"
	"autoloop/internal/gateway"
	"autoloop/internal/scenario"
	"autoloop/internal/sim"
	"autoloop/internal/tsdb"
	"autoloop/internal/wal"
)

var (
	addr         = flag.String("addr", "127.0.0.1:7675", "TCP address to serve envelopes on")
	httpAddr     = flag.String("http", "", "HTTP gateway address (empty = no HTTP; e.g. 127.0.0.1:7676)")
	httpReadTok  = flag.String("http-read-token", "", "comma-separated read-only bearer tokens for the HTTP gateway")
	httpOpTok    = flag.String("http-op-token", "", "comma-separated operator bearer tokens for the HTTP gateway (no tokens at all = open access)")
	speed        = flag.Int("speed", 60, "virtual seconds per wall second")
	duration     = flag.Duration("duration", 2*time.Minute, "wall-clock run time (0 = forever)")
	specsPath    = flag.String("specs", "", "JSON loop-spec file replacing the built-in fleet")
	scenarioPath = flag.String("scenario", "", "scenario file: assemble the described facility, run it to its horizon on virtual time, print the score table, and exit (batch mode; see modagen scenario)")
	walDir       = flag.String("wal-dir", "", "write-ahead-log directory (empty = no durability)")
	fsyncMode    = flag.String("fsync", "batch", "WAL fsync policy: batch, always, or none")
	snapEvery    = flag.Duration("snapshot-every", 10*time.Minute, "virtual time between snapshots")
	role         = flag.String("role", "single", "process role: single (everything in one binary), coordinator, or worker")
	join         = flag.String("join", "", "worker: coordinator cluster address to join (required with -role=worker)")
	clusterAddr  = flag.String("cluster-addr", "127.0.0.1:7677", "coordinator: TCP address workers join")
	node         = flag.String("node", "", "worker: unique node name (default <hostname>-<pid>)")
	leaseTTL     = flag.Duration("lease", cluster.DefaultLeaseTTL, "coordinator: worker lease TTL before a worker turns suspect")
	leaseGrace   = flag.Duration("lease-grace", 0, "coordinator: suspect window past the lease before failover (0 = one extra lease, negative = none)")
	heartbeat    = flag.Duration("heartbeat", cluster.DefaultHeartbeat, "worker: lease-renewal period")
	arbWindow    = flag.Duration("arb-window", cluster.DefaultArbWindow, "coordinator: cross-node arbitration grant window")
)

// daemonSnapshot is the combined snapshot payload stored under the "modad"
// snapshot name: the WAL sequence it covers, the virtual time it was taken
// at, and each subsystem's own serialized state.
type daemonSnapshot struct {
	Seq       uint64          `json:"seq"`
	Now       time.Duration   `json:"now"`
	TSDB      json.RawMessage `json:"tsdb"`
	Knowledge json.RawMessage `json:"knowledge"`
	Control   json.RawMessage `json:"control"`
}

// journaledTopic selects the bus traffic worth journaling: loop lifecycle
// and audit events, fleet round summaries, and control.v1 requests and
// resolutions. Telemetry topics are excluded — every accepted point is
// already journaled by the TSDB, so recording the fan-out envelopes would
// double the log for no recovery value.
func journaledTopic(topic string) bool {
	return strings.HasPrefix(topic, "loop.") ||
		strings.HasPrefix(topic, "fleet.") ||
		strings.HasPrefix(topic, "control.v1.")
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "modad:", err)
		os.Exit(1)
	}
}

func run() error {
	flag.Parse()

	// Scenario batch mode: no serving surface, no durability, no wall clock.
	if *scenarioPath != "" {
		if *role != "single" || *walDir != "" {
			return fmt.Errorf("-scenario is a batch mode, incompatible with -role=%s and -wal-dir", *role)
		}
		data, err := os.ReadFile(*scenarioPath)
		if err != nil {
			return err
		}
		spec, err := scenario.Decode(data)
		if err != nil {
			return err
		}
		rep, err := scenario.Run(spec, cases.NewRegistry())
		if err != nil {
			return err
		}
		fmt.Print(rep.Table())
		return nil
	}
	roles := map[string]func() error{"single": runSingle, "coordinator": runCoordinator, "worker": runWorker}
	if runRole, ok := roles[*role]; ok {
		return runRole()
	}
	return fmt.Errorf("unknown -role %q (want single, coordinator, or worker)", *role)
}

// loadFleet reads the loop fleet to deploy: the -specs file, or the daemon
// preset's built-in pair. A served fleet is not scored.
func loadFleet(path string) ([]scenario.Loop, error) {
	if path == "" {
		return scenario.Daemon(1).Loops, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	specs, err := control.ParseSpecs(data)
	if err != nil {
		return nil, err
	}
	return scenario.Unscored(specs...), nil
}

// openWAL opens the write-ahead log under dir, repairing any torn tail a
// crash left; an empty dir means no durability and a nil log.
func openWAL(dir, fsync string) (*wal.WAL, error) {
	if dir == "" {
		return nil, nil
	}
	pol, err := wal.ParseSyncPolicy(fsync)
	if err != nil {
		return nil, err
	}
	return wal.Open(dir, wal.Options{Sync: pol})
}

// replayWAL feeds every record from seq from on to apply and returns how
// many it applied. Mid-log damage and apply failures abort the replay.
func replayWAL(w *wal.WAL, from uint64, apply func(wal.Record) error) (int, error) {
	r, err := w.Replay(from)
	if err != nil {
		return 0, err
	}
	defer r.Close()
	n := 0
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, fmt.Errorf("wal replay: %w", err)
		}
		if err := apply(rec); err != nil {
			return n, fmt.Errorf("wal replay seq %d: %w", rec.Seq, err)
		}
		n++
	}
}

// boot assembles the daemon preset, deploying fleet, on an engine whose
// clock starts at now and a store with the daemon's retention and rollups,
// then attaches the bus adapters, all tagged with id: per-point telemetry
// fan-out, fleet round summaries, control.v1, and the "tsdb.query" service.
func boot(id string, now time.Duration, fleet []scenario.Loop) (*scenario.Runtime, *tsdb.Service, error) {
	engine := sim.NewEngine(1)
	engine.RunUntil(now) // nothing scheduled yet: jumps the clock

	// Continuous rollups: coarse aggregates are maintained at append time
	// and stay queryable for a day, long past the 2h raw retention. Rules
	// are registered before any restore so recovered series re-attach them.
	db := tsdb.New(2 * time.Hour)
	for _, rule := range []tsdb.RollupRule{
		{Metric: "node.temp.celsius", Step: 5 * time.Minute, Agg: tsdb.AggMean, Retention: 24 * time.Hour},
		{Metric: "facility.pue", Step: 5 * time.Minute, Agg: tsdb.AggMean, Retention: 24 * time.Hour},
		{Metric: "pfs.ost.lat_ms", Step: 5 * time.Minute, Agg: tsdb.AggP95, Retention: 24 * time.Hour},
	} {
		if err := db.AddRollup(rule); err != nil {
			return nil, nil, err
		}
	}

	doc := scenario.Daemon(1)
	doc.Loops = fleet
	rt, err := scenario.AssembleOn(engine, db, doc, cases.NewRegistry())
	if err != nil {
		return nil, nil, err
	}
	rt.Pipe.PublishTo(rt.Bus, id)
	rt.Ctl.Coordinator().PublishTo(rt.Bus, id)
	rt.Ctl.Attach(rt.Bus, id)
	return rt, tsdb.NewService(db).Attach(rt.Bus, id), nil
}

// advance returns the drive step for a simulating role: run the engine up
// to the scaled wall time, then surface sink errors, at most once a second
// — a TSDB that rejects points (clock skew, invalid values) must show while
// the daemon runs, not be swallowed into the pipeline's sticky error.
func advance(rt *scenario.Runtime) func(wall time.Duration) {
	vbase := rt.Engine.Now()
	var seenErrs uint64
	var lastLog time.Time
	return func(wall time.Duration) {
		rt.Engine.RunUntil(vbase + time.Duration(int64(wall)*int64(*speed)))
		if _, _, errs := rt.Pipe.Stats(); errs > seenErrs && time.Since(lastLog) >= time.Second {
			seenErrs, lastLog = errs, time.Now()
			fmt.Fprintf(os.Stderr, "modad: telemetry ingest: %d sampling rounds returned an error so far (latest: %v)\n", errs, rt.Pipe.Err())
		}
	}
}

// serveHTTP starts the HTTP gateway over opt when -http is set, with the
// flags' bearer tokens; the returned closer is a no-op without a gateway.
func serveHTTP(opt gateway.Options) (func(), error) {
	if *httpAddr == "" {
		return func() {}, nil
	}
	opt.ReadTokens = splitTokens(*httpReadTok)
	opt.OperatorTokens = splitTokens(*httpOpTok)
	gw := gateway.New(opt)
	if err := gw.Serve(*httpAddr); err != nil {
		return nil, err
	}
	fmt.Printf("modad: http gateway on http://%s (/v1/query, /v1/control/<op>, /v1/stream, /metrics)\n", gw.Addr())
	return func() { gw.Close() }, nil
}

// drive calls step every 250ms of wall time, passing the time since it
// started, until duration lapses (0 = never) or SIGINT/SIGTERM arrives.
func drive(duration time.Duration, step func(wall time.Duration)) {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	start := time.Now()
	tick := time.NewTicker(250 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			wall := time.Since(start)
			if duration > 0 && wall >= duration {
				return
			}
			step(wall)
		case sig := <-sigs:
			fmt.Printf("modad: %v: shutting down\n", sig)
			return
		}
	}
}

// journalBus records the loop/fleet/control traffic on b as an audit trail
// in w. It is best-effort, with a shed-then-halt policy on storage faults:
// a retryable fault (a full disk, a short write, a backlogged group commit
// — wal.Retryable) sheds the envelope and keeps going, since the WAL
// retries its buffered tail on the next append; a fatal fault (a failed
// fsync: the kernel may have dropped dirty pages and will not say so twice)
// halts journaling for good — logging one line, not a corrupt trail. Loop
// state and telemetry journaling are unaffected; their appends surface
// errors on their own paths.
func journalBus(b *bus.Bus, w *wal.WAL) {
	var lastJournalErr atomic.Int64 // unix nanos of the last logged failure
	var journalHalted atomic.Bool
	b.Journal(func(env bus.Envelope) {
		if journalHalted.Load() || !journaledTopic(env.Topic) {
			return
		}
		line, err := bus.Encode(env)
		if err == nil {
			_, err = w.Append(wal.KindBusEnvelope, line)
		}
		if err != nil {
			if !wal.Retryable(err) {
				journalHalted.Store(true)
				fmt.Fprintf(os.Stderr, "modad: bus journal halted on fatal WAL fault: %v\n", err)
				return
			}
			// Rate-limited to 1/s: a broken audit trail must surface
			// while the daemon runs, not via the sticky error at Close.
			if now := time.Now().UnixNano(); now-lastJournalErr.Load() >= int64(time.Second) {
				lastJournalErr.Store(now)
				fmt.Fprintf(os.Stderr, "modad: bus journal shed %s: %v\n", env.Topic, err)
			}
		}
	})
}

// runSingle is the whole daemon in one process: the assembled facility, the
// TCP bridge, the optional HTTP gateway, and — with -wal-dir — journaling,
// periodic snapshots and crash recovery.
func runSingle() error {
	fleet, err := loadFleet(*specsPath)
	if err != nil {
		return err
	}

	// Durability, part 1: open the log and read the newest valid snapshot
	// BEFORE the simulation is built, because the virtual clock must resume
	// from the snapshot's time — every subsystem schedules against it. A
	// recovered control plane re-spawns its fleet from the snapshot; a fresh
	// one deploys the configured specs.
	w, err := openWAL(*walDir, *fsyncMode)
	if err != nil {
		return err
	}
	var snap daemonSnapshot
	restored := false
	if w != nil {
		defer w.Close()
		payload, _, ok, err := wal.LatestSnapshot(*walDir, "modad")
		if err != nil {
			return err
		}
		if ok {
			if err := json.Unmarshal(payload, &snap); err != nil {
				return fmt.Errorf("decode snapshot: %w", err)
			}
			restored, fleet = true, nil
		}
	}

	rt, svc, err := boot("modad", snap.Now, fleet)
	if err != nil {
		return err
	}
	defer svc.Close()
	engine, db, kb, ctl := rt.Engine, rt.DB, rt.Knowledge, rt.Ctl
	defer ctl.Close()

	// Durability, part 2: restore each subsystem from the snapshot, replay
	// the WAL tail on top, and only then attach the journals — replayed
	// records must never be re-journaled.
	if w != nil {
		if restored {
			if err := db.RestoreSnapshot(snap.TSDB); err != nil {
				return err
			}
			if err := kb.Load(bytes.NewReader(snap.Knowledge)); err != nil {
				return err
			}
			if err := ctl.Restore(snap.Control); err != nil {
				return err
			}
		}
		replayed, err := replayWAL(w, snap.Seq+1, func(rec wal.Record) error {
			switch rec.Kind {
			case wal.KindTSDBAppend:
				return db.ApplyWAL(rec.Payload)
			case wal.KindKnowledgeOp:
				return kb.ApplyWAL(rec.Seq, rec.Payload)
			}
			return nil // bus envelopes are an audit trail, never re-published
		})
		if err != nil {
			return err
		}
		if restored || replayed > 0 {
			fmt.Printf("modad: recovered from %s: snapshot @ seq %d + %d replayed records (%d series, %d samples)\n",
				*walDir, snap.Seq, replayed, db.NumSeries(), db.Appended())
		}
		db.Journal(w)
		kb.Journal(w)
		journalBus(rt.Bus, w)
	}

	// snapshot writes one combined snapshot covering everything the log
	// holds up to now, then compacts the segments it supersedes. Sync comes
	// first: a snapshot must never claim to cover records that are still
	// sitting in the group-commit buffer.
	snapshot := func() error {
		if w == nil {
			return nil
		}
		if err := w.Sync(); err != nil {
			return err
		}
		seq := w.LastSeq()
		tsnap, err := db.Snapshot()
		if err != nil {
			return err
		}
		var kbuf bytes.Buffer
		if err := kb.Save(&kbuf); err != nil {
			return err
		}
		csnap, err := ctl.Snapshot()
		if err != nil {
			return err
		}
		payload, err := json.Marshal(&daemonSnapshot{
			Seq: seq, Now: engine.Now(),
			TSDB: tsnap, Knowledge: kbuf.Bytes(), Control: csnap,
		})
		if err != nil {
			return err
		}
		if err := wal.WriteSnapshot(*walDir, "modad", seq, payload); err != nil {
			return err
		}
		_, err = w.Compact(seq + 1)
		return err
	}
	if w != nil && *snapEvery > 0 {
		engine.Every(engine.Now()+*snapEvery, *snapEvery, func() bool {
			if err := snapshot(); err != nil {
				fmt.Fprintln(os.Stderr, "modad: snapshot:", err)
			}
			return true
		})
	}

	srv, err := bus.NewServer(*addr, "*", rt.Bus)
	if err != nil {
		return err
	}
	defer srv.Close()
	coord := ctl.Coordinator()
	fmt.Printf("modad: serving telemetry, loop, fleet, and control.v1 envelopes on %s (speed %dx, %d loops)\n",
		srv.Addr(), *speed, coord.Len())
	closeHTTP, err := serveHTTP(gateway.Options{
		Store: db, Control: ctl, Bus: rt.Bus, Pipeline: rt.Pipe, WAL: w, WireServer: srv,
	})
	if err != nil {
		return err
	}
	defer closeHTTP()

	drive(*duration, advance(rt))

	// Shutdown: snapshot FIRST, while the fleet still holds its live
	// lifecycle states — a restart with the same -wal-dir resumes exactly
	// here. Then drain the loops so no plan is cut mid-action, and finally
	// flush and fsync the log.
	if err := snapshot(); err != nil {
		fmt.Fprintln(os.Stderr, "modad: final snapshot:", err)
	}
	for _, ls := range ctl.Handle(control.Request{Op: control.OpList}).Loops {
		if ls.Name == ls.Group && (ls.State == "created" || ls.State == "running") {
			ctl.Handle(control.Request{Op: control.OpDrain, Loop: ls.Name})
		}
	}
	ctl.Tick(engine.Now() + time.Minute) // one settling round completes the drains
	if w != nil {
		if err := kb.JournalErr(); err != nil {
			fmt.Fprintln(os.Stderr, "modad: journal:", err)
		}
		if err := w.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "modad: wal close:", err)
		}
		m := w.Metrics()
		fmt.Printf("modad: wal closed; %d records, %d bytes, %d syncs, %d rotations\n",
			m.Appends, m.Bytes, m.Syncs, m.Rotations)
	}
	cm := coord.Metrics()
	_, _, sinkErrs := rt.Pipe.Stats()
	fmt.Printf("modad: done; %d series, %d samples stored (%d sampling rounds with an ingest error); fleet ran %d rounds (%d actions, %d arbitrated)\n",
		db.NumSeries(), db.Appended(), sinkErrs, cm.Rounds, cm.Planned, cm.Arbitrated)
	return nil
}

// splitTokens parses a comma-separated token list, dropping empties.
func splitTokens(s string) []string {
	var out []string
	for _, t := range strings.Split(s, ",") {
		if t = strings.TrimSpace(t); t != "" {
			out = append(out, t)
		}
	}
	return out
}
