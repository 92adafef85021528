// Command modad is a small MODA telemetry daemon: it runs a simulated HPC
// system in real time (wall clock, scaled by -speed: 60 means one wall
// second carries one virtual minute), samples all sensor domains into a
// TSDB, and serves the telemetry stream, loop decision events, and the
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
// scenario.Durable.Recover exactly as a scenario run builds its own; -specs
// replaces the preset's loop fleet (power + ost) and nothing else.
//
// Two batch subcommands print deterministic tables on virtual time and
// exit: the paper-reproduction experiments (internal/experiments), and a
// scenario document (internal/scenario) generated from a preset, then run
// to its horizon and scored. The document plus its seed is the artifact.
//
//	modad experiment list
//	modad experiment run <EXP-ID|all> [-quick] [-csv] [-seed N]
//	modad scenario gen -preset midsize -seed 1 > midsize.json
//	modad scenario run midsize.json
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
// With -wal-dir the daemon is durable (scenario.Durable): TSDB appends,
// knowledge-base writes, every applied control op and the loop/fleet bus
// traffic are journaled to a write-ahead log, an acknowledged control op is
// synced before its reply, and the whole daemon state is snapshotted
// periodically. A restart on the same directory restores the newest
// snapshot, folds the log tail into the store, K and the control plane
// (operator ops and pending approvals included), and resumes the virtual
// clock at the newest time the log holds. SIGINT/SIGTERM shuts down
// gracefully: final snapshot, drain, fsync.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"autoloop/internal/bus"
	"autoloop/internal/cases"
	"autoloop/internal/cluster"
	"autoloop/internal/control"
	"autoloop/internal/gateway"
	"autoloop/internal/scenario"
	"autoloop/internal/tsdb"
	"autoloop/internal/wal"
)

// daemon is one daemon command line's parsed flags and where the daemon
// reports.
type daemon struct {
	addr, httpAddr, httpReadTok, httpOpTok string
	speed                                  int
	duration, snapEvery                    time.Duration
	specsPath, walDir, fsyncMode           string
	role, join, clusterAddr, node          string
	leaseTTL, leaseGrace, heartbeat        time.Duration
	stdout, stderr                         io.Writer
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one modad command line and returns the exit status: the
// subcommand its first argument names, or else the daemon its flags
// describe.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "experiment":
			return experimentCmd(args[1:], stdout, stderr)
		case "scenario":
			return scenarioCmd(args[1:], stdout, stderr)
		}
	}
	d := &daemon{stdout: stdout, stderr: stderr}
	fs := flag.NewFlagSet("modad", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() { usage(stderr); fs.PrintDefaults() }
	fs.StringVar(&d.addr, "addr", "127.0.0.1:7675", "TCP address to serve envelopes on")
	fs.StringVar(&d.httpAddr, "http", "", "HTTP gateway address (empty = no HTTP; e.g. 127.0.0.1:7676)")
	fs.StringVar(&d.httpReadTok, "http-read-token", "", "comma-separated read-only bearer tokens for the HTTP gateway")
	fs.StringVar(&d.httpOpTok, "http-op-token", "", "comma-separated operator bearer tokens for the HTTP gateway (no tokens at all = open access)")
	fs.IntVar(&d.speed, "speed", 60, "virtual seconds per wall second (> 0)")
	fs.DurationVar(&d.duration, "duration", 2*time.Minute, "wall-clock run time (0 = forever)")
	fs.StringVar(&d.specsPath, "specs", "", "JSON loop-spec file replacing the built-in fleet")
	fs.StringVar(&d.walDir, "wal-dir", "", "write-ahead-log directory (empty = no durability)")
	fs.StringVar(&d.fsyncMode, "fsync", "batch", "WAL fsync policy: batch, always, or none")
	fs.DurationVar(&d.snapEvery, "snapshot-every", 10*time.Minute, "virtual time between snapshots")
	fs.StringVar(&d.role, "role", "single", "process role: single (everything in one binary), coordinator, or worker")
	fs.StringVar(&d.join, "join", "", "worker: coordinator cluster address to join (required with -role=worker)")
	fs.StringVar(&d.clusterAddr, "cluster-addr", "127.0.0.1:7677", "coordinator: TCP address workers join")
	fs.StringVar(&d.node, "node", "", "worker: unique node name (default <hostname>-<pid>)")
	fs.DurationVar(&d.leaseTTL, "lease", cluster.DefaultLeaseTTL, "coordinator: worker lease TTL before a worker turns suspect")
	fs.DurationVar(&d.leaseGrace, "lease-grace", 0, "coordinator: suspect window past the lease before failover (0 = one extra lease, negative = none)")
	fs.DurationVar(&d.heartbeat, "heartbeat", cluster.DefaultHeartbeat, "worker: lease-renewal period")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	roles := map[string]func() error{"single": d.runSingle, "coordinator": d.runCoordinator, "worker": d.runWorker}
	runRole, ok := roles[d.role]
	switch {
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "modad: unexpected argument %q\n", fs.Arg(0))
		return usage(stderr)
	case d.speed <= 0:
		fmt.Fprintf(stderr, "modad: -speed must be positive, got %d\n", d.speed)
		return usage(stderr)
	case !ok:
		fmt.Fprintf(stderr, "modad: unknown -role %q (want single, coordinator, or worker)\n", d.role)
		return usage(stderr)
	}
	if err := runRole(); err != nil {
		fmt.Fprintln(stderr, "modad:", err)
		return 1
	}
	return 0
}

// usage prints modad's command lines and returns the exit status for a
// command line that matches none of them.
func usage(stderr io.Writer) int {
	fmt.Fprint(stderr, `usage: modad [daemon flags]
       modad experiment list | run <EXP-ID|all> [-quick] [-csv] [-seed N]
       modad scenario gen [-preset small|midsize|stress10k] [-seed N] | run <file>
`)
	return 2
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

// boot assembles the daemon preset, deploying fleet, over dur's log (see
// scenario.Durable.Recover) on a store with the daemon's retention and
// rollups, then attaches the bus adapters, all tagged with id: per-point
// telemetry fan-out, fleet round summaries, control.v1, and the
// "tsdb.query" service.
func boot(id string, dur *scenario.Durable, fleet []scenario.Loop) (*scenario.Runtime, *tsdb.Service, error) {
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
	rt, err := dur.Recover(db, doc, cases.NewRegistry())
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
func (d *daemon) advance(rt *scenario.Runtime) func(wall time.Duration) {
	vbase := rt.Engine.Now()
	var seenErrs uint64
	var lastLog time.Time
	return func(wall time.Duration) {
		rt.Engine.RunUntil(vbase + time.Duration(int64(wall)*int64(d.speed)))
		if _, _, errs := rt.Pipe.Stats(); errs > seenErrs && time.Since(lastLog) >= time.Second {
			seenErrs, lastLog = errs, time.Now()
			fmt.Fprintf(d.stderr, "modad: telemetry ingest: %d sampling rounds returned an error so far (latest: %v)\n", errs, rt.Pipe.Err())
		}
	}
}

// serveHTTP starts the HTTP gateway over opt when -http is set, with the
// flags' bearer tokens; the returned closer is a no-op without a gateway.
func (d *daemon) serveHTTP(opt gateway.Options) (func(), error) {
	if d.httpAddr == "" {
		return func() {}, nil
	}
	opt.ReadTokens = splitTokens(d.httpReadTok)
	opt.OperatorTokens = splitTokens(d.httpOpTok)
	gw := gateway.New(opt)
	if err := gw.Serve(d.httpAddr); err != nil {
		return nil, err
	}
	fmt.Fprintf(d.stdout, "modad: http gateway on http://%s (/v1/query, /v1/control/<op>, /v1/stream, /metrics)\n", gw.Addr())
	return func() { gw.Close() }, nil
}

// drive calls step every 250ms of wall time, passing the time since it
// started, until -duration lapses (0 = never) or SIGINT/SIGTERM arrives.
func (d *daemon) drive(step func(wall time.Duration)) {
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
			if d.duration > 0 && wall >= d.duration {
				return
			}
			step(wall)
		case sig := <-sigs:
			fmt.Fprintf(d.stdout, "modad: %v: shutting down\n", sig)
			return
		}
	}
}

// runSingle is the whole daemon in one process: the assembled facility, the
// TCP bridge, the optional HTTP gateway, and — with -wal-dir — journaling,
// periodic snapshots and crash recovery.
func (d *daemon) runSingle() error {
	fleet, err := loadFleet(d.specsPath)
	if err != nil {
		return err
	}

	// Durability: the log is opened before the simulation is built, because
	// the virtual clock resumes where the log ends and every subsystem
	// schedules against it. A recovered control plane re-spawns its own
	// fleet; a fresh one deploys the configured specs.
	w, err := openWAL(d.walDir, d.fsyncMode)
	if err != nil {
		return err
	}
	if w != nil {
		defer w.Close()
	}
	dur := &scenario.Durable{WAL: w, Dir: d.walDir, Logf: func(format string, args ...any) {
		fmt.Fprintf(d.stderr, "modad: "+format+"\n", args...)
	}}
	rt, svc, err := boot("modad", dur, fleet)
	if err != nil {
		return err
	}
	defer svc.Close()
	engine, db, ctl := rt.Engine, rt.DB, rt.Ctl
	defer ctl.Close()
	if dur.Restored || dur.Replayed > 0 {
		fmt.Fprintf(d.stdout, "modad: recovered from %s: snapshot @ seq %d + %d replayed records (%d series, %d samples)\n",
			d.walDir, dur.Seq, dur.Replayed, db.NumSeries(), db.Appended())
	}
	if w != nil && d.snapEvery > 0 {
		engine.Every(engine.Now()+d.snapEvery, d.snapEvery, func() bool {
			if err := dur.Checkpoint(); err != nil {
				fmt.Fprintln(d.stderr, "modad: snapshot:", err)
			}
			return true
		})
	}

	srv, err := bus.NewServer(d.addr, "*", rt.Bus)
	if err != nil {
		return err
	}
	defer srv.Close()
	coord := ctl.Coordinator()
	fmt.Fprintf(d.stdout, "modad: serving telemetry, loop, fleet, and control.v1 envelopes on %s (speed %dx, %d loops)\n",
		srv.Addr(), d.speed, coord.Len())
	closeHTTP, err := d.serveHTTP(gateway.Options{
		Store: db, Control: ctl, Bus: rt.Bus, Pipeline: rt.Pipe, WAL: w, WireServer: srv,
	})
	if err != nil {
		return err
	}
	defer closeHTTP()

	d.drive(d.advance(rt))

	// Shutdown: snapshot FIRST, while the fleet still holds its live
	// lifecycle states, and journal nothing after it — a restart with the
	// same -wal-dir resumes exactly here. Then drain the loops so no plan
	// is cut mid-action, and finally flush and fsync the log.
	if err := dur.Checkpoint(); err != nil {
		fmt.Fprintln(d.stderr, "modad: final snapshot:", err)
	}
	rt.Bus.Journal(nil, nil)
	for _, ls := range ctl.Handle(control.Request{Op: control.OpList}).Loops {
		if ls.Name == ls.Group && (ls.State == "created" || ls.State == "running") {
			ctl.Handle(control.Request{Op: control.OpDrain, Loop: ls.Name})
		}
	}
	ctl.Tick(engine.Now() + time.Minute) // one settling round completes the drains
	if w != nil {
		if err := w.Close(); err != nil {
			fmt.Fprintln(d.stderr, "modad: wal close:", err)
		}
		m := w.Metrics()
		fmt.Fprintf(d.stdout, "modad: wal closed; %d records, %d bytes, %d syncs, %d rotations\n",
			m.Appends, m.Bytes, m.Syncs, m.Rotations)
	}
	cm := coord.Metrics()
	_, _, sinkErrs := rt.Pipe.Stats()
	fmt.Fprintf(d.stdout, "modad: done; %d series, %d samples stored (%d sampling rounds with an ingest error); fleet ran %d rounds (%d actions, %d arbitrated)\n",
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
