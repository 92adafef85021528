// Multi-node modad: the coordinator and worker roles, built from the same
// helpers as the single-process daemon so the operator surface is unchanged.
package main

import (
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"autoloop/internal/bus"
	"autoloop/internal/cases"
	"autoloop/internal/cluster"
	"autoloop/internal/gateway"
	"autoloop/internal/wal"
)

// runCoordinator is the cluster brain: it owns the placement ring, the lease
// table, the cross-node arbiter, and the scatter-gather layer; it runs no
// simulation. Operators connect to -addr (or the HTTP gateway) and see the
// usual control.v1 and tsdb.query surface; workers join on -cluster-addr.
func runCoordinator() error {
	fleet, err := loadFleet(*specsPath)
	if err != nil {
		return err
	}
	b := bus.New()

	// The placement ledger: every spec admission, assignment, ack, and lease
	// expiry is journaled, so a restarted coordinator rebuilds its table and
	// reconciles against worker re-Hellos instead of re-spawning the fleet.
	w, err := openWAL(*walDir, *fsyncMode)
	if err != nil {
		return err
	}
	if w != nil {
		defer w.Close()
	}
	coord := cluster.NewCoordinator(b, cluster.Options{
		Source:    "coordinator",
		Lease:     *leaseTTL,
		Grace:     *leaseGrace,
		ArbWindow: *arbWindow,
		Registry:  cases.NewRegistry(),
		Ledger:    w,
	})
	defer coord.Close()

	recovered := 0
	if w != nil {
		recovered, err = replayWAL(w, 1, func(rec wal.Record) error {
			if rec.Kind != wal.KindClusterEvent {
				return nil
			}
			return coord.ApplyWAL(rec.Payload)
		})
		if err != nil {
			return err
		}
		coord.RestoreDone()
		if recovered > 0 {
			fmt.Printf("modad: coordinator recovered %d ledger records (%d specs) from %s\n",
				recovered, coord.Stats().Specs, *walDir)
		}
	}

	// A fresh coordinator admits the configured specs; a recovered one
	// already holds its table (re-admitting would be rejected as duplicates).
	if recovered == 0 {
		for _, l := range fleet {
			if _, err := coord.AddSpec(l.LoopSpec); err != nil {
				return err
			}
		}
	}

	// Two bridge servers on one bus: workers join the cluster address (and
	// receive only coordinator-to-worker topics); operators get everything.
	csrv, err := bus.NewServer(*clusterAddr, cluster.CoordExportPattern, b)
	if err != nil {
		return err
	}
	defer csrv.Close()
	srv, err := bus.NewServer(*addr, "*", b)
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Printf("modad: coordinator serving operators on %s, cluster on %s (%d specs pending placement)\n",
		srv.Addr(), csrv.Addr(), coord.Stats().Specs)
	closeHTTP, err := serveHTTP(gateway.Options{Cluster: coord, Bus: b, WAL: w, WireServer: srv})
	if err != nil {
		return err
	}
	defer closeHTTP()

	drive(*duration, func(time.Duration) { coord.Tick(time.Now()) })

	if w != nil {
		if err := w.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "modad: wal close:", err)
		}
	}
	s := coord.Stats()
	fmt.Printf("modad: coordinator done; %d members (%d alive, %d suspect), %d specs (%d placed), %d assigns, %d failovers, %d fanouts (%d partial), %d digests (%d denied, %d backfilled), %d ledger faults\n",
		s.Members, s.Alive, s.Suspect, s.Specs, s.Placed, s.Assigns, s.Failovers,
		s.Fanouts, s.ScatterPartials, s.DigestsSeen, s.DigestsDenied, s.DigestsBackfilled, s.LedgerFaults)
	return nil
}

// runWorker is one simulation slice of the facility: the same assembled
// stack the single-process daemon runs — but no specs of its own. It joins
// the coordinator, renews its lease, and spawns whatever the coordinator
// assigns. Its own steady workload keeps its telemetry slice alive, so
// scattered queries return per-worker series.
func runWorker() error {
	if *join == "" {
		return fmt.Errorf("-role=worker needs -join=<coordinator cluster address>")
	}
	id := *node
	if id == "" {
		host, _ := os.Hostname()
		id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	rt, svc, err := boot(id, 0, nil)
	if err != nil {
		return err
	}
	defer svc.Close()
	defer rt.Ctl.Close()
	db, coord := rt.DB, rt.Ctl.Coordinator()
	logf := func(format string, args ...any) { fmt.Printf("modad: "+format+"\n", args...) }

	// The bridge link is maintained by a Reconnector: a dropped link is
	// redialed under capped exponential backoff with full jitter (a fleet of
	// workers redialing a restarted coordinator spreads out instead of
	// arriving in lockstep), capped at one dial per 15s while the
	// coordinator stays dead. Link transitions feed the agent's degraded
	// mode: while the coordinator is unreachable the loops keep ticking
	// under local fail-open arbitration, and on rejoin the agent re-Hellos
	// and backfills its buffered digests.
	var agentRef atomic.Pointer[cluster.Agent]
	rc, err := bus.NewReconnector(*join, cluster.WorkerExportPattern, rt.Bus, bus.ReconnectOptions{
		OnState: func(up bool) {
			if a := agentRef.Load(); a != nil {
				a.SetLinkState(up)
			}
		},
		Logf: logf,
	})
	if err != nil {
		return fmt.Errorf("join %s: %w", *join, err)
	}
	defer rc.Close()

	agent, err := cluster.NewAgent(rt.Bus, rt.Ctl, svc, cluster.AgentOptions{
		ID:        id,
		Heartbeat: *heartbeat,
		Stats: func() (int, uint64, int) {
			return db.NumSeries(), db.Appended(), coord.Metrics().Rounds
		},
		Logf: logf,
	})
	if err != nil {
		return err
	}
	defer agent.Close()
	agentRef.Store(agent)
	fmt.Printf("modad: worker %s joined coordinator at %s (speed %dx)\n", id, *join, *speed)

	drive(*duration, advance(rt))

	agent.Close()
	cm := coord.Metrics()
	am := agent.Metrics()
	dials, failures, drops := rc.Stats()
	fmt.Printf("modad: worker %s done; %d series, %d samples stored; fleet ran %d rounds (%d actions, %d arbitrated, %d remote-denied); link: %d dials (%d failed, %d drops), %d degraded spells (%d rounds, %d digests backfilled)\n",
		id, db.NumSeries(), db.Appended(), cm.Rounds, cm.Planned, cm.Arbitrated, cm.Remote,
		dials, failures, drops, am.DegradedEntries, am.DegradedRounds, am.DigestsBackfilled)
	return nil
}
