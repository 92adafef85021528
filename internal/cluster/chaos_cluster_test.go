package cluster

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"autoloop/internal/chaos"
	"autoloop/internal/control"
	"autoloop/internal/wal"
)

// TestChaosCluster is the resilience capstone: a coordinator and three
// workers bridged through seeded chaos proxies, driven through a fixed
// fault schedule — sustained frame loss with duplication on one link, a
// storage-fault burst on the placement ledger, and a full partition of one
// worker held past the lease grace window — asserting the cluster keeps
// every invariant the README's failure-mode matrix promises: lossy links
// do not evict members, duplicated frames do not double-spawn, ledger
// faults are counted not fatal, a partitioned worker degrades to
// standalone ticking and journals its digests, and after the heal the
// placement table reconverges (each group held by exactly one alive
// worker) within a bounded window, with the buffered digests backfilled.
//
// The schedule is deterministic for a fixed seed: every drop/dup/partition
// decision comes from the per-link seeded injectors, so a failure here
// replays exactly under the same seed. CI runs this under -race as the
// chaos-smoke gate.
func TestChaosCluster(t *testing.T) {
	const seed = 42

	// The placement ledger runs over the fault-injecting filesystem, with
	// per-append syncs so storage faults surface on the append path.
	fsys := chaos.NewFS()
	ledger, err := wal.Open(t.TempDir(), wal.Options{Sync: wal.SyncAlways, FS: fsys})
	if err != nil {
		t.Fatalf("open ledger: %v", err)
	}
	defer ledger.Close()

	const lease = 600 * time.Millisecond
	tc := newTestCluster(t, Options{Lease: lease, Grace: lease, Ledger: ledger})

	ids := []string{"w1", "w2", "w3"}
	injs := make(map[string]*chaos.Injector, len(ids))
	workers := make(map[string]*testWorker, len(ids))
	for i, id := range ids {
		inj := chaos.NewInjector(seed + int64(i))
		proxy, err := chaos.NewProxy("127.0.0.1:0", tc.addr, inj)
		if err != nil {
			t.Fatalf("proxy for %s: %v", id, err)
		}
		t.Cleanup(func() { proxy.Close() })
		injs[id] = inj
		workers[id] = newTestWorker(t, proxy.Addr(), id, AgentOptions{
			ArbTimeout:   50 * time.Millisecond,
			DegradeAfter: 2,
		})
	}
	waitFor(t, 5*time.Second, "3 alive members", func() bool {
		return len(tc.coord.Directory().Alive()) == 3
	})

	addSpec := func(name string) {
		t.Helper()
		cfg := fmt.Sprintf(`{"kind":"act","subject":"%s"}`, name)
		spec := control.LoopSpec{Case: "script", Name: name, Config: []byte(cfg)}
		if _, err := tc.coord.AddSpec(spec); err != nil {
			t.Fatalf("AddSpec %s: %v", name, err)
		}
	}
	groups := 0
	for i := 0; i < 6; i++ {
		addSpec(fmt.Sprintf("g%d", i))
		groups++
	}
	waitFor(t, 5*time.Second, "initial placement", func() bool {
		return placedCount(tc.coord) == groups
	})

	// Background tickers keep every worker's loops running through all
	// fault phases — a partitioned worker's rounds are what exercise the
	// arbitration timeouts and the degraded-mode digest buffer.
	stopTicks := make(chan struct{})
	var tickers sync.WaitGroup
	for _, w := range workers {
		tickers.Add(1)
		go func(w *testWorker) {
			defer tickers.Done()
			for {
				select {
				case <-stopTicks:
					return
				case <-time.After(30 * time.Millisecond):
					w.tick()
				}
			}
		}(w)
	}
	defer tickers.Wait()
	defer close(stopTicks)

	// Phase 1 — lossy link: 30% frame loss plus duplication on w2. A lossy
	// link is "worker slow", not "worker dead": heartbeats outnumber the
	// loss, so w2 must ride out the whole phase without a lease expiry,
	// and placement of new specs must still converge (assign re-sends
	// cover the dropped frames; idempotent assigns absorb the duplicates).
	injs["w2"].Arm(chaos.Faults{DropRate: 0.3, DupRate: 0.2})
	for i := 6; i < 8; i++ {
		addSpec(fmt.Sprintf("g%d", i))
		groups++
	}
	waitFor(t, 10*time.Second, "placement through a lossy link", func() bool {
		return placedCount(tc.coord) == groups
	})
	lossWindow := time.Now().Add(3 * lease)
	for time.Now().Before(lossWindow) {
		if !tc.coord.Directory().IsAlive("w2") {
			t.Fatal("30% frame loss evicted w2: loss must not look like death")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if s := tc.coord.Stats(); s.Failovers != 0 {
		t.Fatalf("lossy link caused %d failovers, want 0", s.Failovers)
	}
	if dropped, _, _ := injs["w2"].Counters(); dropped == 0 {
		t.Fatal("loss phase dropped no frames — the schedule never fired")
	}
	injs["w2"].Disarm()

	// Phase 2 — storage-fault burst on the placement ledger: two ENOSPC
	// write faults. The faults are typed retryable, so the coordinator
	// counts them and keeps placing; the buffered records commit on the
	// next clean append — no placement event is silently lost.
	fsys.Arm(chaos.FSFaults{FailWrites: 2})
	addSpec("g-burst")
	groups++
	waitFor(t, 5*time.Second, "placement during the ledger fault burst", func() bool {
		return placedCount(tc.coord) == groups
	})
	waitFor(t, 5*time.Second, "ledger faults counted", func() bool {
		return tc.coord.Stats().LedgerFaults > 0
	})
	fsys.Disarm()
	if m := ledger.Metrics(); m.StorageFaults == 0 || m.WriteRetries == 0 {
		t.Fatalf("ledger WAL metrics = %+v, want storage faults and retries", m)
	}

	// Phase 3 — full partition of w1, held past lease+grace. The
	// coordinator walks w1 through suspect to expired and fails its groups
	// over to the survivors; w1, unable to arbitrate, drops into degraded
	// standalone mode and journals its round digests locally.
	injs["w1"].Arm(chaos.Faults{PartitionToTarget: true, PartitionFromTarget: true})
	waitFor(t, 10*time.Second, "w1 degraded", func() bool {
		return workers["w1"].agent.Degraded()
	})
	waitFor(t, 10*time.Second, "failover off the partitioned worker", func() bool {
		if tc.coord.Directory().IsAlive("w1") || placedCount(tc.coord) != groups {
			return false
		}
		for _, p := range tc.coord.Placements() {
			if p.Worker == "w1" {
				return false
			}
		}
		return true
	})
	if s := tc.coord.Stats(); s.SuspectEvents == 0 {
		t.Fatal("partition skipped the suspect tier: slow/dead distinction lost")
	}
	waitFor(t, 10*time.Second, "degraded worker journaling digests", func() bool {
		return workers["w1"].agent.Metrics().DigestsBuffered > 0
	})

	// Phase 4 — heal, then bounded reconvergence: within 15 seconds w1
	// must rejoin (re-Hello over the healed link), leave degraded mode,
	// backfill its buffered digests, and the placement table must settle
	// with every group placed on exactly one alive worker.
	healed := time.Now()
	injs["w1"].Disarm()
	waitFor(t, 15*time.Second, "post-heal convergence", func() bool {
		if !tc.coord.Directory().IsAlive("w1") || workers["w1"].agent.Degraded() {
			return false
		}
		if placedCount(tc.coord) != groups {
			return false
		}
		owners := make(map[string]string, groups)
		for _, p := range tc.coord.Placements() {
			if p.Worker == "" || !tc.coord.Directory().IsAlive(p.Worker) {
				return false
			}
			owners[p.Group] = p.Worker
		}
		// The workers' held sets must be disjoint and exactly cover the
		// placement table — no group executing on two nodes, none orphaned.
		held := 0
		for id, w := range workers {
			for _, g := range w.agent.Held() {
				held++
				if owners[g] != id {
					return false
				}
			}
		}
		return held == groups
	})
	if took := time.Since(healed); took > 15*time.Second {
		t.Fatalf("reconvergence took %v, want <= 15s of the heal", took)
	}
	waitFor(t, 5*time.Second, "digest backfill recorded", func() bool {
		return tc.coord.Stats().DigestsBackfilled > 0
	})
	if m := workers["w1"].agent.Metrics(); m.DegradedEntries == 0 || m.DigestsBackfilled == 0 {
		t.Fatalf("w1 agent metrics = %+v, want degraded entry and backfill", m)
	}

	// The whole run executed real actions on every worker; the no-dup
	// invariant is structural (disjoint held sets above), but make sure the
	// cluster was actually doing work, not vacuously converging.
	for id, w := range workers {
		if len(w.executedActions()) == 0 {
			t.Fatalf("worker %s executed nothing through the chaos run", id)
		}
	}
}
