package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"autoloop/internal/bus"
	"autoloop/internal/cases"
	"autoloop/internal/cluster"
	"autoloop/internal/control"
	"autoloop/internal/gateway"
	"autoloop/internal/tsdb"
)

const (
	clusterWorkers = 3
	scatterRate    = 20.0 // cluster3's open-loop rate, requests per second
)

// worker is one cluster member: an assembled facility with no loops of its
// own, a bridge to the coordinator, and an agent that spawns what it is
// assigned.
type worker struct {
	id     string
	n      *node
	svc    *tsdb.Service
	client *bus.Client
	agent  *cluster.Agent
	rtt    *rttProbe
}

// clusterRig runs an in-process coordinator and three workers joined over
// real loopback TCP, stepped round-robin on the run goroutine.
type clusterRig struct {
	it *iter

	bus     *bus.Bus
	coord   *cluster.Coordinator
	csrv    *bus.Server
	front   *front
	workers []*worker
	specs   []control.LoopSpec

	vnow     atomic.Int64
	stopTick chan struct{}
	tickDone chan struct{}
}

func (r *clusterRig) setup() error {
	it := r.it
	spec, err := loadSpec(it)
	if err != nil {
		return err
	}
	data, err := frozen.ReadFile("workloads/cluster3.specs.json")
	if err != nil {
		return err
	}
	if r.specs, err = control.ParseSpecs(data); err != nil {
		return err
	}

	r.bus = bus.New()
	r.coord = cluster.NewCoordinator(r.bus, cluster.Options{
		Registry: cases.NewRegistry(),
		// A grant holds its subject for a wall-clock window, and the whole
		// virtual horizon passes in a few wall seconds; a window longer than
		// any run makes every verdict a function of digest order alone.
		ArbWindow: time.Hour,
	})
	if r.csrv, err = bus.NewServer("127.0.0.1:0", cluster.CoordExportPattern, r.bus); err != nil {
		return err
	}
	r.stopTick, r.tickDone = make(chan struct{}), make(chan struct{})
	go func() { // the coordinator's lease sweep and assignment retry, at modad's cadence
		defer close(r.tickDone)
		t := time.NewTicker(250 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-r.stopTick:
				return
			case now := <-t.C:
				r.coord.Tick(now)
			}
		}
	}()

	var assembled time.Duration
	for i := 0; i < clusterWorkers; i++ {
		ws := *spec
		ws.Name = fmt.Sprintf("%s-w%d", spec.Name, i+1)
		ws.Seed = spec.Seed*clusterWorkers + int64(i)
		t0 := time.Now()
		n, err := assemble(it, &ws, "")
		if err != nil {
			return err
		}
		assembled += time.Since(t0)
		w := &worker{id: fmt.Sprintf("w%d", i+1), n: n}
		r.workers = append(r.workers, w)
		rt := n.rt
		w.svc = tsdb.NewService(rt.DB).Attach(rt.Bus, w.id)
		if it.rec != nil {
			w.rtt = newRTTProbe(rt.Bus, w.id)
		}
		if w.client, err = bus.Dial(r.csrv.Addr(), cluster.WorkerExportPattern, rt.Bus); err != nil {
			return err
		}
		w.agent, err = cluster.NewAgent(rt.Bus, rt.Ctl, w.svc, cluster.AgentOptions{
			ID: w.id,
			// Long enough that a scheduling hiccup on a small box is a slow
			// round trip, not a fail-open round that changes the outcome.
			ArbTimeout: 2 * time.Second,
			// Heartbeats carry the store's size; the fleet's round counter is
			// not safe to read from the heartbeat goroutine.
			Stats: func() (int, uint64, int) { return rt.DB.NumSeries(), rt.DB.Appended(), 0 },
		})
		if err != nil {
			return err
		}
	}
	if err := waitUntil(5*time.Second, func() bool { return r.coord.Stats().Alive == clusterWorkers }); err != nil {
		return fmt.Errorf("workers joining: %w", err)
	}

	// Admit the fleet only once the ring is complete, so placement is a
	// function of the names alone.
	t0 := time.Now()
	for _, ls := range r.specs {
		if _, err := r.coord.AddSpec(ls); err != nil {
			return err
		}
	}
	placed := waitUntil(5*time.Second, func() bool { return r.coord.Stats().Placed == len(r.specs) })
	it.res.check(placed == nil, "only %d of %d specs placed", r.coord.Stats().Placed, len(r.specs))
	if it.rec != nil {
		it.res.layers["scenario.assemble_s"] += assembled.Seconds()
		it.res.layers["control.spawn_s"] += time.Since(t0).Seconds() // AddSpec to the last ack, over the wire
		for _, w := range r.workers {
			it.rec.wrapLoops(w.n.rt.Ctl.Coordinator().Loops())
		}
	}

	r.front, err = serveGateway(it, gateway.New(gateway.Options{Cluster: r.coord, Bus: r.bus}), &queryClient{
		rate: scatterRate, vnow: &r.vnow,
		next: scatterMix(clusterWorkers, spec.Facility.Nodes, spec.Facility.NodesPerRack),
	})
	return err
}

func waitUntil(limit time.Duration, cond func() bool) error {
	deadline := time.Now().Add(limit)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("not within %v", limit)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

func (r *clusterRig) run() {
	r.front.during(func() { r.it.measure(r.step) })
}

// step advances the workers round-robin, one sampling round at a time.
func (r *clusterRig) step() {
	spec := r.workers[0].n.spec
	sample, _ := cadence(spec)
	for t := sample; t <= spec.Horizon.D(); t += sample {
		for _, w := range r.workers {
			w.n.rt.Engine.RunUntil(t)
		}
		r.vnow.Store(int64(t)) // every worker's store now reaches t
	}
}

func (r *clusterRig) finish() error {
	it, res := r.it, r.it.res
	for _, w := range r.workers {
		w.n.score()
	}
	r.front.fold(res)

	// Attempted: every arbitration round trip. Failed: any round that ran
	// degraded, which is where a verdict timeout leaves the agent.
	cs := r.coord.Stats()
	var degraded, buffered uint64
	for _, w := range r.workers {
		m := w.agent.Metrics()
		degraded += m.DegradedRounds + m.DegradedEntries
		buffered += m.DigestsBuffered
	}
	res.ops += int(cs.DigestsSeen)
	if degraded+buffered > 0 {
		res.failf("%d degraded rounds, %d digests buffered for backfill", degraded, buffered)
	}
	res.check(cs.Placed == len(r.specs), "%d of %d specs placed at the end of the run", cs.Placed, len(r.specs))
	res.check(cs.ScatterPartials == 0 && cs.FanTimeouts == 0, "%d partial scatters, %d fan-out timeouts", cs.ScatterPartials, cs.FanTimeouts)

	if it.rec != nil {
		l := res.layers
		l["cluster.digests"] = float64(cs.DigestsSeen)
		l["cluster.denied"] = float64(cs.DigestsDenied)
		l["cluster.degraded_rounds"] = float64(degraded)
		l["cluster.fanouts"] = float64(cs.Fanouts)
		l["cluster.scatter_partials"] = float64(cs.ScatterPartials)
		l["cluster.placed"] = float64(cs.Placed)
		for _, w := range r.workers {
			res.dists["cluster.arb_rtt_ms"] = append(res.dists["cluster.arb_rtt_ms"], w.rtt.take()...)
		}
	}
	return nil
}

func (r *clusterRig) close() {
	for _, w := range r.workers {
		if w.agent != nil {
			w.agent.Close()
		}
		if w.client != nil {
			_ = w.client.Close()
			<-w.client.Done()
		}
		if w.svc != nil {
			w.svc.Close()
		}
	}
	if r.front != nil {
		r.front.close()
	}
	if r.stopTick != nil {
		close(r.stopTick)
		<-r.tickDone
	}
	if r.csrv != nil {
		_ = r.csrv.Close()
	}
	if r.coord != nil {
		r.coord.Close()
	}
}

// rttProbe measures cross-node arbitration from the worker's side of the
// wire: the wall time between the agent publishing a digest and the
// coordinator's verdict for the same sequence number arriving on the
// worker's bus. The digest is published on the run goroutine, the verdict
// on the bridge client's read goroutine.
type rttProbe struct {
	mu   sync.Mutex
	sent map[uint64]time.Time
	ms   []float64
}

func newRTTProbe(b *bus.Bus, worker string) *rttProbe {
	p := &rttProbe{sent: make(map[uint64]time.Time)}
	b.Subscribe(cluster.TopicDigest, func(env bus.Envelope) {
		if d, ok := env.Payload.(cluster.Digest); ok && !d.Backfill {
			p.mu.Lock()
			p.sent[d.Seq] = time.Now()
			p.mu.Unlock()
		}
	})
	b.Subscribe(cluster.TopicVerdict, func(env bus.Envelope) {
		var v cluster.Verdict
		if bus.DecodePayload(env, &v) != nil || v.Worker != worker {
			return // verdicts are broadcast; sequence numbers are per worker
		}
		p.mu.Lock()
		if t0, ok := p.sent[v.Seq]; ok {
			p.ms = append(p.ms, float64(time.Since(t0))/1e6)
			delete(p.sent, v.Seq)
		}
		p.mu.Unlock()
	})
	return p
}

func (p *rttProbe) take() []float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ms
}
