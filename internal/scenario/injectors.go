package scenario

import (
	"fmt"
	"sort"
	"time"

	"autoloop/internal/app"
	"autoloop/internal/sim"
)

// Injector kinds — the fault library.
const (
	// KindThermalCascade fails cooling on a seed node and spreads through
	// its rack at a fixed interval (failed fans cascading down a chassis).
	KindThermalCascade = "thermal-cascade"
	// KindCongestionStorm launches a burst of I/O-heavy jobs under one
	// aggressor tenant, saturating the filesystem.
	KindCongestionStorm = "congestion-storm"
	// KindDiskFailures degrades a run of adjacent OSTs (a correlated media
	// or enclosure failure).
	KindDiskFailures = "disk-failures"
	// KindMisconfigSweep submits a wave of misconfigured applications
	// (thread oversubscription alternating with wrong-library pickups).
	KindMisconfigSweep = "misconfig-sweep"
	// KindSensorFlap toggles a biased temperature sensor on and off —
	// a phantom fault injecting pure false-positive pressure.
	KindSensorFlap = "sensor-flap"
)

// Scoring domains mapping injections onto the loops that should respond.
const (
	DomainHardware    = "hardware"
	DomainStorage     = "storage"
	DomainApplication = "application"
)

// injectorDomains maps each kind to its scoring domain; membership doubles
// as the known-kind set for validation.
var injectorDomains = map[string]string{
	KindThermalCascade:  DomainHardware,
	KindCongestionStorm: DomainStorage,
	KindDiskFailures:    DomainStorage,
	KindMisconfigSweep:  DomainApplication,
	KindSensorFlap:      DomainHardware,
}

// injectorPhantom marks kinds whose symptoms are sensor lies: any finding or
// response attributed to them is a false positive by construction.
var injectorPhantom = map[string]bool{
	KindSensorFlap: true,
}

// InjectorKinds returns the known injector kinds, sorted.
func InjectorKinds() []string {
	kinds := make([]string, 0, len(injectorDomains))
	for k := range injectorDomains {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}

// window is one injection's ground truth: the interval it was active, the
// domain it should surface in, and whether it is a phantom.
type window struct {
	kind    string
	domain  string
	phantom bool
	at, end time.Duration
	detail  string
}

// arm schedules one injection on the engine and records its ground-truth
// window.
func (rt *Runtime) arm(inj Injection) error {
	at := rt.start + inj.At.D()
	var w *window
	var err error
	switch inj.Kind {
	case KindThermalCascade:
		w, err = rt.armThermalCascade(inj, at)
	case KindCongestionStorm:
		w, err = rt.armCongestionStorm(inj, at)
	case KindDiskFailures:
		w, err = rt.armDiskFailures(inj, at)
	case KindMisconfigSweep:
		w, err = rt.armMisconfigSweep(inj, at)
	case KindSensorFlap:
		w, err = rt.armSensorFlap(inj, at)
	default:
		return fmt.Errorf("scenario: unknown injector kind %q", inj.Kind)
	}
	if err != nil {
		return err
	}
	w.kind = inj.Kind
	w.domain = injectorDomains[inj.Kind]
	w.phantom = injectorPhantom[inj.Kind]
	rt.windows = append(rt.windows, w)
	return nil
}

// durOr returns d, or def when d is unset.
func durOr(d time.Duration, def time.Duration) time.Duration {
	if d <= 0 {
		return def
	}
	return d
}

func countOr(n, def int) int {
	if n <= 0 {
		return def
	}
	return n
}

func sevOr(s, def float64) float64 {
	if s <= 0 {
		return def
	}
	return s
}

// armThermalCascade fails cooling on a seed node, then spreads the fault
// through its rack-mates at the cascade interval. Every victim is restored
// at the window's end.
func (rt *Runtime) armThermalCascade(inj Injection, at time.Duration) (*window, error) {
	dur := durOr(inj.Duration.D(), 30*time.Minute)
	spread := durOr(inj.Spread.D(), 5*time.Minute)
	// The default severity multiplies thermal resistance enough that even a
	// lightly loaded node's reported temperature clears the power case's
	// 85°C limit.
	severity := sevOr(inj.Severity, 8)

	nodes := rt.Cluster.Nodes()
	seed := inj.Node
	if seed == "" {
		seed = nodes[rt.injRng.Intn(len(nodes))].ID
	}
	sn, ok := rt.Cluster.Node(seed)
	if !ok {
		return nil, fmt.Errorf("scenario: thermal-cascade: unknown node %q", seed)
	}
	// Victims: the seed first, then its rack-mates in ID order.
	victims := []string{sn.ID}
	for _, n := range nodes {
		if n.Rack == sn.Rack && n.ID != sn.ID {
			victims = append(victims, n.ID)
		}
	}
	if max := countOr(inj.Count, len(victims)); len(victims) > max {
		victims = victims[:max]
	}
	for i, id := range victims {
		t := at + time.Duration(i)*spread
		if t >= at+dur {
			victims = victims[:i]
			break
		}
		id := id
		// Later victims fault slightly less severely — the cascade decays.
		mult := severity * (1 - 0.1*float64(i))
		if mult < 2 {
			mult = 2
		}
		rt.Engine.At(t, func() { _ = rt.Cluster.SetThermalFault(id, mult) })
	}
	armed := append([]string(nil), victims...)
	rt.Engine.At(at+dur, func() {
		for _, id := range armed {
			_ = rt.Cluster.SetThermalFault(id, 1)
		}
	})
	return &window{
		at: at, end: at + dur,
		detail: fmt.Sprintf("%d nodes from %s", len(armed), seed),
	}, nil
}

// armCongestionStorm registers and submits a burst of write-heavy jobs under
// one aggressor tenant. Their walltime equals the storm window, so the
// scheduler reclaims the nodes when it closes.
func (rt *Runtime) armCongestionStorm(inj Injection, at time.Duration) (*window, error) {
	dur := durOr(inj.Duration.D(), 20*time.Minute)
	count := countOr(inj.Count, 8)
	sizeMB := sevOr(inj.Severity, 256)
	tenant := inj.Tenant
	if tenant == "" {
		tenant = "batch"
	}
	iterTime := 15 * time.Second
	iters := int(dur/iterTime) + 10
	for k := 0; k < count; k++ {
		name := fmt.Sprintf("storm-%s-%02d", shortDur(at), k)
		spec := app.Spec{
			Name:        name,
			TotalIters:  iters,
			IterTime:    sim.LogNormal{MeanV: iterTime, CV: 0.1},
			MarkerEvery: 1,
			UtilMean:    0.3,
			IOEvery:     1,
			IOSizeMB:    sizeMB,
			StripeCount: rt.FS.Config().DefaultStripeCount,
		}
		rt.Apps.RegisterSpec(name, spec)
		rt.Engine.At(at, func() {
			_, _ = rt.Scheduler.Submit(name, tenant, 1, dur, 0)
		})
	}
	return &window{
		at: at, end: at + dur,
		detail: fmt.Sprintf("%d writers, tenant %s, %gMB/iter", count, tenant, sizeMB),
	}, nil
}

// armDiskFailures degrades a run of adjacent OSTs to a fraction of their
// bandwidth, then restores them at the window's end.
func (rt *Runtime) armDiskFailures(inj Injection, at time.Duration) (*window, error) {
	dur := durOr(inj.Duration.D(), 20*time.Minute)
	count := countOr(inj.Count, 2)
	health := inj.Severity
	if health <= 0 || health >= 1 {
		health = 0.08
	}
	n := rt.FS.NumOSTs()
	if count > n {
		count = n
	}
	first := rt.injRng.Intn(n)
	if inj.OST != nil {
		first = *inj.OST % n
	}
	ids := make([]int, count)
	for i := range ids {
		ids[i] = (first + i) % n
	}
	rt.Engine.At(at, func() {
		for _, id := range ids {
			_ = rt.FS.SetOSTHealth(id, health)
		}
	})
	rt.Engine.At(at+dur, func() {
		for _, id := range ids {
			_ = rt.FS.SetOSTHealth(id, 1)
		}
	})
	return &window{
		at: at, end: at + dur,
		detail: fmt.Sprintf("%d OSTs from ost%02d at health %.2f", count, first, health),
	}, nil
}

// armMisconfigSweep submits a wave of misconfigured jobs spaced across the
// window, alternating thread oversubscription with wrong-library pickups —
// the two kinds the Misconfiguration case detects from live telemetry.
func (rt *Runtime) armMisconfigSweep(inj Injection, at time.Duration) (*window, error) {
	dur := durOr(inj.Duration.D(), 20*time.Minute)
	count := countOr(inj.Count, 6)
	gap := dur / time.Duration(count)
	for k := 0; k < count; k++ {
		mis := app.MisconfigThreads
		if k%2 == 1 {
			mis = app.MisconfigWrongLib
		}
		name := fmt.Sprintf("sweep-%s-%02d", shortDur(at), k)
		spec := app.Spec{
			Name:        name,
			TotalIters:  400,
			IterTime:    sim.LogNormal{MeanV: 20 * time.Second, CV: 0.1},
			MarkerEvery: 1,
			Misconfig:   mis,
		}
		rt.Apps.RegisterSpec(name, spec)
		rt.Engine.At(at+time.Duration(k)*gap, func() {
			_, _ = rt.Scheduler.Submit(name, "sweep", 1, dur, 0)
		})
	}
	return &window{
		at: at, end: at + dur,
		detail: fmt.Sprintf("%d misconfigured jobs", count),
	}, nil
}

// armSensorFlap toggles a multiplicative temperature-sensor bias on a few
// nodes — a phantom fault: the physical state is healthy, only the readings
// lie, so every attributed finding is a false positive.
func (rt *Runtime) armSensorFlap(inj Injection, at time.Duration) (*window, error) {
	dur := durOr(inj.Duration.D(), 20*time.Minute)
	flap := durOr(inj.Flap.D(), 2*time.Minute)
	severity := sevOr(inj.Severity, 1.6)
	count := countOr(inj.Count, 2)

	nodes := rt.Cluster.Nodes()
	if count > len(nodes) {
		count = len(nodes)
	}
	var victims []string
	if inj.Node != "" {
		if _, ok := rt.Cluster.Node(inj.Node); !ok {
			return nil, fmt.Errorf("scenario: sensor-flap: unknown node %q", inj.Node)
		}
		victims = append(victims, inj.Node)
	}
	for len(victims) < count {
		id := nodes[rt.injRng.Intn(len(nodes))].ID
		dup := false
		for _, have := range victims {
			if have == id {
				dup = true
				break
			}
		}
		if !dup {
			victims = append(victims, id)
		}
	}
	end := at + dur
	on := false
	rt.Engine.Every(at, flap, func() bool {
		if rt.Engine.Now() >= end {
			for _, id := range victims {
				_ = rt.Cluster.SetSensorFault(id, 1)
			}
			return false
		}
		on = !on
		mult := 1.0
		if on {
			mult = severity
		}
		for _, id := range victims {
			_ = rt.Cluster.SetSensorFault(id, mult)
		}
		return true
	})
	return &window{
		at: at, end: end,
		detail: fmt.Sprintf("%d sensors biased ×%.2g every %v", len(victims), severity, flap),
	}, nil
}

// shortDur renders a schedule time compactly for generated job names
// ("1h30m0s" -> "1h30m0s" is fine; names only need determinism+uniqueness).
func shortDur(d time.Duration) string { return d.String() }
