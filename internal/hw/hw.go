// Package hw models the hardware plane of a simulated HPC system: nodes
// grouped into racks, with per-node utilization, memory, power, and
// temperature models, hardware sensors exposed as telemetry collectors, and
// failure injection.
//
// The model is deliberately first-order — power is idle+dynamic·utilization,
// temperature follows an RC response toward a power-dependent steady state —
// because the autonomy loops only require signals with realistic structure
// (correlations across domains, inertia, noise), not cycle-accurate hardware.
package hw

import (
	"fmt"
	"math"
	"sort"
	"time"

	"autoloop/internal/sim"
	"autoloop/internal/telemetry"
)

// NodeState describes the operational state of a node.
type NodeState int

// Node states.
const (
	NodeUp NodeState = iota
	NodeDown
	NodeDrain // running work finishes but nothing new is placed
)

// String implements fmt.Stringer.
func (s NodeState) String() string {
	switch s {
	case NodeUp:
		return "up"
	case NodeDown:
		return "down"
	case NodeDrain:
		return "drain"
	}
	return "unknown"
}

// Config describes the homogeneous hardware of a cluster.
type Config struct {
	Nodes        int
	NodesPerRack int
	CoresPerNode int
	MemGBPerNode float64

	IdlePowerW    float64 // per node at zero utilization
	DynamicPowerW float64 // additional per node at full utilization

	AmbientC    float64 // facility ambient temperature
	ThermalRes  float64 // °C per watt at steady state
	ThermalTauS float64 // RC time constant, seconds
	SensorNoise float64 // stddev of multiplicative sensor noise
}

// DefaultConfig returns a small but realistic configuration: 64 nodes,
// 8 per rack, 64 cores each.
func DefaultConfig() Config {
	return Config{
		Nodes:         64,
		NodesPerRack:  8,
		CoresPerNode:  64,
		MemGBPerNode:  256,
		IdlePowerW:    120,
		DynamicPowerW: 380,
		AmbientC:      22,
		ThermalRes:    0.08,
		ThermalTauS:   90,
		SensorNoise:   0.01,
	}
}

// Node is one compute node.
type Node struct {
	ID    string
	Rack  string
	State NodeState

	Cores     int
	CoresUsed int
	MemGB     float64
	MemUsedGB float64

	// util is the instantaneous CPU utilization in [0,1] driven by the
	// applications currently running on the node.
	util float64
	// tempC is the simulated component temperature with first-order inertia.
	tempC      float64
	lastUpdate time.Duration
	// thermalMult scales the node's thermal resistance; > 1 models a fan or
	// heatsink fault (failure injection for the holistic experiments).
	thermalMult float64
	// sensorMult biases the node's reported temperature without changing the
	// physical model: != 1 models a miscalibrated or flapping sensor, the
	// false-positive pressure source of the scenario engine.
	sensorMult float64
}

// Cluster owns the node fleet.
type Cluster struct {
	cfg    Config
	engine *sim.Engine
	nodes  []*Node
	byID   map[string]*Node
}

// New builds a cluster per cfg, attached to engine for time and randomness.
func New(engine *sim.Engine, cfg Config) *Cluster {
	if cfg.Nodes <= 0 {
		panic("cluster: config requires at least one node")
	}
	if cfg.NodesPerRack <= 0 {
		cfg.NodesPerRack = cfg.Nodes
	}
	c := &Cluster{cfg: cfg, engine: engine, byID: make(map[string]*Node, cfg.Nodes)}
	for i := 0; i < cfg.Nodes; i++ {
		n := &Node{
			ID:          fmt.Sprintf("n%03d", i),
			Rack:        fmt.Sprintf("r%02d", i/cfg.NodesPerRack),
			Cores:       cfg.CoresPerNode,
			MemGB:       cfg.MemGBPerNode,
			tempC:       cfg.AmbientC,
			thermalMult: 1,
			sensorMult:  1,
		}
		c.nodes = append(c.nodes, n)
		c.byID[n.ID] = n
	}
	return c
}

// Nodes returns the node fleet in ID order. Callers must not mutate state
// except through the cluster's methods.
func (c *Cluster) Nodes() []*Node { return c.nodes }

// Node looks a node up by ID.
func (c *Cluster) Node(id string) (*Node, bool) {
	n, ok := c.byID[id]
	return n, ok
}

// UpNodes returns the IDs of nodes currently accepting work.
func (c *Cluster) UpNodes() []string {
	var ids []string
	for _, n := range c.nodes {
		if n.State == NodeUp {
			ids = append(ids, n.ID)
		}
	}
	sort.Strings(ids)
	return ids
}

// SetUtil sets a node's instantaneous CPU utilization (clamped to [0,1]),
// normally driven by the application framework.
func (c *Cluster) SetUtil(id string, util float64) {
	n, ok := c.byID[id]
	if !ok {
		return
	}
	c.advanceThermal(n)
	n.util = math.Max(0, math.Min(1, util))
}

// Util returns a node's current utilization.
func (c *Cluster) Util(id string) float64 {
	if n, ok := c.byID[id]; ok {
		return n.util
	}
	return 0
}

// PowerW returns the node's instantaneous electrical power draw.
func (n *Node) PowerW(cfg Config) float64 {
	if n.State == NodeDown {
		return 0
	}
	return cfg.IdlePowerW + cfg.DynamicPowerW*n.util
}

// advanceThermal moves the node temperature toward its power-dependent
// steady state with first-order dynamics since the last update.
func (c *Cluster) advanceThermal(n *Node) {
	now := c.engine.Now()
	dt := (now - n.lastUpdate).Seconds()
	n.lastUpdate = now
	if dt <= 0 {
		return
	}
	target := c.cfg.AmbientC + c.cfg.ThermalRes*n.thermalMult*n.PowerW(c.cfg)
	alpha := 1 - math.Exp(-dt/c.cfg.ThermalTauS)
	n.tempC += (target - n.tempC) * alpha
}

// SetAmbient changes the inlet-air temperature every node cools against,
// coupling the facility's supply-air setpoint into the hardware thermal
// model (raising the setpoint saves cooling energy but heats components).
// All node temperatures are advanced before the change takes effect.
func (c *Cluster) SetAmbient(ambientC float64) {
	for _, n := range c.nodes {
		c.advanceThermal(n)
	}
	c.cfg.AmbientC = ambientC
}

// Ambient returns the current inlet-air temperature.
func (c *Cluster) Ambient() float64 { return c.cfg.AmbientC }

// SetThermalFault scales a node's effective thermal resistance; multiplier 1
// is healthy, larger values model cooling faults (failed fans, blocked
// airflow) that drive the component temperature far above the fleet.
func (c *Cluster) SetThermalFault(id string, multiplier float64) error {
	n, ok := c.byID[id]
	if !ok {
		return fmt.Errorf("cluster: unknown node %q", id)
	}
	if multiplier < 0.1 {
		multiplier = 0.1
	}
	c.advanceThermal(n)
	n.thermalMult = multiplier
	return nil
}

// SetSensorFault biases the reported (not physical) temperature of a node by
// a multiplicative factor; 1 is a healthy sensor. Flapping sensors toggle the
// factor on and off to inject false-positive pressure: the thermal model is
// untouched, only the telemetry lies.
func (c *Cluster) SetSensorFault(id string, multiplier float64) error {
	n, ok := c.byID[id]
	if !ok {
		return fmt.Errorf("cluster: unknown node %q", id)
	}
	if multiplier < 0.1 {
		multiplier = 0.1
	}
	n.sensorMult = multiplier
	return nil
}

// TotalPowerW sums instantaneous power over the fleet (IT power, feeding the
// facility model).
func (c *Cluster) TotalPowerW() float64 {
	total := 0.0
	for _, n := range c.nodes {
		total += n.PowerW(c.cfg)
	}
	return total
}

// Collector returns a telemetry collector emitting, per up node:
// node.cpu.util, node.power.watts, node.temp.celsius, node.mem.used_gb,
// node.cores.used — the "System Hardware" sensor domain of Fig. 1. Every
// round hands out the same label map (read-only for consumers) and series
// refs per node; they are built when a node is first collected, not here, so
// assembling a 10k-node facility does not pay for 10k maps up front.
func (c *Cluster) Collector() telemetry.Collector {
	// nodeSensors is one node's static sensor identity: the label map its
	// five metrics share and one series ref per metric.
	type nodeSensors struct {
		labels telemetry.Labels
		refs   [5]telemetry.Ref
	}
	var sensors []nodeSensors
	return telemetry.CollectorFunc(func(now time.Duration) []telemetry.Point {
		if sensors == nil {
			sensors = make([]nodeSensors, len(c.nodes))
		}
		noise := func() float64 {
			if c.cfg.SensorNoise <= 0 {
				return 1
			}
			return 1 + c.engine.Rand().NormFloat64()*c.cfg.SensorNoise
		}
		pts := make([]telemetry.Point, 0, len(c.nodes)*5)
		for i, n := range c.nodes {
			if n.State == NodeDown {
				continue
			}
			c.advanceThermal(n)
			m := &sensors[i]
			if m.labels == nil {
				m.labels = telemetry.Labels{"node": n.ID, "rack": n.Rack}
			}
			pts = append(pts,
				telemetry.Point{Name: "node.cpu.util", Labels: m.labels, Time: now, Value: clamp01(n.util * noise()), Ref: &m.refs[0]},
				telemetry.Point{Name: "node.power.watts", Labels: m.labels, Time: now, Value: n.PowerW(c.cfg) * noise(), Ref: &m.refs[1]},
				telemetry.Point{Name: "node.temp.celsius", Labels: m.labels, Time: now, Value: n.tempC * n.sensorMult * noise(), Ref: &m.refs[2]},
				telemetry.Point{Name: "node.mem.used_gb", Labels: m.labels, Time: now, Value: n.MemUsedGB, Ref: &m.refs[3]},
				telemetry.Point{Name: "node.cores.used", Labels: m.labels, Time: now, Value: float64(n.CoresUsed), Ref: &m.refs[4]},
			)
		}
		return pts
	})
}

func clamp01(v float64) float64 { return math.Max(0, math.Min(1, v)) }
