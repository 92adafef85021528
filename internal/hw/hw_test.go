package hw

import (
	"testing"
	"time"

	"autoloop/internal/sim"
)

func newTestCluster(t *testing.T) (*sim.Engine, *Cluster) {
	t.Helper()
	e := sim.NewEngine(1)
	cfg := DefaultConfig()
	cfg.Nodes = 4
	cfg.NodesPerRack = 2
	cfg.SensorNoise = 0
	return e, New(e, cfg)
}

func TestNewAssignsRacks(t *testing.T) {
	_, c := newTestCluster(t)
	nodes := c.Nodes()
	if len(nodes) != 4 {
		t.Fatalf("got %d nodes", len(nodes))
	}
	if nodes[0].Rack != "r00" || nodes[3].Rack != "r01" {
		t.Errorf("rack assignment: %s %s", nodes[0].Rack, nodes[3].Rack)
	}
	if _, ok := c.Node("n002"); !ok {
		t.Error("lookup n002 failed")
	}
	if _, ok := c.Node("bogus"); ok {
		t.Error("lookup bogus succeeded")
	}
}

func TestNewZeroNodesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(sim.NewEngine(1), Config{})
}

func TestUpNodesExcludesDownAndDrain(t *testing.T) {
	_, c := newTestCluster(t)
	c.byID["n001"].State = NodeDown
	c.byID["n002"].State = NodeDrain
	up := c.UpNodes()
	if len(up) != 2 || up[0] != "n000" || up[1] != "n003" {
		t.Errorf("UpNodes = %v", up)
	}
}

func TestPowerModel(t *testing.T) {
	e, c := newTestCluster(t)
	cfg := c.cfg
	n, _ := c.Node("n000")
	if got := n.PowerW(cfg); got != cfg.IdlePowerW {
		t.Errorf("idle power = %v, want %v", got, cfg.IdlePowerW)
	}
	c.SetUtil("n000", 1.0)
	if got := n.PowerW(cfg); got != cfg.IdlePowerW+cfg.DynamicPowerW {
		t.Errorf("full power = %v", got)
	}
	_ = e
	// Total power: 1 node at full + 3 idle.
	want := 4*cfg.IdlePowerW + cfg.DynamicPowerW
	if got := c.TotalPowerW(); got != want {
		t.Errorf("TotalPowerW = %v, want %v", got, want)
	}
}

func TestThermalApproachesSteadyState(t *testing.T) {
	e, c := newTestCluster(t)
	cfg := c.cfg
	c.SetUtil("n000", 1.0)
	// Sample repeatedly so the thermal state advances with the clock.
	col := c.Collector()
	for i := 1; i <= 60; i++ {
		e.RunUntil(time.Duration(i) * 30 * time.Second)
		col.Collect(e.Now())
	}
	n, _ := c.Node("n000")
	target := cfg.AmbientC + cfg.ThermalRes*(cfg.IdlePowerW+cfg.DynamicPowerW)
	if n.tempC < target-1 || n.tempC > target+1 {
		t.Errorf("temp = %.1f, want ~%.1f after 30min", n.tempC, target)
	}
	// Idle node stays near ambient.
	idle, _ := c.Node("n003")
	idleTarget := cfg.AmbientC + cfg.ThermalRes*cfg.IdlePowerW
	if idle.tempC < cfg.AmbientC-1 || idle.tempC > idleTarget+1 {
		t.Errorf("idle temp = %.1f, want within [%.1f, %.1f]", idle.tempC, cfg.AmbientC, idleTarget)
	}
}

func TestCollectorEmitsPerUpNode(t *testing.T) {
	e, c := newTestCluster(t)
	c.byID["n001"].State = NodeDown
	pts := c.Collector().Collect(e.Now())
	if len(pts) != 3*5 {
		t.Fatalf("got %d points, want 15 (3 up nodes x 5 metrics)", len(pts))
	}
	seen := map[string]bool{}
	for _, p := range pts {
		seen[p.Name] = true
		if p.Labels["node"] == "n001" {
			t.Error("down node must not report")
		}
	}
	for _, name := range []string{"node.cpu.util", "node.power.watts", "node.temp.celsius", "node.mem.used_gb", "node.cores.used"} {
		if !seen[name] {
			t.Errorf("missing metric %s", name)
		}
	}
}

func TestSetUtilClamps(t *testing.T) {
	_, c := newTestCluster(t)
	c.SetUtil("n000", 1.7)
	if got := c.Util("n000"); got != 1 {
		t.Errorf("util = %v, want clamped 1", got)
	}
	c.SetUtil("n000", -0.3)
	if got := c.Util("n000"); got != 0 {
		t.Errorf("util = %v, want clamped 0", got)
	}
	if got := c.Util("ghost"); got != 0 {
		t.Errorf("unknown node util = %v", got)
	}
}

func TestNodeStateString(t *testing.T) {
	if NodeUp.String() != "up" || NodeDown.String() != "down" || NodeDrain.String() != "drain" {
		t.Error("NodeState.String")
	}
	if NodeState(42).String() != "unknown" {
		t.Error("unknown NodeState.String")
	}
}
