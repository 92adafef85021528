package facility

import (
	"testing"
	"time"

	"autoloop/internal/hw"
	"autoloop/internal/sim"
)

// TestAmbientCouplingHeatsNodes verifies the facility→hardware coupling:
// raising the supply setpoint raises node inlet temperature and, after the
// thermal time constant, steady-state component temperature.
func TestAmbientCouplingHeatsNodes(t *testing.T) {
	e := sim.NewEngine(1)
	ccfg := hw.DefaultConfig()
	ccfg.Nodes = 4
	ccfg.SensorNoise = 0
	cl := hw.New(e, ccfg)
	plant := New(e, DefaultConfig(), cl)
	plant.BindAmbient(cl)

	if got := cl.Ambient(); got != plant.SupplySetpointC()+2 {
		t.Fatalf("ambient = %v, want setpoint+2 = %v", got, plant.SupplySetpointC()+2)
	}
	cl.SetUtil("n000", 0.8)
	col := cl.Collector()
	settle := func() float64 {
		for i := 0; i < 40; i++ {
			e.RunUntil(e.Now() + 30*time.Second)
			col.Collect(e.Now())
		}
		var temp float64
		for _, p := range col.Collect(e.Now()) {
			if p.Name == "node.temp.celsius" && p.Labels["node"] == "n000" {
				temp = p.Value
			}
		}
		return temp
	}
	before := settle()
	plant.SetSupplySetpointC(plant.SupplySetpointC() + 6)
	after := settle()
	if after-before < 5 || after-before > 7 {
		t.Errorf("node temp moved %.1f°C for a 6°C setpoint raise, want ~6", after-before)
	}
}

// TestCouplingWithoutBindIsInert ensures the coupling is opt-in.
func TestCouplingWithoutBindIsInert(t *testing.T) {
	e := sim.NewEngine(1)
	ccfg := hw.DefaultConfig()
	ccfg.Nodes = 2
	cl := hw.New(e, ccfg)
	plant := New(e, DefaultConfig(), cl)
	ambient := cl.Ambient()
	plant.SetSupplySetpointC(28)
	if cl.Ambient() != ambient {
		t.Error("unbound plant changed cluster ambient")
	}
}

// TestEnergyThermalTradeoff demonstrates the whole point of the coupling:
// a higher setpoint costs component margin but saves cooling power.
func TestEnergyThermalTradeoff(t *testing.T) {
	e := sim.NewEngine(1)
	ccfg := hw.DefaultConfig()
	ccfg.Nodes = 8
	ccfg.SensorNoise = 0
	cl := hw.New(e, ccfg)
	plant := New(e, DefaultConfig(), cl)
	plant.BindAmbient(cl)
	for _, n := range cl.UpNodes() {
		cl.SetUtil(n, 0.9)
	}
	lowCool := plant.CoolingPowerW(e.Now())
	plant.SetSupplySetpointC(28)
	highCool := plant.CoolingPowerW(e.Now())
	if highCool >= lowCool {
		t.Errorf("cooling power should fall with higher setpoint: %.0fW -> %.0fW", lowCool, highCool)
	}
}
