// Package facility models the building-infrastructure domain of the paper's
// Fig. 1: a cooling plant removing the cluster's IT heat load, outside and
// supply air temperatures, cooling power, and the resulting PUE.
//
// The model is first-order: cooling power is the IT load divided by a
// coefficient of performance that degrades as the outside temperature rises
// and improves with a higher supply-temperature setpoint. The setpoint is an
// actuator — facility-domain autonomy loops can raise it to save cooling
// energy at the cost of hotter component temperatures.
package facility

import (
	"math"
	"time"

	"autoloop/internal/sim"
	"autoloop/internal/telemetry"
)

// Config parameterizes the facility model.
type Config struct {
	BaseCOP       float64 // coefficient of performance at reference temps
	OutsideMeanC  float64 // daily mean outside temperature
	OutsideSwingC float64 // daily sinusoidal swing amplitude
	SupplySetC    float64 // initial supply air setpoint
	OverheadW     float64 // fixed facility overhead (lighting, UPS losses)
	SensorNoise   float64 // multiplicative sensor noise stddev
	DayLength     time.Duration
}

// DefaultConfig returns a temperate-climate facility.
func DefaultConfig() Config {
	return Config{
		BaseCOP:       4.0,
		OutsideMeanC:  15,
		OutsideSwingC: 8,
		SupplySetC:    20,
		OverheadW:     2000,
		SensorNoise:   0.01,
		DayLength:     24 * time.Hour,
	}
}

// ITLoad reports the instantaneous IT power draw to be cooled; the cluster's
// TotalPowerW method satisfies it.
type ITLoad interface {
	TotalPowerW() float64
}

// AmbientSink receives the effective inlet-air temperature implied by the
// plant's supply setpoint; the cluster implements it, closing the
// facility-to-hardware thermal coupling.
type AmbientSink interface {
	SetAmbient(ambientC float64)
}

// Plant is the cooling plant.
type Plant struct {
	cfg    Config
	engine *sim.Engine
	load   ITLoad
	supply float64
	sink   AmbientSink
}

// New builds a plant cooling the given IT load.
func New(engine *sim.Engine, cfg Config, load ITLoad) *Plant {
	if load == nil {
		panic("facility: nil IT load")
	}
	if cfg.DayLength <= 0 {
		cfg.DayLength = 24 * time.Hour
	}
	return &Plant{cfg: cfg, engine: engine, load: load, supply: cfg.SupplySetC}
}

// OutsideC returns the outside temperature at virtual time now, following a
// sinusoidal daily cycle with its minimum at 04:00.
func (p *Plant) OutsideC(now time.Duration) float64 {
	frac := math.Mod(now.Hours(), p.cfg.DayLength.Hours()) / p.cfg.DayLength.Hours()
	// Minimum at 4am, maximum at 4pm.
	phase := 2 * math.Pi * (frac - 4.0/24.0)
	return p.cfg.OutsideMeanC - p.cfg.OutsideSwingC*math.Cos(phase)
}

// SupplySetpointC returns the current supply-air setpoint.
func (p *Plant) SupplySetpointC() float64 { return p.supply }

// BindAmbient couples the plant's supply setpoint to a consumer of inlet-air
// temperature (normally the cluster): every setpoint change propagates as
// supply + 2°C of rack-level heat pickup.
func (p *Plant) BindAmbient(sink AmbientSink) {
	p.sink = sink
	p.pushAmbient()
}

func (p *Plant) pushAmbient() {
	if p.sink != nil {
		p.sink.SetAmbient(p.supply + 2)
	}
}

// SetSupplySetpointC adjusts the supply-air setpoint actuator, clamped to a
// safe [14, 30] °C band, propagating to any bound ambient sink.
func (p *Plant) SetSupplySetpointC(c float64) {
	p.supply = math.Max(14, math.Min(30, c))
	p.pushAmbient()
}

// COP returns the plant's coefficient of performance at time now: higher
// supply setpoints and cooler outside air both improve it.
func (p *Plant) COP(now time.Duration) float64 {
	outside := p.OutsideC(now)
	cop := p.cfg.BaseCOP + 0.12*(p.supply-20) - 0.08*(outside-15)
	return math.Max(1.2, cop)
}

// CoolingPowerW returns the electrical power the plant draws at time now to
// remove the current IT heat load.
func (p *Plant) CoolingPowerW(now time.Duration) float64 {
	return p.load.TotalPowerW() / p.COP(now)
}

// PUE returns the power usage effectiveness at time now:
// (IT + cooling + overhead) / IT. Returns +Inf when the IT load is zero.
func (p *Plant) PUE(now time.Duration) float64 {
	it := p.load.TotalPowerW()
	if it <= 0 {
		return math.Inf(1)
	}
	return (it + p.CoolingPowerW(now) + p.cfg.OverheadW) / it
}

// Collector exposes the facility sensor domain: facility.outside.celsius,
// facility.supply.setpoint, facility.cooling.watts, facility.it.watts,
// facility.pue. Every round hands out the same label map (read-only for
// consumers) and the same five series refs.
func (p *Plant) Collector() telemetry.Collector {
	labels := telemetry.Labels{"plant": "p0"}
	refs := new([5]telemetry.Ref)
	return telemetry.CollectorFunc(func(now time.Duration) []telemetry.Point {
		noise := func() float64 {
			if p.cfg.SensorNoise <= 0 {
				return 1
			}
			return 1 + p.engine.Rand().NormFloat64()*p.cfg.SensorNoise
		}
		pue := p.PUE(now)
		pts := []telemetry.Point{
			{Name: "facility.outside.celsius", Labels: labels, Time: now, Value: p.OutsideC(now) * noise(), Ref: &refs[0]},
			{Name: "facility.supply.setpoint", Labels: labels, Time: now, Value: p.supply, Ref: &refs[1]},
			{Name: "facility.cooling.watts", Labels: labels, Time: now, Value: p.CoolingPowerW(now) * noise(), Ref: &refs[2]},
			{Name: "facility.it.watts", Labels: labels, Time: now, Value: p.load.TotalPowerW() * noise(), Ref: &refs[3]},
		}
		if !math.IsInf(pue, 1) {
			pts = append(pts, telemetry.Point{Name: "facility.pue", Labels: labels, Time: now, Value: pue, Ref: &refs[4]})
		}
		return pts
	})
}
