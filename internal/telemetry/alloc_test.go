package telemetry_test

import (
	"strings"
	"testing"
	"time"

	"autoloop/internal/bus"
	"autoloop/internal/facility"
	"autoloop/internal/hw"
	"autoloop/internal/pfs"
	"autoloop/internal/sched"
	"autoloop/internal/sim"
	"autoloop/internal/telemetry"
	"autoloop/internal/tsdb"
)

// samplingRig builds the monitoring plane of Fig. 1 over the real hardware,
// filesystem, plant and scheduler collectors into a store retaining ten
// rounds, with two tenants writing throughout, and warms it until every
// series' retained window has stopped growing. b, when non-nil, receives
// every round's points. round advances the clock one cadence and samples.
func samplingRig(t *testing.T, b *bus.Bus) (pipe *telemetry.Pipeline, round func()) {
	t.Helper()
	engine := sim.NewEngine(1)
	hcfg := hw.DefaultConfig()
	hcfg.Nodes = 16
	cl := hw.New(engine, hcfg)
	plant := facility.New(engine, facility.DefaultConfig(), cl)
	fs := pfs.New(engine, pfs.Config{OSTs: 4, OSTBandwidthMBps: 100, DefaultStripeCount: 2})
	scheduler := sched.New(engine, cl.UpNodes(), sched.DefaultExtensionPolicy())
	const cadence, rounds = time.Second, 200
	reg := telemetry.NewRegistryOf(cl.Collector(), plant.Collector(), fs.Collector(), scheduler.Collector())
	pipe = telemetry.NewPipeline(reg, tsdb.New(10*cadence))
	if b != nil {
		pipe.PublishTo(b, "test")
	}
	// Each write takes half a cadence on its file's two OSTs, so both
	// tenants complete two writes in every round of the test.
	for _, tenant := range []string{"t1", "t2"} {
		f := fs.Open(tenant, 2, nil)
		for i := 0; i < 2*rounds; i++ {
			fs.Write(f, 100, nil)
		}
	}
	now := time.Duration(0)
	round = func() {
		now += cadence
		engine.RunUntil(now)
		pipe.Sample(now)
	}
	for i := 0; i < 40; i++ {
		round()
	}
	return pipe, round
}

// TestSamplingRoundAllocatesNothing is the monitoring plane's allocation
// gate: every collector refills its own point buffer, the gather buffer is
// reused, and every point carries its series ref into a store whose
// retained windows have stopped growing, so a warm round allocates nothing.
// A bus with no telemetry receiver adds nothing either: no envelope is
// built. With a telemetry subscriber, a round allocates at most the one
// boxed WirePoint per point its envelopes carry: the batch's dispatch plan
// is reused.
func TestSamplingRoundAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	t.Run("store", func(t *testing.T) {
		pipe, round := samplingRig(t, nil)
		_, p0, _ := pipe.Stats()
		allocs := testing.AllocsPerRun(50, round)
		_, p1, errs := pipe.Stats()
		if errs != 0 {
			t.Fatalf("%d rounds failed to append: %v", errs, pipe.Err())
		}
		if perRound := float64(p1-p0) / 51; perRound < 16*5+4*4+2*2+5+4 {
			t.Fatalf("%.1f points per round; want every node, OST, tenant, plant and scheduler sensor", perRound)
		}
		if allocs != 0 {
			t.Errorf("a warm sampling round allocates %.1f times, want 0", allocs)
		}
	})
	t.Run("bus", func(t *testing.T) {
		t.Run("no-receiver", func(t *testing.T) {
			// A daemon's bus with no client: a loop-event subscriber and a
			// journal hook that records loop topics only.
			b := bus.New()
			b.Subscribe("loop.*", func(bus.Envelope) { t.Error("a telemetry envelope reached loop.*") })
			b.Journal(func(topic string) bool { return strings.HasPrefix(topic, "loop.") },
				func(bus.Envelope) { t.Error("a telemetry envelope reached the journal") })
			pipe, round := samplingRig(t, b)
			allocs := testing.AllocsPerRun(50, round)
			if _, points, _ := pipe.Stats(); points == 0 {
				t.Fatal("no points sampled")
			}
			if pub, _ := b.Stats(); pub != 0 {
				t.Errorf("%d envelopes published with no telemetry receiver, want 0", pub)
			}
			if allocs != 0 {
				t.Errorf("a warm round with no telemetry receiver allocates %.1f times, want 0", allocs)
			}
		})
		t.Run("telemetry-subscriber", func(t *testing.T) {
			b := bus.New()
			delivered := 0
			b.Subscribe("telemetry.*", func(bus.Envelope) { delivered++ })
			b.Subscribe(telemetry.TopicPrefix+"node.temp.celsius", func(bus.Envelope) { delivered++ })
			pipe, round := samplingRig(t, b)
			_, p0, _ := pipe.Stats()
			delivered = 0
			allocs := testing.AllocsPerRun(50, round)
			_, p1, _ := pipe.Stats()
			perRound := float64(p1-p0) / 51
			if want := perRound + 16; float64(delivered)/51 != want {
				t.Fatalf("%.1f deliveries per round, want %.1f", float64(delivered)/51, want)
			}
			if allocs > perRound {
				t.Errorf("a warm published round allocates %.1f times for %.1f points; want at most one boxed WirePoint per point", allocs, perRound)
			}
			t.Logf("%.1f allocations for %.1f points per round", allocs, perRound)
		})
	})
}
