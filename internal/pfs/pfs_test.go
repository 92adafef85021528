package pfs

import (
	"testing"
	"time"

	"autoloop/internal/sim"
)

func newFS(osts int, stripe int) (*sim.Engine, *FS) {
	e := sim.NewEngine(1)
	cfg := Config{OSTs: osts, OSTBandwidthMBps: 100, DefaultStripeCount: stripe}
	return e, New(e, cfg)
}

func TestNewZeroOSTsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(sim.NewEngine(1), Config{})
}

func TestWriteLatencySingleStripe(t *testing.T) {
	e, fs := newFS(4, 1)
	f := fs.Open("a", 1, nil)
	var lat time.Duration
	fs.Write(f, 100, func(l time.Duration) { lat = l }) // 100MB at 100MB/s = 1s
	e.Run()
	if lat != time.Second {
		t.Errorf("latency = %v, want 1s", lat)
	}
}

func TestStripingSplitsLoad(t *testing.T) {
	e, fs := newFS(4, 4)
	f := fs.Open("a", 4, nil)
	var lat time.Duration
	fs.Write(f, 100, func(l time.Duration) { lat = l }) // 25MB per OST = 0.25s
	e.Run()
	if lat != 250*time.Millisecond {
		t.Errorf("latency = %v, want 250ms", lat)
	}
	for _, id := range f.OSTs() {
		if got := fs.osts[id].windowBytesMB; got != 25 {
			t.Errorf("OST %d bytes = %v, want 25", id, got)
		}
	}
}

func TestFIFOQueueing(t *testing.T) {
	e, fs := newFS(1, 1)
	f := fs.Open("a", 1, nil)
	var lats []time.Duration
	fs.Write(f, 100, func(l time.Duration) { lats = append(lats, l) })
	fs.Write(f, 100, func(l time.Duration) { lats = append(lats, l) })
	e.Run()
	if len(lats) != 2 {
		t.Fatalf("got %d completions", len(lats))
	}
	if lats[0] != time.Second || lats[1] != 2*time.Second {
		t.Errorf("lats = %v, want [1s 2s]", lats)
	}
}

func TestDegradedOSTSlowsStripedWrite(t *testing.T) {
	e, fs := newFS(4, 4)
	if err := fs.SetOSTHealth(2, 0.1); err != nil {
		t.Fatal(err)
	}
	f := fs.Open("a", 4, nil)
	var lat time.Duration
	fs.Write(f, 100, func(l time.Duration) { lat = l })
	e.Run()
	// Healthy stripes take 0.25s; degraded takes 2.5s; write completes at max.
	if lat != 2500*time.Millisecond {
		t.Errorf("latency = %v, want 2.5s", lat)
	}
	if h := fs.osts[2].health; h != 0.1 {
		t.Errorf("health = %v", h)
	}
}

func TestSetOSTHealthValidation(t *testing.T) {
	_, fs := newFS(2, 1)
	if err := fs.SetOSTHealth(9, 0.5); err == nil {
		t.Error("expected error for unknown OST")
	}
	_ = fs.SetOSTHealth(0, -1)
	if h := fs.osts[0].health; h != 0.01 {
		t.Errorf("negative health clamped to %v, want 0.01", h)
	}
	_ = fs.SetOSTHealth(0, 5)
	if h := fs.osts[0].health; h != 1 {
		t.Errorf("excess health clamped to %v, want 1", h)
	}
}

func TestOpenAvoidsOSTs(t *testing.T) {
	_, fs := newFS(4, 2)
	avoid := map[int]bool{1: true, 3: true}
	for i := 0; i < 5; i++ {
		f := fs.Open("a", 2, avoid)
		for _, id := range f.OSTs() {
			if avoid[id] {
				t.Fatalf("layout %v includes avoided OST %d", f.OSTs(), id)
			}
		}
	}
}

func TestOpenAvoidAllIgnored(t *testing.T) {
	_, fs := newFS(2, 2)
	f := fs.Open("a", 2, map[int]bool{0: true, 1: true})
	if len(f.OSTs()) != 2 {
		t.Errorf("layout = %v, want all OSTs when avoid covers everything", f.OSTs())
	}
}

func TestOpenStripeCountClamped(t *testing.T) {
	_, fs := newFS(4, 2)
	f := fs.Open("a", 100, nil)
	if len(f.OSTs()) != 4 {
		t.Errorf("stripe count = %d, want clamped 4", len(f.OSTs()))
	}
	f2 := fs.Open("a", 0, nil)
	if len(f2.OSTs()) != 2 {
		t.Errorf("default stripe count = %d, want 2", len(f2.OSTs()))
	}
}

func TestWriteClosedFilePanics(t *testing.T) {
	_, fs := newFS(2, 1)
	f := fs.Open("a", 1, nil)
	fs.Close(f)
	defer func() {
		if recover() == nil {
			t.Error("expected panic writing closed file")
		}
	}()
	fs.Write(f, 1, nil)
}

func TestWriteZeroSizeCompletesImmediately(t *testing.T) {
	_, fs := newFS(2, 1)
	f := fs.Open("a", 1, nil)
	called := false
	fs.Write(f, 0, func(l time.Duration) { called = true })
	if !called {
		t.Error("zero-size write must complete synchronously")
	}
}

func TestQoSThrottling(t *testing.T) {
	e, fs := newFS(4, 1)
	fs.SetQoS("slow", 10, 10) // 10 MB/s, 10 MB burst
	f := fs.Open("slow", 1, nil)
	var lats []time.Duration
	// First 10MB rides the burst; second must wait for tokens.
	fs.Write(f, 10, func(l time.Duration) { lats = append(lats, l) })
	fs.Write(f, 10, func(l time.Duration) { lats = append(lats, l) })
	e.Run()
	if len(lats) != 2 {
		t.Fatalf("got %d completions", len(lats))
	}
	// First: no throttle, service 10MB/100MBps = 0.1s.
	if lats[0] != 100*time.Millisecond {
		t.Errorf("first latency = %v, want 100ms", lats[0])
	}
	// Second: throttled 1s for tokens, then service.
	if lats[1] < time.Second {
		t.Errorf("second latency = %v, want >= 1s throttle", lats[1])
	}
}

func TestQoSUpdateAndRemove(t *testing.T) {
	_, fs := newFS(2, 1)
	fs.SetQoS("t", 50, 100)
	r, b, ok := fs.QoS("t")
	if !ok || r != 50 || b != 100 {
		t.Errorf("QoS = %v %v %v", r, b, ok)
	}
	fs.SetQoS("t", 20, 40)
	r, b, _ = fs.QoS("t")
	if r != 20 || b != 40 {
		t.Errorf("updated QoS = %v %v", r, b)
	}
	fs.SetQoS("t", 0, 0)
	if _, _, ok := fs.QoS("t"); ok {
		t.Error("QoS should be removed")
	}
}

func TestQoSUnlimitedTenantUnaffected(t *testing.T) {
	e, fs := newFS(4, 1)
	fs.SetQoS("limited", 1, 1)
	f := fs.Open("free", 1, nil)
	var lat time.Duration
	fs.Write(f, 100, func(l time.Duration) { lat = l })
	e.Run()
	if lat != time.Second {
		t.Errorf("unlimited tenant latency = %v, want 1s", lat)
	}
}

func TestCollectorThroughputAndReset(t *testing.T) {
	e, fs := newFS(2, 1)
	col := fs.Collector()
	f := fs.Open("a", 1, nil)
	fs.Write(f, 100, nil) // 1s service on one OST
	e.RunUntil(10 * time.Second)
	pts := col.Collect(e.Now())
	var mbps, tenantMBps float64
	for _, p := range pts {
		if p.Name == "pfs.ost.mbps" && p.Value > 0 {
			mbps = p.Value
		}
		if p.Name == "pfs.tenant.mbps" {
			tenantMBps = p.Value
		}
	}
	if mbps != 10 { // 100MB over a 10s window
		t.Errorf("ost mbps = %v, want 10", mbps)
	}
	if tenantMBps != 10 {
		t.Errorf("tenant mbps = %v, want 10", tenantMBps)
	}
	// Window resets: immediate re-collect at a later instant shows zero.
	e.RunUntil(20 * time.Second)
	pts = col.Collect(e.Now())
	for _, p := range pts {
		if p.Name == "pfs.ost.mbps" && p.Value != 0 {
			t.Errorf("window did not reset: %v", p)
		}
		if p.Name == "pfs.tenant.mbps" {
			t.Error("tenant with no traffic must not report")
		}
	}
}

func TestCollectorLatency(t *testing.T) {
	e, fs := newFS(1, 1)
	col := fs.Collector()
	f := fs.Open("a", 1, nil)
	fs.Write(f, 100, nil) // 1s
	e.Run()
	pts := col.Collect(e.Now())
	for _, p := range pts {
		if p.Name == "pfs.ost.lat_ms" && p.Value != 1000 {
			t.Errorf("lat_ms = %v, want 1000", p.Value)
		}
	}
}

func TestQueueLen(t *testing.T) {
	e, fs := newFS(1, 1)
	f := fs.Open("a", 1, nil)
	fs.Write(f, 100, nil)
	fs.Write(f, 100, nil)
	if got := fs.osts[0].queueLen; got != 2 {
		t.Errorf("queueLen = %d, want 2", got)
	}
	e.Run()
	if got := fs.osts[0].queueLen; got != 0 {
		t.Errorf("queueLen after drain = %d, want 0", got)
	}
}

func TestRoundRobinSpreadsLayouts(t *testing.T) {
	_, fs := newFS(8, 2)
	used := map[int]bool{}
	for i := 0; i < 4; i++ {
		for _, id := range fs.Open("a", 2, nil).OSTs() {
			used[id] = true
		}
	}
	if len(used) != 8 {
		t.Errorf("round robin used %d distinct OSTs over 4 opens, want 8", len(used))
	}
}
