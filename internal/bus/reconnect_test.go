package bus

import (
	"fmt"
	"net"
	"os"
	"sync"
	"testing"
	"time"
)

// privateLoopback returns a loopback IP no other test listens on, so that
// a port this test frees stays free. A port freed on 127.0.0.1 can be taken
// by any process's next 127.0.0.1:0 listener — another package's tests, run
// alongside — and a redial would then land on that stranger. Linux routes
// all of 127.0.0.0/8 to the loopback device; elsewhere only 127.0.0.1 may
// exist, and the test falls back to it.
func privateLoopback(t *testing.T) string {
	pid := os.Getpid()
	ip := fmt.Sprintf("127.%d.%d.%d", 1+pid%250, pid/250%250, 1+pid/62500%250)
	ln, err := net.Listen("tcp", ip+":0")
	if err != nil {
		t.Logf("no private loopback address (%v); sharing 127.0.0.1", err)
		return "127.0.0.1"
	}
	ln.Close()
	return ip
}

// TestClientSurvivesServerRestart drops the server out from under a
// Client and verifies the link heals on the same address, with the
// down/up transitions reported in order. The server listens on a loopback
// IP of its own, so nothing but the restarted server can answer a redial
// during the outage.
func TestClientSurvivesServerRestart(t *testing.T) {
	serverBus := New()
	srv, err := NewServer(privateLoopback(t)+":0", "*", serverBus)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	var mu sync.Mutex
	var states []bool
	clientBus := New()
	cli, err := DialWith(addr, "*", clientBus, ReconnectOptions{
		OnState: func(up bool) {
			mu.Lock()
			states = append(states, up)
			mu.Unlock()
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	srv.Close() // the outage: every conn dies, the port closes

	// Hold the port down long enough for several failed redials, then
	// restart on the same address.
	time.Sleep(100 * time.Millisecond)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	ln.Close()
	srv2, err := NewServer(addr, "*", serverBus)
	if err != nil {
		t.Fatalf("restart server: %v", err)
	}
	defer srv2.Close()

	// The client installs the healed link before it reports the state:
	// wait for both.
	waitUntil(t, "the client to heal the link", func() bool {
		cli.mu.Lock()
		linked := cli.link != nil
		cli.mu.Unlock()
		mu.Lock()
		defer mu.Unlock()
		return linked && len(states) >= 3 && states[len(states)-1]
	})

	dials, failures, drops, _ := cli.Stats()
	if drops != 1 {
		t.Fatalf("drops = %d, want 1", drops)
	}
	if failures == 0 || dials < failures+2 {
		t.Fatalf("dials=%d failures=%d: want failed redials during the outage and 2 successes", dials, failures)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(states) < 3 || !states[0] || states[1] || !states[len(states)-1] {
		t.Fatalf("state transitions = %v, want up, down, ..., up", states)
	}
}

// TestRedialBackoffCapAndGrowth checks the redial schedule's full-jitter
// window: it doubles from backoffBase per failed attempt, then holds at
// backoffCap, and every draw lies inside it.
func TestRedialBackoffCapAndGrowth(t *testing.T) {
	for _, c := range []struct {
		attempt int
		ceilMS  time.Duration
	}{
		{0, 50}, {1, 100}, {2, 200}, {3, 400}, {4, 800}, {5, 1600}, {6, 3200},
		{7, 6400}, {8, 12800}, {9, 15000}, {10, 15000}, {63, 15000}, {1 << 20, 15000},
	} {
		attempt, ceil := c.attempt, c.ceilMS*time.Millisecond
		var hi time.Duration
		for i := 0; i < 200; i++ {
			d := backoff(attempt)
			if d < 0 || d >= ceil {
				t.Fatalf("attempt %d: delay %v outside [0, %v)", attempt, d, ceil)
			}
			hi = max(hi, d)
		}
		// 200 uniform draws all in the lower half: p = 2^-200.
		if hi < ceil/2 {
			t.Fatalf("attempt %d: 200 draws all below %v, want the window to reach %v", attempt, ceil/2, ceil)
		}
	}
}
