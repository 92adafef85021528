package chaos

import (
	"bufio"
	"fmt"
	"net"
	"testing"
	"time"
)

// proxyHarness starts an echo-less sink server and a chaos proxy in front of
// it, returning a dialed client conn and a scanner over what the sink
// received.
func proxyHarness(t *testing.T, inj *Injector) (net.Conn, *bufio.Scanner, *Proxy) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	received := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			received <- c
		}
	}()
	p, err := NewProxy("127.0.0.1:0", ln.Addr().String(), inj)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	client, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	var sink net.Conn
	select {
	case sink = <-received:
	case <-time.After(2 * time.Second):
		t.Fatal("proxy never dialed the target")
	}
	t.Cleanup(func() { sink.Close() })
	return client, bufio.NewScanner(sink), p
}

func TestProxyPassthroughWhenDisarmed(t *testing.T) {
	inj := NewInjector(1)
	client, sc, _ := proxyHarness(t, inj)
	for i := 0; i < 10; i++ {
		fmt.Fprintf(client, "frame-%d\n", i)
	}
	for i := 0; i < 10; i++ {
		if !sc.Scan() {
			t.Fatalf("sink stream ended after %d frames", i)
		}
		if want := fmt.Sprintf("frame-%d", i); sc.Text() != want {
			t.Fatalf("frame %d = %q, want %q", i, sc.Text(), want)
		}
	}
}

func TestProxyDropAndDup(t *testing.T) {
	inj := NewInjector(99)
	inj.Arm(Faults{DropRate: 0.5})
	client, sc, _ := proxyHarness(t, inj)
	const sent = 400
	go func() {
		for i := 0; i < sent; i++ {
			fmt.Fprintf(client, "frame-%d\n", i)
		}
		client.Close()
	}()
	got := 0
	for sc.Scan() {
		got++
	}
	dropped, _, _ := inj.Counters()
	if int(dropped) != sent-got {
		t.Fatalf("dropped counter %d but %d frames missing", dropped, sent-got)
	}
	// 50% loss over 400 frames: expect well inside (100, 300).
	if got < 100 || got > 300 {
		t.Fatalf("got %d of %d frames through a 50%% drop, outside plausible band", got, sent)
	}
}

func TestProxyPartitionOneWay(t *testing.T) {
	inj := NewInjector(3)
	inj.Arm(Faults{PartitionToTarget: true})
	client, sc, _ := proxyHarness(t, inj)
	for i := 0; i < 5; i++ {
		fmt.Fprintf(client, "lost-%d\n", i)
	}
	// Heal only after the relay has demonstrably dropped all five — the
	// writes above race the proxy's relay goroutine.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if dropped, _, _ := inj.Counters(); dropped >= 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("relay never consumed the partitioned frames")
		}
		time.Sleep(time.Millisecond)
	}
	inj.Disarm()
	fmt.Fprintf(client, "healed\n")
	if !sc.Scan() {
		t.Fatal("sink stream ended")
	}
	if sc.Text() != "healed" {
		t.Fatalf("first frame after heal = %q, want %q (partitioned frames must vanish)", sc.Text(), "healed")
	}
}

func TestProxyInjectedReset(t *testing.T) {
	inj := NewInjector(5)
	inj.Arm(Faults{ResetAfter: 3})
	client, sc, _ := proxyHarness(t, inj)
	go func() {
		for i := 0; i < 10; i++ {
			if _, err := fmt.Fprintf(client, "frame-%d\n", i); err != nil {
				return
			}
		}
	}()
	got := 0
	for sc.Scan() {
		got++
	}
	if got > 2 {
		t.Fatalf("sink saw %d frames past a reset-after-3 schedule", got)
	}
	if _, _, resets := inj.Counters(); resets != 1 {
		t.Fatalf("resets = %d, want 1", resets)
	}
}
