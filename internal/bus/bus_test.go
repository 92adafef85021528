package bus

import (
	"sync"
	"testing"
	"time"
)

func TestPublishSubscribeExact(t *testing.T) {
	b := New()
	var got []string
	b.Subscribe("a.b", func(e Envelope) { got = append(got, e.Topic) })
	b.Publish(Envelope{Topic: "a.b"})
	b.Publish(Envelope{Topic: "a.c"})
	if len(got) != 1 || got[0] != "a.b" {
		t.Errorf("got %v, want [a.b]", got)
	}
}

func TestPublishSubscribePrefix(t *testing.T) {
	b := New()
	count := 0
	b.Subscribe("loop.*", func(Envelope) { count++ })
	b.Subscribe("*", func(Envelope) { count += 10 })
	b.Publish(Envelope{Topic: "loop.sched.plan"})
	b.Publish(Envelope{Topic: "telemetry.points"})
	if count != 21 {
		t.Errorf("count = %d, want 21 (1 prefix + 2 wildcard*10)", count)
	}
}

func TestUnsubscribe(t *testing.T) {
	b := New()
	count := 0
	cancel := b.Subscribe("t", func(Envelope) { count++ })
	b.Publish(Envelope{Topic: "t"})
	cancel()
	cancel() // double-cancel must be safe
	b.Publish(Envelope{Topic: "t"})
	if count != 1 {
		t.Errorf("count = %d, want 1", count)
	}
}

func TestDeliveryOrderIsSubscriptionOrder(t *testing.T) {
	b := New()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		b.Subscribe("t", func(Envelope) { order = append(order, i) })
	}
	b.Publish(Envelope{Topic: "t"})
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestStats(t *testing.T) {
	b := New()
	b.Subscribe("t", func(Envelope) {})
	b.Subscribe("t", func(Envelope) {})
	b.Publish(Envelope{Topic: "t"})
	b.Publish(Envelope{Topic: "other"})
	pub, del := b.Stats()
	if pub != 2 || del != 2 {
		t.Errorf("Stats = %d, %d; want 2, 2", pub, del)
	}
}

func TestPublishEmptyTopicPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New().Publish(Envelope{})
}

func TestSubscribeNilHandlerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New().Subscribe("t", nil)
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	env := Envelope{Topic: "t", Time: 3 * time.Second, Source: "s", Payload: map[string]interface{}{"x": 1.5}}
	data, err := Encode(env)
	if err != nil {
		t.Fatal(err)
	}
	if data[len(data)-1] != '\n' {
		t.Error("wire form must be newline-terminated")
	}
	got, err := Decode(data[:len(data)-1])
	if err != nil {
		t.Fatal(err)
	}
	if got.Topic != "t" || got.Time != 3*time.Second || got.Source != "s" {
		t.Errorf("round trip = %+v", got)
	}
	payload, ok := got.Payload.(map[string]interface{})
	if !ok || payload["x"] != 1.5 {
		t.Errorf("payload = %v", got.Payload)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode([]byte("{not json")); err == nil {
		t.Error("expected decode error")
	}
	if _, err := Decode([]byte(`{"time":1}`)); err == nil {
		t.Error("expected missing-topic error")
	}
}

func TestConcurrentPublish(t *testing.T) {
	b := New()
	var mu sync.Mutex
	count := 0
	b.Subscribe("t", func(Envelope) {
		mu.Lock()
		count++
		mu.Unlock()
	})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				b.Publish(Envelope{Topic: "t"})
			}
		}()
	}
	wg.Wait()
	if count != 800 {
		t.Errorf("count = %d, want 800", count)
	}
}

func TestWireServerClient(t *testing.T) {
	serverBus := New()
	srv, err := NewServer("127.0.0.1:0", "export.*", serverBus)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	clientBus := New()
	received := make(chan Envelope, 10)
	clientBus.Subscribe("export.*", func(e Envelope) {
		select {
		case received <- e:
		default:
		}
	})
	cli, err := Dial(srv.Addr(), "up.*", clientBus)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	// Give the server a moment to register the connection.
	time.Sleep(50 * time.Millisecond)

	// Server -> client push.
	serverBus.Publish(Envelope{Topic: "export.metric", Time: time.Second, Payload: 42.0})
	select {
	case e := <-received:
		if e.Topic != "export.metric" || e.Payload != 42.0 {
			t.Errorf("got %+v", e)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timed out waiting for server push")
	}

	// Client -> server upload.
	up := make(chan Envelope, 1)
	serverBus.Subscribe("up.cmd", func(e Envelope) {
		select {
		case up <- e:
		default:
		}
	})
	clientBus.Publish(Envelope{Topic: "up.cmd", Payload: "extend"})
	select {
	case e := <-up:
		if e.Payload != "extend" {
			t.Errorf("got %+v", e)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timed out waiting for client upload")
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", "*", New())
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}
