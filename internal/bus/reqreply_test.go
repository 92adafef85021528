package bus

import (
	"strings"
	"testing"
	"time"
)

func TestCallCorrelatesReply(t *testing.T) {
	b := New()
	cancel := b.Subscribe("svc.req", func(env Envelope) {
		id, _ := env.Payload.(string)
		// Reply twice: a foreign id first, then the matching one — Call
		// must skip the foreign reply.
		b.Publish(Envelope{Topic: "svc.resp", Payload: "other"})
		b.Publish(Envelope{Topic: "svc.resp", Payload: id})
	})
	defer cancel()

	resp, err := Call(b, Envelope{Topic: "svc.req", Payload: "id-42"}, "svc.resp",
		func(env Envelope) bool { return env.Payload == "id-42" }, time.Second)
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if resp.Payload != "id-42" {
		t.Fatalf("reply payload = %v", resp.Payload)
	}
}

func TestCallNilMatchTakesFirst(t *testing.T) {
	b := New()
	defer b.Subscribe("q", func(Envelope) { b.Publish(Envelope{Topic: "a", Payload: 1}) })()
	resp, err := Call(b, Envelope{Topic: "q"}, "a", nil, time.Second)
	if err != nil || resp.Payload != 1 {
		t.Fatalf("Call = %v, %v", resp, err)
	}
}

func TestCallTimesOut(t *testing.T) {
	b := New()
	_, err := Call(b, Envelope{Topic: "nobody.home"}, "never", nil, 10*time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "no reply") {
		t.Fatalf("err = %v, want timeout", err)
	}
}

func TestDecodePayloadRoundTrips(t *testing.T) {
	type payload struct {
		Name string `json:"name"`
		N    int    `json:"n"`
	}
	// In-process: original Go type.
	var got payload
	if err := DecodePayload(Envelope{Topic: "t", Payload: payload{Name: "x", N: 3}}, &got); err != nil {
		t.Fatal(err)
	}
	if got.N != 3 || got.Name != "x" {
		t.Fatalf("got %+v", got)
	}
	// Off the wire: the sender's JSON, decoded straight into out.
	env, err := Decode([]byte(`{"topic":"t","payload":{"name":"y","n":7}}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := DecodePayload(env, &got); err != nil {
		t.Fatal(err)
	}
	if got.N != 7 || got.Name != "y" {
		t.Fatalf("got %+v", got)
	}
}
