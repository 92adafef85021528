package bus

import (
	"encoding/json"
	"fmt"
	"time"
)

// Call publishes req and waits for the first envelope on respTopic for which
// match returns true (a nil match accepts the first envelope). It is the
// request/reply correlation helper for envelope services: in-process
// dispatch is synchronous, so the reply is usually captured before Publish
// returns; across the TCP bridge the reply arrives asynchronously, bounded
// by timeout (wall clock; <= 0 means one second).
//
// The caller owns correlation: put a unique id in the request payload and
// match on it in the reply, as control.v1 does.
func Call(b *Bus, req Envelope, respTopic string, match func(Envelope) bool, timeout time.Duration) (Envelope, error) {
	if timeout <= 0 {
		timeout = time.Second
	}
	got := make(chan Envelope, 1)
	cancel := b.Subscribe(respTopic, func(env Envelope) {
		if match != nil && !match(env) {
			return
		}
		select {
		case got <- env:
		default: // a reply is already captured
		}
	})
	defer cancel()
	b.Publish(req)
	select {
	case env := <-got:
		return env, nil
	case <-time.After(timeout):
		return Envelope{}, fmt.Errorf("bus: call %s: no reply on %s within %v", req.Topic, respTopic, timeout)
	}
}

// DecodePayload decodes an envelope payload into out, giving services one
// uniform way to read either kind. A payload that crossed the wire is still
// the sender's JSON (a json.RawMessage) and is unmarshaled into out
// directly. A payload published in-process keeps its original Go type and
// takes a marshal/unmarshal round trip, so out is a deep copy that the
// publisher's later writes do not reach.
func DecodePayload(env Envelope, out interface{}) error {
	data, ok := env.Payload.(json.RawMessage)
	if !ok {
		var err error
		if data, err = json.Marshal(env.Payload); err != nil {
			return fmt.Errorf("bus: payload of %s does not marshal: %w", env.Topic, err)
		}
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("bus: payload of %s: %w", env.Topic, err)
	}
	return nil
}
