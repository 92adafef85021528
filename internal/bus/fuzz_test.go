package bus

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"
)

// FuzzTopicMatch cross-checks the indexed dispatch path (exact map + segment
// trie + loose linear list) against the naive reference matcher `matches` on
// arbitrary topic/pattern sets: for any topic, dispatch must deliver to
// exactly the subscriptions whose pattern matches, in subscription order.
func FuzzTopicMatch(f *testing.F) {
	// Seed corpus: bare "*", ".*", empty segments, overlapping exact+prefix
	// subscriptions, loose (non-segment-aligned) wildcards.
	f.Add("a.b.c", "*", "a.*", "a.b.c")
	f.Add("loop.sched.plan", "loop.*", "loop.sched.plan", "loop*")
	f.Add("a..b", ".*", "a..*", "a.")
	f.Add("telemetry.node.temp", "telemetry.node.*", "telemetry.*", "*")
	f.Add("x", "", "x.*", "x")
	f.Add("a.b", "a.b.*", "a.b*", "a.b.")
	f.Add(".", ".*", "..*", "")
	f.Add("fleet.round", "fleet.*", "fleet.round", "fl*")

	f.Fuzz(func(t *testing.T, topic, p1, p2, p3 string) {
		if topic == "" {
			return // Publish rejects empty topics by contract
		}
		// Build an overlapping subscription set: the three fuzzed patterns
		// plus derived exact and prefix subscriptions over the same topic so
		// exact-map, trie, and root-wild paths all stay hot.
		patterns := []string{p1, p2, p3, topic, "*"}
		if i := strings.IndexByte(topic, '.'); i >= 0 {
			patterns = append(patterns, topic[:i+1]+"*")
		}

		b := New()
		var got []int
		for i, p := range patterns {
			i := i
			b.Subscribe(p, func(Envelope) { got = append(got, i) })
		}
		b.Publish(Envelope{Topic: topic, Time: time.Second})

		var want []int
		for i, p := range patterns {
			if matches(p, topic) {
				want = append(want, i)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("topic %q patterns %q: index delivered to %v, reference says %v", topic, patterns, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("topic %q patterns %q: delivery order %v, reference order %v", topic, patterns, got, want)
			}
		}
		// HasReceiver walks the same index and stops at the first match: on
		// a bus holding any one of the patterns it answers as the reference
		// matcher does.
		for _, p := range patterns {
			one := New()
			one.Subscribe(p, func(Envelope) {})
			if got := one.HasReceiver(topic); got != matches(p, topic) {
				t.Fatalf("topic %q pattern %q: HasReceiver = %v, reference says %v", topic, p, got, !got)
			}
		}
	})
}

// FuzzEnvelopeCodec checks every line Decode accepts: re-encoding keeps the
// topic, time and source, carries the payload as the original compacted
// JSON, and DecodePayload into an interface value gives exactly the generic
// view a plain json.Unmarshal of the line gives.
func FuzzEnvelopeCodec(f *testing.F) {
	f.Add([]byte(`{"topic":"t","time":3000000000,"source":"s","payload":{"x":1.5}}`))
	f.Add([]byte(`{"topic":"t","payload":null}`))
	f.Add([]byte(`{"topic":"t","payload": { "b" : [1, 2.5e3, -0, true, null] , "a":"<&> "} }`))
	f.Add([]byte(`{"topic":"t","payload":{"d":9007199254740993,"u":9223372036854788153}}`))
	f.Add([]byte(`{"topic":"t","time":60000000000,"deadline":1,"Payload":"late key"}`))
	f.Add([]byte(`{"topic":"t","payload":1e400}`))
	f.Add([]byte("{\"topic\":\"t\\ud800\",\"source\":\"\xff\",\"payload\":\"\xfe\u00e9\"}")) // invalid UTF-8 and a lone surrogate
	f.Add([]byte(`{"topic":"cluster.fan.reply","time":90000000000,"source":"w1","payload":{"worker":"w1","id":"q1",` +
		`"query":{"id":"q1","series":[{"metric":"node.temp","labels":{"node":"n1"},"samples":[{"t_ms":60000,"v":41.5}]}]}}}`))

	f.Fuzz(func(t *testing.T, line []byte) {
		env, err := Decode(line)
		if err != nil {
			return
		}
		data, err := Encode(env)
		if err != nil {
			t.Fatalf("Encode of a decoded line: %v", err)
		}
		back, err := Decode(data[:len(data)-1])
		if err != nil {
			t.Fatalf("re-decode %q: %v", data, err)
		}
		if back.Topic != env.Topic || back.Time != env.Time || back.Source != env.Source {
			t.Fatalf("round trip %+v -> %+v", env, back)
		}

		var orig struct {
			Payload json.RawMessage `json:"payload"`
		}
		if err := json.Unmarshal(line, &orig); err != nil {
			t.Fatal(err)
		}
		var want []byte
		if orig.Payload != nil && string(orig.Payload) != "null" {
			var compact, esc bytes.Buffer
			if err := json.Compact(&compact, orig.Payload); err != nil {
				t.Fatal(err)
			}
			json.HTMLEscape(&esc, compact.Bytes())
			want = esc.Bytes()
		}
		raw, _ := back.Payload.(json.RawMessage)
		if !bytes.Equal(raw, want) {
			t.Fatalf("payload re-encoded as %q, want %q", raw, want)
		}

		var old struct {
			Payload interface{} `json:"payload"`
		}
		oldErr := json.Unmarshal(line, &old)
		var v interface{}
		newErr := DecodePayload(env, &v)
		if (oldErr != nil) != (newErr != nil) {
			t.Fatalf("generic decode error %v, DecodePayload error %v", oldErr, newErr)
		}
		if oldErr == nil && !reflect.DeepEqual(v, old.Payload) {
			t.Fatalf("DecodePayload gives %#v, the generic view is %#v", v, old.Payload)
		}
	})
}
