package scenario

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"
)

const validDoc = `{
	"name": "unit",
	"seed": 11,
	"horizon": "1h",
	"sample_every": "30s",
	"facility": {"nodes": 8, "plant": true, "osts": 4},
	"workload": {"jobs": 4, "classes": [
		{"name": "deadline", "weight": 1, "io_every": 5, "io_size_mb": 64},
		{"name": "batch", "weight": 2, "io_every": 3, "io_size_mb": 128}
	]},
	"loops": [{"case": "power"}, {"case": "ost", "findings": ["ost-degraded"]}],
	"injections": [
		{"kind": "thermal-cascade", "at": "10m", "count": 2},
		{"kind": "sensor-flap", "at": "30m", "flap": "90s"}
	],
	"score": {"grace": "5m"}
}`

func TestDecodeValid(t *testing.T) {
	s, err := Decode([]byte(validDoc))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if s.Name != "unit" || s.Seed != 11 {
		t.Fatalf("header mismatch: %+v", s)
	}
	if s.Horizon.D() != time.Hour || s.SampleEvery.D() != 30*time.Second {
		t.Fatalf("durations mismatch: %v %v", s.Horizon, s.SampleEvery)
	}
	if s.Facility.Nodes != 8 || !s.Facility.Plant || s.Facility.OSTs != 4 {
		t.Fatalf("facility mismatch: %+v", s.Facility)
	}
	if len(s.Loops) != 2 || s.Loops[1].Case != "ost" || s.Loops[1].Findings[0] != "ost-degraded" {
		t.Fatalf("loops mismatch: %+v", s.Loops)
	}
	if len(s.Injections) != 2 || s.Injections[1].Flap.D() != 90*time.Second {
		t.Fatalf("injections mismatch: %+v", s.Injections)
	}
	if s.Score.Grace.D() != 5*time.Minute {
		t.Fatalf("grace mismatch: %v", s.Score.Grace)
	}
}

func TestDecodeRejects(t *testing.T) {
	cases := []struct {
		name, doc, want string
	}{
		{"unknown top field", `{"name":"x","horizon":"1h","facility":{"nodes":1},"loops":[],"bogus":1}`, "bogus"},
		{"unknown facility field", `{"name":"x","horizon":"1h","facility":{"nodes":1,"zz":2},"loops":[]}`, "zz"},
		{"malformed duration", `{"name":"x","horizon":"1 fortnight","facility":{"nodes":1},"loops":[]}`, "duration"},
		{"missing name", `{"horizon":"1h","facility":{"nodes":1},"loops":[]}`, "name"},
		{"zero horizon", `{"name":"x","facility":{"nodes":1},"loops":[]}`, "horizon"},
		{"zero nodes", `{"name":"x","horizon":"1h","facility":{},"loops":[]}`, "nodes"},
		{"node bomb", `{"name":"x","horizon":"1h","facility":{"nodes":99999999},"loops":[]}`, "cap"},
		{"unknown injector", `{"name":"x","horizon":"1h","facility":{"nodes":1},"loops":[],"injections":[{"kind":"gamma-rays","at":"1m"}]}`, "gamma-rays"},
		{"injection past horizon", `{"name":"x","horizon":"1h","facility":{"nodes":1},"loops":[],"injections":[{"kind":"sensor-flap","at":"2h"}]}`, "past the horizon"},
		{"negative severity", `{"name":"x","horizon":"1h","facility":{"nodes":1},"loops":[],"injections":[{"kind":"sensor-flap","at":"1m","severity":-2}]}`, "severity"},
		{"round shorter than sample", `{"name":"x","horizon":"1h","sample_every":"1m","round_every":"30s","facility":{"nodes":1},"loops":[]}`, "round_every"},
		{"trailing data", validDoc + `{"again": true}`, "trailing"},
		{"negative maintenance", `{"name":"x","horizon":"1h","facility":{"nodes":1},"loops":[],"maintenance":[{"at":"-5m","duration":"10m"}]}`, "maintenance"},
		{"bad loop", `{"name":"x","horizon":"1h","facility":{"nodes":1},"loops":[{"case":""}]}`, "loops[0]"},
		{"nameless class", `{"name":"x","horizon":"1h","facility":{"nodes":1},"loops":[],"workload":{"jobs":2,"classes":[{"weight":1}]}}`, "classes[0]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode([]byte(tc.doc))
			if err == nil {
				t.Fatalf("Decode accepted %s", tc.doc)
			}
			var se *SpecError
			if !errors.As(err, &se) {
				t.Fatalf("error is %T, want *SpecError: %v", err, err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestSpecRoundTrip(t *testing.T) {
	for _, spec := range []*Spec{Small(3), Midsize(4), Stress10k(5), Daemon(6)} {
		data, err := json.MarshalIndent(spec, "", "  ")
		if err != nil {
			t.Fatalf("%s: marshal: %v", spec.Name, err)
		}
		back, err := Decode(data)
		if err != nil {
			t.Fatalf("%s: decode own marshal: %v\n%s", spec.Name, err, data)
		}
		data2, err := json.MarshalIndent(back, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != string(data2) {
			t.Fatalf("%s: round trip not stable:\n%s\n---\n%s", spec.Name, data, data2)
		}
	}
}

func TestTemplateFor(t *testing.T) {
	l, ok := TemplateFor("power")
	if !ok || l.Case != "power" || l.Domain != DomainHardware {
		t.Fatalf("power template: %+v ok=%v", l, ok)
	}
	if len(l.Findings) == 0 || len(l.Actions) == 0 {
		t.Fatalf("power template missing attribution: %+v", l)
	}
	if m, ok := TemplateFor("maintenance"); !ok || m.Domain != "" {
		t.Fatalf("maintenance template should exist with no domain: %+v ok=%v", m, ok)
	}
	if _, ok := TemplateFor("no-such-case"); ok {
		t.Fatal("unknown case got a template")
	}
}

func TestInjectorKindsSorted(t *testing.T) {
	kinds := InjectorKinds()
	if len(kinds) != 5 {
		t.Fatalf("want 5 kinds, got %v", kinds)
	}
	for i := 1; i < len(kinds); i++ {
		if kinds[i-1] >= kinds[i] {
			t.Fatalf("kinds not sorted: %v", kinds)
		}
	}
	for _, k := range kinds {
		if injectorDomains[k] == "" {
			t.Fatalf("kind %q has no domain", k)
		}
	}
}
