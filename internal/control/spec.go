package control

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"autoloop/internal/core"
)

// Duration is a time.Duration that decodes from either a Go duration string
// ("5m", "1h30m") or a nanosecond count, and encodes as the string form —
// the JSON vocabulary operators actually write.
type Duration time.Duration

// D converts to the standard library type.
func (d Duration) D() time.Duration { return time.Duration(d) }

// String implements fmt.Stringer.
func (d Duration) String() string { return time.Duration(d).String() }

// MarshalJSON encodes the duration as its Go string form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "5m" strings and raw nanosecond numbers.
func (d *Duration) UnmarshalJSON(data []byte) error {
	if len(data) > 0 && data[0] == '"' {
		var s string
		if err := json.Unmarshal(data, &s); err != nil {
			return err
		}
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("control: bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	ns, err := strconv.ParseInt(string(bytes.TrimSpace(data)), 10, 64)
	if err != nil {
		return fmt.Errorf("control: bad duration %s: %w", data, err)
	}
	*d = Duration(ns)
	return nil
}

// LoopSpec declares one loop deployment: which case to instantiate, its
// configuration overrides, operating mode, fleet arbitration priority, and
// tick period. It is the unit of the declarative layer — JSON-decodable so
// specs can live in files, arrive over the wire, and be reported back by
// the control API.
//
// Zero fields take the case factory's defaults: an empty Mode means
// autonomous, a nil Priority means the factory's recommended fleet
// priority, a zero Period means the factory's default cadence, and an
// omitted Config keeps every default. Config uses the case's Go field
// names; time.Duration fields inside case configs are nanosecond numbers.
type LoopSpec struct {
	// Case names the registered CaseFactory ("power", "ost", "scheduler",
	// "maintenance", "misconfig", "ioqos").
	Case string `json:"case"`
	// Name overrides the spawned loop's name (useful for running one case
	// twice); empty keeps the case's own loop name.
	Name string `json:"name,omitempty"`
	// Config holds case-specific overrides merged over the factory's
	// defaults. Unknown fields are rejected.
	Config json.RawMessage `json:"config,omitempty"`
	// Mode is the operating mode: "autonomous" (default),
	// "human-on-the-loop", or "human-in-the-loop".
	Mode string `json:"mode,omitempty"`
	// Priority is the fleet arbitration priority; nil takes the factory
	// default.
	Priority *int `json:"priority,omitempty"`
	// Period is the loop's tick cadence ("1m"); zero takes the factory
	// default. Under a coordinator it is rounded to a whole multiple of
	// the coordinator's base round period.
	Period Duration `json:"period,omitempty"`
	// Human carries the approval policy for human-in-the-loop operation.
	// Only its ContingencyAfter acts; nil means no contingency.
	Human *HumanSpec `json:"human,omitempty"`
}

// HumanSpec is a spec's approval policy. A Service queues every
// human-in-the-loop action for an operator; ContingencyAfter is the only
// field that settles one without an operator. Availability, MedianLatency
// and LatencyCV are accepted and reported back for control.v1
// compatibility (specs are decoded strictly and the wire is additive-only)
// and are not used.
type HumanSpec struct {
	// Availability is accepted and reported back; not used.
	Availability float64 `json:"availability"`
	// MedianLatency is accepted and reported back; not used.
	MedianLatency Duration `json:"median_latency"`
	// LatencyCV is accepted and reported back; not used.
	LatencyCV float64 `json:"latency_cv,omitempty"`
	// ContingencyAfter, when positive, executes a pending action anyway
	// once no operator has settled it for this long.
	ContingencyAfter Duration `json:"contingency_after,omitempty"`
}

// Validate checks the statically checkable parts of the spec.
func (s *LoopSpec) Validate() error {
	if s.Case == "" {
		return fmt.Errorf("control: spec missing case")
	}
	if s.Mode != "" {
		if _, err := core.ParseMode(s.Mode); err != nil {
			return fmt.Errorf("control: spec %s: %w", s.Case, err)
		}
	}
	if s.Period < 0 {
		return fmt.Errorf("control: spec %s: negative period", s.Case)
	}
	return nil
}

// ParseSpec decodes one LoopSpec from JSON, rejecting unknown fields.
func ParseSpec(data []byte) (LoopSpec, error) {
	var s LoopSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return LoopSpec{}, fmt.Errorf("control: parse spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return LoopSpec{}, err
	}
	return s, nil
}

// ParseSpecs decodes a JSON array of LoopSpecs (a spec file).
func ParseSpecs(data []byte) ([]LoopSpec, error) {
	var raw []json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, fmt.Errorf("control: parse specs: %w", err)
	}
	specs := make([]LoopSpec, 0, len(raw))
	for i, r := range raw {
		s, err := ParseSpec(r)
		if err != nil {
			return nil, fmt.Errorf("control: spec %d: %w", i, err)
		}
		specs = append(specs, s)
	}
	return specs, nil
}
