// Package telemetry defines the metric data model shared by every monitored
// substrate and every MAPE-K loop: labeled points, series, collectors, and
// registries.
//
// The model follows the conventions of production HPC monitoring stacks
// (LDMS, DCDB, Prometheus): a metric has a name, a set of string labels
// identifying the emitting entity (node, job, OST, tenant, ...), and
// float64 samples at virtual timestamps. Keeping the model this small is
// what makes loop components interchangeable (paper question (ii)): any
// Monitor implementation produces Points, any Analyze implementation
// consumes series of them.
//
// # Series refs
//
// Most sensors are static: a node emits the same five (name, labels)
// identities every round, and a store that re-derives the series from the
// label map on every point spends more on identification than on storage. A
// Ref is the optional fix, the in-process form of the fixed sensor id DCDB
// and LDMS register once: one small memo per (Name, Labels) that its owner —
// the collector — allocates once, keeps for as long as it emits that
// identity, and attaches to each Point of it. A sink may leave its resolved
// handle for the series in the memo on first sight and pick it up on every
// later round. Every stock collector attaches one to every point, a
// filesystem tenant's from the round it is first seen, and so does an
// application instance to every point it emits; with the collectors' reused
// point buffers, a steady-state sampling round allocates only the samples
// the store keeps.
//
// The contract is validate, don't trust. The owner attaches a Ref only to
// points of the one identity it was allocated for. A sink uses a memo only
// after checking that it left it there itself and that the memoized series
// still carries the point's name and label count, and otherwise resolves the
// point from Name and Labels as if it had no Ref — so one batch fed to two
// stores, replayed, or sent to a store created after a crash lands where its
// Name and Labels say. (Two label sets of equal size under one name are only
// told apart by comparing them, which is the per-point cost a Ref removes;
// keeping those apart is the owner's half of the contract.) A Point without a
// Ref behaves exactly as before, and nothing but Sink implementations ever
// reads one.
//
// # Read handles
//
// The read side has the same shape. A loop that polls one subject's newest
// value every round — a job's context-switch rate, its progress marker —
// asks the same (Name, Matcher) question each time, and a store that
// re-derives the matching series from the matcher on every read spends more
// on finding the data than on reading it. A Handle is the fix, the read-side
// twin of a Ref: it names the question once, and the store leaves the
// resolved answer — the series it matches — in the handle's memo on first
// read and reads through it afterwards. DCDB Wintermute binds an operator's
// input sensors the same way, once, when the unit is configured.
//
// A handle is owned by the subject it reads, not by the reader: an
// application instance keeps one per metric it emits, built from the label
// set it emits with, and every loop reading that instance shares them. Its
// Name and Matcher are fixed once it is first read. The contract is again
// validate, don't trust: a store uses a memo only after checking that it
// left it there itself and that nothing has since been added to the metric
// that could change the match set, and otherwise resolves the handle from
// Name and Matcher as if it were new. Readers sharing a handle may race on
// its memo: each writer leaves an equally valid resolution, and the last
// one wins.
package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Labels identifies the entity a metric describes, e.g.
// {"node": "n012", "job": "1234"}.
type Labels map[string]string

// Clone returns an independent copy of l.
func (l Labels) Clone() Labels {
	if l == nil {
		return nil
	}
	c := make(Labels, len(l))
	for k, v := range l {
		c[k] = v
	}
	return c
}

// Key returns a canonical string form of l ("a=1,b=2" with sorted keys),
// usable as a map key. The empty label set yields "".
func (l Labels) Key() string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(l[k])
	}
	return b.String()
}

// Matches reports whether every label in matcher is present in l with an
// equal value. A nil or empty matcher matches everything.
func (l Labels) Matches(matcher Labels) bool {
	for k, v := range matcher {
		if l[k] != v {
			return false
		}
	}
	return true
}

// String implements fmt.Stringer.
func (l Labels) String() string { return "{" + l.Key() + "}" }

// memo is the store-owned slot a Ref or a Handle carries. The zero value is
// empty, ready to use.
type memo struct {
	v atomic.Value
}

// Memo returns what the last SetMemo left, or nil. The value may come from a
// different store than the caller: type-assert it and check ownership.
func (m *memo) Memo() any { return m.v.Load() }

// SetMemo leaves a store's resolution in the slot. Stores sharing a slot
// race benignly — the last writer wins and the others re-resolve — but, as
// with atomic.Value, every memo stored in one slot must have the same
// concrete type.
func (m *memo) SetMemo(v any) { m.v.Store(v) }

// Ref is an optional per-series memo: see the package comment for who owns
// it and what a sink may assume. The zero value is an empty memo, ready to
// use; a Ref must not be copied once a Point carries its address. A resolved
// memo keeps the sink's series reachable for as long as the Ref lives.
type Ref struct {
	memo
}

// Handle is a fixed latest-value read: the newest value of the last series
// of Name, in label-key order, whose labels match Matcher and that still
// holds a sample. See the package comment for who owns one and what a store
// may assume. Name and Matcher must not change once the handle is read, and
// a handle must not be copied once read; the zero memo is empty, ready to
// use. A resolved memo keeps the store's matching series reachable for as
// long as the Handle lives.
type Handle struct {
	Name    string
	Matcher Labels
	memo
}

// Point is a single observation of a metric.
type Point struct {
	Name   string
	Labels Labels
	Time   time.Duration // virtual time since the simulation epoch
	Value  float64
	// Ref, when non-nil, is the emitting collector's memo for this point's
	// (Name, Labels); sinks use it to skip re-identifying the series.
	Ref *Ref
}

// String implements fmt.Stringer.
func (p Point) String() string {
	return fmt.Sprintf("%s%s=%g@%v", p.Name, p.Labels, p.Value, p.Time)
}

// Sample is one (time, value) pair within a series.
type Sample struct {
	Time  time.Duration
	Value float64
}

// Series is an ordered sequence of samples for one (name, labels) identity.
type Series struct {
	Name    string
	Labels  Labels
	Samples []Sample
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Samples) }

// Values returns the sample values as a slice, for feeding analytics.
func (s *Series) Values() []float64 {
	vs := make([]float64, len(s.Samples))
	for i, smp := range s.Samples {
		vs[i] = smp.Value
	}
	return vs
}

// Last returns the most recent sample and whether one exists.
func (s *Series) Last() (Sample, bool) {
	if len(s.Samples) == 0 {
		return Sample{}, false
	}
	return s.Samples[len(s.Samples)-1], true
}

// Collector is implemented by every monitored substrate component. Collect
// reports the component's current sensor readings at virtual time now. The
// returned slice belongs to the collector, which may refill it on its next
// Collect: a caller copies out what it keeps before calling again
// (Registry.GatherInto copies at once), so a collector can hand out one
// reused buffer round after round.
type Collector interface {
	Collect(now time.Duration) []Point
}

// CollectorFunc adapts a plain function to the Collector interface. The
// function's result is owned as Collect's is: it need stay valid only until
// the next call.
type CollectorFunc func(now time.Duration) []Point

// Collect implements Collector.
func (f CollectorFunc) Collect(now time.Duration) []Point { return f(now) }

// Registry aggregates collectors, forming the "Sensors" plane of the paper's
// Fig. 1: facility, hardware, system software, and application collectors all
// register here, and the monitoring pipeline gathers them at one sampling
// cadence.
type Registry struct {
	collectors []Collector
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// NewRegistryOf returns a registry pre-populated with cs, in order.
func NewRegistryOf(cs ...Collector) *Registry {
	r := NewRegistry()
	for _, c := range cs {
		r.Register(c)
	}
	return r
}

// Register adds c to the registry.
func (r *Registry) Register(c Collector) {
	if c == nil {
		panic("telemetry: Register called with nil collector")
	}
	r.collectors = append(r.collectors, c)
}

// Size reports the number of registered collectors.
func (r *Registry) Size() int { return len(r.collectors) }

// GatherInto collects from every registered collector in registration
// order, copying each result into buf before the next Collect, so
// steady-state sampling loops can reuse one buffer across rounds instead of
// reallocating per sample.
func (r *Registry) GatherInto(now time.Duration, buf []Point) []Point {
	for _, c := range r.collectors {
		buf = append(buf, c.Collect(now)...)
	}
	return buf
}
