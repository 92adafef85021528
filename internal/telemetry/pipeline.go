package telemetry

import (
	"time"

	"autoloop/internal/bus"
)

// TopicPrefix is the envelope topic namespace for telemetry points: a point
// named "node.temp.celsius" travels on "telemetry.node.temp.celsius", so
// subscribers pick metrics with exact topics and domains with "telemetry.*".
const TopicPrefix = "telemetry."

// Sink ingests gathered point batches in one pass; *tsdb.DB implements it.
// The batch slice is only valid for the duration of the call.
type Sink interface {
	AppendBatch(pts []Point) error
}

// WirePoint is the envelope payload for telemetry points: stable lowercase
// JSON keys for wire clients (matching Envelope's own topic/time/source
// fields), and a typed value for in-process subscribers. The sample time is
// carried by the envelope's Time field, not duplicated here. Labels is the
// gathered point's map, not a copy, and collectors with static label sets
// hand out one long-lived map round after round: subscribers must treat it
// as read-only.
type WirePoint struct {
	Name   string  `json:"name"`
	Labels Labels  `json:"labels,omitempty"`
	Value  float64 `json:"value"`
}

// Pipeline is the batched monitoring plane of the paper's Fig. 1: one
// sampling cadence gathers every registered collector, hands the whole batch
// to the storage sink in a single pass, and (optionally) publishes the batch
// on the bus — one PublishBatch per sample instead of one envelope per
// point, which removes the per-point lock and dispatch overhead from every
// experiment's inner loop. The fan-out costs only what its audience
// receives: each round asks the bus once per distinct metric whether its
// topic reaches a handler or the journal, and builds envelopes only for
// the points whose topic does. Gather and envelope buffers are reused
// across samples, as are the stock collectors' point buffers and the bus's
// batch dispatch plan, so steady-state sampling allocates nothing but the
// samples the store keeps, plus one boxed WirePoint per point that has a
// receiver.
//
// Pipeline is not safe for concurrent Sample calls; under the simulator all
// sampling is single-threaded on the event engine.
type Pipeline struct {
	reg    *Registry
	sink   Sink
	bus    *bus.Bus
	source string
	drives []driven

	pts  []Point
	envs []bus.Envelope
	// topics memoizes each metric's route: TopicPrefix+name — a few dozen
	// strings for the life of the pipeline instead of one allocation per
	// point — and the bus's answer for it this round.
	topics map[string]*route

	samples uint64
	points  uint64
	errs    uint64
	lastErr error
}

// Ticker is anything advanced on the monitoring cadence — a core.Loop or a
// fleet.Coordinator.
type Ticker interface {
	Tick(now time.Duration)
}

// route is a metric's bus topic and whether it reached a receiver in the
// sample numbered asked.
type route struct {
	topic  string
	asked  uint64
	routed bool
}

// driven is one Ticker with its sampling divisor and phase counter.
type driven struct {
	t     Ticker
	every int
	n     int
}

// NewPipeline builds a pipeline draining reg into sink. sink may be nil when
// the points are only fanned out on a bus (attach one with PublishTo).
func NewPipeline(reg *Registry, sink Sink) *Pipeline {
	if reg == nil {
		panic("telemetry: NewPipeline requires a registry")
	}
	return &Pipeline{reg: reg, sink: sink}
}

// PublishTo additionally fans every sampled batch out on b, one envelope per
// point on TopicPrefix+name, published as a single batch. source tags the
// envelopes' Source field. Only points whose topic has a receiver on b — a
// handler or the journal hook, per bus.HasReceiver — become envelopes, so
// every receiver sees exactly what publishing every point would show it. A
// subscription that completes before a round receives all of that round's
// points; one that completes while a round is being sampled may receive
// part of it. Returns p for chaining.
func (p *Pipeline) PublishTo(b *bus.Bus, source string) *Pipeline {
	p.bus = b
	p.source = source
	p.topics = make(map[string]*route)
	return p
}

// Drive arranges for t.Tick(now) to run after every n-th sample (n <= 1
// ticks on every sample), so the response side of the loop always runs
// against freshly ingested telemetry — the monitoring plane of Fig. 1
// driving the feedback plane, instead of two cadences racing on the event
// schedule. Returns p for chaining.
func (p *Pipeline) Drive(t Ticker, every int) *Pipeline {
	if t == nil {
		panic("telemetry: Drive with nil ticker")
	}
	if every < 1 {
		every = 1
	}
	p.drives = append(p.drives, driven{t: t, every: every})
	return p
}

// Sample gathers one round at virtual time now, ingests it, and fans it out.
// It returns the number of points gathered.
func (p *Pipeline) Sample(now time.Duration) int {
	p.pts = p.reg.GatherInto(now, p.pts[:0])
	p.samples++
	p.points += uint64(len(p.pts))
	if p.sink != nil && len(p.pts) > 0 {
		if err := p.sink.AppendBatch(p.pts); err != nil {
			p.errs++
			p.lastErr = err
		}
	}
	if p.bus != nil && len(p.pts) > 0 {
		p.envs = p.envs[:0]
		for _, pt := range p.pts {
			r := p.topics[pt.Name]
			if r == nil {
				r = &route{topic: TopicPrefix + pt.Name}
				p.topics[pt.Name] = r
			}
			if r.asked != p.samples {
				r.asked = p.samples
				r.routed = p.bus.HasReceiver(r.topic)
			}
			if r.routed {
				p.envs = append(p.envs, bus.Envelope{
					Topic: r.topic, Time: now, Source: p.source,
					Payload: WirePoint{Name: pt.Name, Labels: pt.Labels, Value: pt.Value},
				})
			}
		}
		p.bus.PublishBatch(p.envs) // a no-op when no topic has a receiver
	}
	for i := range p.drives {
		d := &p.drives[i]
		if d.n++; d.n >= d.every {
			d.n = 0
			d.t.Tick(now)
		}
	}
	return len(p.pts)
}

// Stats reports sampling rounds, total points gathered, and the rounds whose
// sink returned an error (a round counts once however many points failed).
func (p *Pipeline) Stats() (samples, points, errs uint64) {
	return p.samples, p.points, p.errs
}

// Err returns the most recent sink error, or nil.
func (p *Pipeline) Err() error { return p.lastErr }
