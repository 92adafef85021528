package telemetry

import (
	"fmt"
	"testing"
	"time"
	"unsafe"

	"autoloop/internal/bus"
)

// captureSink records batches handed to it and can inject errors.
type captureSink struct {
	batches [][]Point
	fail    error
}

func (s *captureSink) AppendBatch(pts []Point) error {
	cp := make([]Point, len(pts))
	copy(cp, pts)
	s.batches = append(s.batches, cp)
	return s.fail
}

func testRegistry(points int) *Registry {
	reg := NewRegistry()
	reg.Register(CollectorFunc(func(now time.Duration) []Point {
		pts := make([]Point, points)
		for i := range pts {
			pts[i] = Point{Name: fmt.Sprintf("m%d", i), Time: now, Value: float64(i)}
		}
		return pts
	}))
	return reg
}

func TestPipelineSampleFeedsSink(t *testing.T) {
	sink := &captureSink{}
	p := NewPipeline(testRegistry(3), sink)
	if n := p.Sample(time.Second); n != 3 {
		t.Fatalf("Sample = %d points, want 3", n)
	}
	p.Sample(2 * time.Second)
	if len(sink.batches) != 2 || len(sink.batches[0]) != 3 {
		t.Fatalf("sink saw %d batches (%v)", len(sink.batches), sink.batches)
	}
	if sink.batches[1][0].Time != 2*time.Second {
		t.Errorf("second batch time = %v", sink.batches[1][0].Time)
	}
	samples, points, errs := p.Stats()
	if samples != 2 || points != 6 || errs != 0 {
		t.Errorf("Stats = %d, %d, %d; want 2, 6, 0", samples, points, errs)
	}
}

func TestPipelinePublishesBatchedEnvelopes(t *testing.T) {
	b := bus.New()
	var exact, domain int
	var lastPayload interface{}
	b.Subscribe("telemetry.m1", func(e bus.Envelope) { exact++; lastPayload = e.Payload })
	b.Subscribe("telemetry.*", func(bus.Envelope) { domain++ })
	p := NewPipeline(testRegistry(3), nil).PublishTo(b, "test")
	p.Sample(time.Second)
	if exact != 1 || domain != 3 {
		t.Fatalf("exact = %d, domain = %d; want 1, 3", exact, domain)
	}
	pt, ok := lastPayload.(WirePoint)
	if !ok || pt.Name != "m1" || pt.Value != 1 {
		t.Errorf("payload = %#v, want the m1 WirePoint", lastPayload)
	}
	if pub, del := b.Stats(); pub != 3 || del != 4 {
		t.Errorf("bus stats = %d, %d; want 3, 4", pub, del)
	}
	// A metric's topic string is built once and reused round after round.
	var topics []string
	b.Subscribe("telemetry.m2", func(e bus.Envelope) { topics = append(topics, e.Topic) })
	p.Sample(2 * time.Second)
	p.Sample(3 * time.Second)
	if len(topics) != 2 || topics[0] != "telemetry.m2" || unsafe.StringData(topics[0]) != unsafe.StringData(topics[1]) {
		t.Errorf("topics = %q, want one memoized telemetry.m2 twice", topics)
	}
}

func TestPipelineSinkErrorCounted(t *testing.T) {
	sink := &captureSink{fail: fmt.Errorf("boom")}
	p := NewPipeline(testRegistry(1), sink)
	p.Sample(time.Second)
	if _, _, errs := p.Stats(); errs != 1 {
		t.Errorf("errs = %d, want 1", errs)
	}
	if p.Err() == nil {
		t.Error("Err() = nil, want the sink error")
	}
}

func TestPipelineEmptyGatherSkipsSinkAndBus(t *testing.T) {
	sink := &captureSink{}
	b := bus.New()
	p := NewPipeline(NewRegistry(), sink).PublishTo(b, "test")
	if n := p.Sample(time.Second); n != 0 {
		t.Fatalf("Sample = %d, want 0", n)
	}
	if len(sink.batches) != 0 {
		t.Errorf("sink saw %d batches, want 0", len(sink.batches))
	}
	if pub, _ := b.Stats(); pub != 0 {
		t.Errorf("published = %d, want 0", pub)
	}
}
