package cluster

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"autoloop/internal/bus"
	"autoloop/internal/control"
	"autoloop/internal/tsdb"
)

// DefaultScatterTimeout bounds one scatter-gather fan-out: workers that have
// not replied by then are reported as errors in the merged result instead of
// stalling the caller.
const DefaultScatterTimeout = 2 * time.Second

// scatter fans Fanout envelopes across workers and gathers their FanReply
// envelopes by correlation ID. One scatter instance serves a coordinator;
// its handler is attached to TopicReply on the coordinator bus.
type scatter struct {
	b       *bus.Bus
	source  string
	timeout time.Duration

	nextID atomic.Uint64
	mu     sync.Mutex
	flight map[string]*fan

	fanned   atomic.Uint64
	timeous  atomic.Uint64
	partials atomic.Uint64
}

type fan struct {
	want    map[string]bool
	replies []FanReply
	done    chan struct{}
	mu      sync.Mutex
}

func newScatter(b *bus.Bus, source string, timeout time.Duration) *scatter {
	return &scatter{b: b, source: source, timeout: timeout, flight: make(map[string]*fan)}
}

// handleReply routes one FanReply to its in-flight fan; stray replies (late
// arrivals after a timeout) are dropped.
func (s *scatter) handleReply(env bus.Envelope) {
	var r FanReply
	if err := bus.DecodePayload(env, &r); err != nil {
		return
	}
	s.mu.Lock()
	f := s.flight[r.ID]
	s.mu.Unlock()
	if f == nil {
		return
	}
	f.mu.Lock()
	if f.want[r.Worker] {
		delete(f.want, r.Worker)
		f.replies = append(f.replies, r)
		if len(f.want) == 0 {
			close(f.done)
		}
	}
	f.mu.Unlock()
}

// Fan sends build(worker, id) to every worker and waits for all replies or
// the timeout. The returned slice holds one entry per worker in worker-ID
// order; workers that never answered get a synthesized Err entry, so merges
// can always report partial coverage explicitly.
func (s *scatter) Fan(workers []string, build func(worker, id string) Fanout) []FanReply {
	if len(workers) == 0 {
		return nil
	}
	id := "fan-" + strconv.FormatUint(s.nextID.Add(1), 10)
	f := &fan{want: make(map[string]bool, len(workers)), done: make(chan struct{})}
	for _, w := range workers {
		f.want[w] = true
	}
	s.mu.Lock()
	s.flight[id] = f
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.flight, id)
		s.mu.Unlock()
	}()

	for _, w := range workers {
		s.fanned.Add(1)
		s.b.Publish(bus.Envelope{Topic: TopicFanout, Source: s.source, Payload: build(w, id)})
	}
	select {
	case <-f.done:
	case <-time.After(s.timeout):
		s.timeous.Add(1)
	}

	f.mu.Lock()
	replies := append([]FanReply(nil), f.replies...)
	for w := range f.want {
		replies = append(replies, FanReply{
			Worker: w, ID: id, Err: fmt.Sprintf("no reply within %v", s.timeout),
		})
	}
	f.mu.Unlock()
	sort.Slice(replies, func(i, j int) bool { return replies[i].Worker < replies[j].Worker })
	return replies
}

// MergeQuery merges per-worker tsdb responses into one: series concatenate
// (each worker owns its own slice of the facility, so series never need
// deduplication) and sort by metric, then label key — the order a single
// store's bus response has. Workers that timed out or errored do not void
// the answer — the merge is typed partial: Partial is set, Failed
// attributes each missing slice to its worker, and Err keeps the flat
// human-readable join for older callers.
func MergeQuery(id string, replies []FanReply) tsdb.QueryResponse {
	out := tsdb.QueryResponse{ID: id}
	var errs []string
	fail := func(worker, msg string) {
		errs = append(errs, worker+": "+msg)
		out.Failed = append(out.Failed, tsdb.SourceError{Source: worker, Err: msg})
	}
	for _, r := range replies {
		switch {
		case r.Err != "":
			fail(r.Worker, r.Err)
		case r.Query == nil:
			fail(r.Worker, "empty reply")
		case r.Query.Err != "":
			fail(r.Worker, r.Query.Err)
		default:
			out.Series = append(out.Series, r.Query.Series...)
		}
	}
	tsdb.SortSeries(out.Series)
	out.Err = strings.Join(errs, "; ")
	out.Partial = len(out.Failed) > 0 && len(out.Failed) < len(replies)
	return out
}

// mergeControlLists merges per-worker control replies for the list and
// pending ops: loop statuses and pending entries concatenate with their
// Worker field stamped, sorted by (group, name) / (worker, seq).
func mergeControlLists(op, id string, replies []FanReply) control.Reply {
	out := control.Reply{ID: id, Op: op, OK: true}
	var errs []string
	for _, r := range replies {
		switch {
		case r.Err != "":
			errs = append(errs, r.Worker+": "+r.Err)
		case r.Control == nil:
			errs = append(errs, r.Worker+": empty reply")
		case !r.Control.OK:
			errs = append(errs, r.Worker+": "+r.Control.Error)
		default:
			for _, st := range r.Control.Loops {
				st.Worker = r.Worker
				out.Loops = append(out.Loops, st)
			}
			for _, p := range r.Control.Pending {
				p.Worker = r.Worker
				out.Pending = append(out.Pending, p)
			}
		}
	}
	sort.Slice(out.Loops, func(i, j int) bool {
		a, b := &out.Loops[i], &out.Loops[j]
		if a.Group != b.Group {
			return a.Group < b.Group
		}
		return a.Name < b.Name
	})
	sort.Slice(out.Pending, func(i, j int) bool {
		a, b := &out.Pending[i], &out.Pending[j]
		if a.Worker != b.Worker {
			return a.Worker < b.Worker
		}
		return a.Seq < b.Seq
	})
	if len(errs) > 0 {
		// Partial coverage is reported, not hidden: the merged reply stays
		// OK — and typed Partial — when at least one worker answered, with
		// Error naming the gaps.
		out.Error = strings.Join(errs, "; ")
		if len(errs) == len(replies) {
			out.OK = false
		} else {
			out.Partial = true
		}
	}
	return out
}
