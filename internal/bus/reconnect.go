package bus

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// The redial schedule: first retry within 50ms, ceiling 15s — fast enough
// that a worker rejoins promptly after a blip, slow enough that a dead
// coordinator is probed at most once per 15s.
const (
	backoffBase = 50 * time.Millisecond
	backoffCap  = 15 * time.Second
)

// backoff is capped exponential backoff with full jitter: after the
// attempt'th consecutive failed dial of one outage (counting from 0) it
// draws a delay uniformly from [0, min(backoffCap, backoffBase<<attempt)).
// Full jitter desynchronizes a fleet of reconnecting workers — after a
// coordinator restart the redial storm spreads across the whole window
// instead of arriving in lockstep waves.
func backoff(attempt int) time.Duration {
	ceil := backoffCap
	if attempt < 30 && backoffBase<<attempt < backoffCap {
		ceil = backoffBase << attempt
	}
	return time.Duration(rand.Int63n(int64(ceil)))
}

// ReconnectOptions tunes a Reconnector; the zero value is ready to use.
type ReconnectOptions struct {
	// OnState, when non-nil, is called with true after each successful
	// (re)connect and false when an established link drops — the hook a
	// worker uses to enter and leave degraded mode. It is called from the
	// reconnector's goroutine; keep it brief.
	OnState func(up bool)
	// Logf, when non-nil, receives one line per dropped and re-established
	// link.
	Logf func(format string, args ...any)
}

// Reconnector maintains a bridged Client to one Server across failures:
// when the link drops it redials at once and then under backoff until a
// dial lands. A fleet of workers redialing a restarted coordinator spreads
// over the jitter window instead of arriving in lockstep.
type Reconnector struct {
	addr    string
	pattern string
	bus     *Bus
	opts    ReconnectOptions

	mu     sync.Mutex
	client *Client
	closed bool
	stop   chan struct{}
	wg     sync.WaitGroup

	dials    atomic.Uint64 // dial attempts, successful or not
	failures atomic.Uint64 // failed dial attempts
	drops    atomic.Uint64 // established links that died
}

// NewReconnector dials addr immediately — returning the first error so
// callers keep their fail-fast startup — and then maintains the link until
// Close.
func NewReconnector(addr, exportPattern string, b *Bus, opts ReconnectOptions) (*Reconnector, error) {
	r := &Reconnector{addr: addr, pattern: exportPattern, bus: b, opts: opts, stop: make(chan struct{})}
	r.dials.Add(1)
	c, err := Dial(addr, exportPattern, b)
	if err != nil {
		r.failures.Add(1)
		return nil, err
	}
	r.client = c
	if opts.OnState != nil {
		opts.OnState(true)
	}
	r.wg.Add(1)
	go r.run(c)
	return r, nil
}

// Stats reports dial attempts, failed attempts, and dropped links.
func (r *Reconnector) Stats() (dials, failures, drops uint64) {
	return r.dials.Load(), r.failures.Load(), r.drops.Load()
}

// Close stops reconnecting and closes the live client, if any.
func (r *Reconnector) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	c := r.client
	r.mu.Unlock()
	close(r.stop)
	if c != nil {
		c.Close()
	}
	r.wg.Wait()
	return nil
}

func (r *Reconnector) logf(format string, args ...any) {
	if r.opts.Logf != nil {
		r.opts.Logf(format, args...)
	}
}

// run watches the live client and redials when it dies.
func (r *Reconnector) run(c *Client) {
	defer r.wg.Done()
	for {
		select {
		case <-r.stop:
			return
		case <-c.Done():
		}
		r.drops.Add(1)
		if err := c.Err(); err != nil {
			r.logf("bus: link to %s dropped: %v", r.addr, err)
		} else {
			r.logf("bus: link to %s closed by peer", r.addr)
		}
		r.mu.Lock()
		r.client = nil
		closed := r.closed
		r.mu.Unlock()
		if closed {
			return
		}
		if r.opts.OnState != nil {
			r.opts.OnState(false)
		}
		c = r.redial()
		if c == nil {
			return // Close raced the redial loop
		}
		if r.opts.OnState != nil {
			r.opts.OnState(true)
		}
	}
}

// redial dials, and after each failure sleeps a backoff draw, until a dial
// lands or Close wins. The attempt count starts over with every outage.
func (r *Reconnector) redial() *Client {
	for attempt := 0; ; attempt++ {
		r.dials.Add(1)
		c, err := Dial(r.addr, r.pattern, r.bus)
		if err == nil {
			r.mu.Lock()
			if r.closed {
				r.mu.Unlock()
				c.Close()
				return nil
			}
			r.client = c
			r.mu.Unlock()
			r.logf("bus: link to %s re-established after %d attempts", r.addr, r.failures.Load())
			return c
		}
		r.failures.Add(1)
		t := time.NewTimer(backoff(attempt))
		select {
		case <-r.stop:
			t.Stop()
			return nil
		case <-t.C:
		}
	}
}
