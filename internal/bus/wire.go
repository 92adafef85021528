package bus

import (
	"bufio"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// maxLineBytes bounds one wire line (an encoded envelope). Lines beyond it
// surface as a read error — bufio.ErrTooLong — instead of silently ending
// the connection.
const maxLineBytes = 1024 * 1024

// outboxDepth bounds each link's outbox. When a peer stops draining its
// TCP stream the outbox fills and further frames are dropped for that link
// only (counted, never blocking the publisher).
const outboxDepth = 256

// writeTimeout bounds one socket write, and a closing link's whole flush.
const writeTimeout = 2 * time.Second

func deadline() time.Time { return time.Now().Add(writeTimeout) }

// link is one TCP connection of the bridge, whichever end dialed it. Its
// read loop decodes each line and republishes it on the local bus; its one
// writer goroutine drains a bounded outbox onto the socket, each write under
// a deadline, so nothing that queues a frame ever waits on the socket. The
// owner (a Server or a Client) forgets the link under its lock before
// closing it, and sends only under that lock.
type link struct {
	conn    net.Conn
	out     chan []byte
	closing atomic.Bool
	// werr is the failed write the writer hung up on, if one did.
	werr atomic.Pointer[writeError]
}

// writeError is why a link's writer hung up: read returns it, so the owner
// can name the cause (a peer that stopped reading fails a write at the
// deadline) and tell it from a read error.
type writeError struct{ error }

func (e writeError) Unwrap() error { return e.error }

// newLink wraps conn and starts its writer goroutine; the owner runs read.
func newLink(conn net.Conn) *link {
	l := &link{conn: conn, out: make(chan []byte, outboxDepth)}
	go l.write()
	return l
}

// send queues one encoded frame without blocking and reports whether it
// was queued; a full outbox refuses it.
func (l *link) send(data []byte) bool {
	select {
	case l.out <- data:
		return true
	default:
		return false
	}
}

// close ends the outbox: the writer writes what is already queued, all of
// it under one deadline, and then hangs up, which ends the read loop.
func (l *link) close() {
	if !l.closing.Swap(true) {
		_ = l.conn.SetWriteDeadline(deadline())
		close(l.out)
	}
}

// write drains the outbox onto the socket. The first failed write is
// recorded and hangs up, which ends the read loop, and the owner forgets
// the link.
func (l *link) write() {
	defer l.conn.Close()
	for data := range l.out {
		if !l.closing.Load() {
			_ = l.conn.SetWriteDeadline(deadline())
		}
		if _, err := l.conn.Write(data); err != nil {
			l.werr.Store(&writeError{fmt.Errorf("bus: write %s: %w", l.conn.RemoteAddr(), err)})
			return
		}
	}
}

// read republishes each decoded line on b until the connection ends, and
// returns why it ended: nil for a clean hang-up or a close from this side,
// a writeError when the writer hung up on a failed write, else the
// transport or framing error (e.g. bufio.ErrTooLong for a line over
// maxLineBytes). Malformed lines are skipped.
func (l *link) read(b *Bus) error {
	sc := bufio.NewScanner(l.conn)
	sc.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
	for sc.Scan() {
		env, err := Decode(sc.Bytes())
		if err != nil {
			continue
		}
		b.Publish(env)
	}
	if err := sc.Err(); err != nil && !errors.Is(err, net.ErrClosed) {
		return fmt.Errorf("bus: read %s: %w", l.conn.RemoteAddr(), err)
	}
	if werr := l.werr.Load(); werr != nil {
		return *werr
	}
	return nil
}

// Server bridges a Bus onto a TCP listener: every envelope published on the
// bus whose topic matches the server's export pattern is forwarded to all
// connected clients, and every line received from a client is decoded and
// republished locally. This is the minimal distribution fabric used by
// cmd/modad; a production deployment would substitute its site transport
// behind the same Envelope format.
//
// The server subscribes its export pattern only while a client is
// connected: the first accepted client subscribes it before that
// connection's read loop starts, so the reply to a client's first line
// reaches it, and the last client to leave cancels it. An idle server is no
// audience on the bus — publishers skip the envelopes only it would have
// received, and nothing is encoded.
//
// Fan-out never blocks the publisher: a slow or wedged client costs
// dropped frames on its own link — visible through DroppedFrames — instead
// of stalling every Publish on the bus.
type Server struct {
	ln      net.Listener
	bus     *Bus
	pattern string

	mu     sync.Mutex
	links  map[*link]struct{} // nil once closed
	cancel func()             // the export subscription; nil while no client is connected

	dropped  atomic.Uint64
	readErrs atomic.Uint64
	lastLog  atomic.Int64 // unix nanos of the last read-error log line
}

// NewServer starts serving bus traffic on addr (e.g. "127.0.0.1:0").
// Envelopes matching exportPattern are pushed to connected clients.
func NewServer(addr, exportPattern string, b *Bus) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("bus: listen %s: %w", addr, err)
	}
	s := &Server{ln: ln, bus: b, links: make(map[*link]struct{}), pattern: exportPattern}
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// NumClients reports the number of connected clients.
func (s *Server) NumClients() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.links)
}

// DroppedFrames reports how many outbound frames were dropped across all
// connections because a client's outbox was full.
func (s *Server) DroppedFrames() uint64 { return s.dropped.Load() }

// ReadErrors reports how many client read loops ended with a transport or
// framing error (e.g. a line over the scanner limit) rather than a clean
// disconnect. A link that hung up on a failed write is not counted.
func (s *Server) ReadErrors() uint64 { return s.readErrs.Load() }

// Close stops the server and disconnects all clients, each after its
// already queued frames are written. The listener closes first: a client
// that redials the moment its connection drops is refused, instead of
// landing on a listener about to close and losing that link too.
func (s *Server) Close() error {
	s.mu.Lock()
	links := s.links
	if links == nil {
		s.mu.Unlock()
		return nil
	}
	s.links = nil
	s.unexportLocked()
	s.mu.Unlock()
	err := s.ln.Close()
	for l := range links {
		l.close()
	}
	return err
}

func (s *Server) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		l := newLink(conn)
		s.mu.Lock()
		if s.links == nil {
			s.mu.Unlock()
			l.close()
			return
		}
		if s.cancel == nil {
			s.cancel = s.bus.Subscribe(s.pattern, s.broadcast)
		}
		s.links[l] = struct{}{}
		s.mu.Unlock()
		go s.serve(l)
	}
}

// unexportLocked cancels the export subscription, if there is one. It is
// called with mu held, so no accept can subscribe a second one meanwhile:
// the bus never calls a handler under its own lock, so broadcast waiting on
// mu cannot block the cancel.
func (s *Server) unexportLocked() {
	if s.cancel != nil {
		s.cancel()
		s.cancel = nil
	}
}

// serve runs one client's read loop, then forgets and closes its link; a
// read error is counted and logged, rate-limited. A hang-up on a failed
// write is neither: it is how a wedged or vanished client leaves.
func (s *Server) serve(l *link) {
	err := l.read(s.bus)
	s.mu.Lock()
	delete(s.links, l)
	if len(s.links) == 0 {
		s.unexportLocked()
	}
	s.mu.Unlock()
	l.close()
	if _, wrote := err.(writeError); err != nil && !wrote {
		s.readErrs.Add(1)
		if now := time.Now().UnixNano(); now-s.lastLog.Load() >= int64(time.Second) {
			s.lastLog.Store(now)
			log.Print(err)
		}
	}
}

// broadcast encodes one envelope once and queues the frame on every link.
// It never blocks: a full outbox (a client not draining its stream) costs
// that client one dropped frame.
func (s *Server) broadcast(env Envelope) {
	data, err := Encode(env)
	if err != nil {
		return
	}
	s.mu.Lock()
	for l := range s.links {
		if !l.send(data) {
			s.dropped.Add(1)
		}
	}
	s.mu.Unlock()
}

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

// ReconnectOptions tunes a Client; the zero value is ready to use.
type ReconnectOptions struct {
	// OnState, when non-nil, is called with true after each successful
	// (re)connect and false when an established link drops — the hook a
	// worker uses to enter and leave degraded mode. After the first dial it
	// is called from the client's goroutine; keep it brief.
	OnState func(up bool)
	// Logf, when non-nil, receives one line per dropped link, with the
	// reason, and one per re-established link.
	Logf func(format string, args ...any)
}

// Client connects a local Bus to a remote Server and keeps it connected
// until Close: lines received from the server are republished locally, and
// locally published envelopes matching the export pattern are queued on the
// current link. While the link is down those envelopes are dropped
// (counted), so a publisher never waits on the network. A dropped link is
// redialed at once and then under backoff until a dial lands; a fleet of
// workers redialing a restarted coordinator spreads over the jitter window
// instead of arriving in lockstep.
type Client struct {
	addr   string
	bus    *Bus
	opts   ReconnectOptions
	cancel func() // the export subscription, held for the client's life

	mu     sync.Mutex
	link   *link // nil while the link is down
	closed bool
	stop   chan struct{}
	done   chan struct{}

	dials    atomic.Uint64 // dial attempts, successful or not
	failures atomic.Uint64 // failed dial attempts
	drops    atomic.Uint64 // established links that died
	dropped  atomic.Uint64 // exported frames dropped: link down or outbox full
}

// Dial connects to a Server at addr and bridges it with b, redialing
// whenever the link drops until Close.
func Dial(addr, exportPattern string, b *Bus) (*Client, error) {
	return DialWith(addr, exportPattern, b, ReconnectOptions{})
}

// DialWith is Dial with options. It dials addr immediately — returning the
// first error so callers keep their fail-fast startup — and then maintains
// the link until Close.
func DialWith(addr, exportPattern string, b *Bus, opts ReconnectOptions) (*Client, error) {
	if opts.OnState == nil {
		opts.OnState = func(bool) {}
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	c := &Client{addr: addr, bus: b, opts: opts, stop: make(chan struct{}), done: make(chan struct{})}
	conn, err := c.dial()
	if err != nil {
		return nil, err
	}
	c.link = newLink(conn)
	c.opts.OnState(true)
	c.cancel = b.Subscribe(exportPattern, c.send)
	go c.run(c.link)
	return c, nil
}

// Done returns a channel closed once Close has stopped the client: its
// last link is flushed and closed, and it dials no more.
func (c *Client) Done() <-chan struct{} { return c.done }

// Stats reports dial attempts, failed attempts, dropped links, and
// exported frames dropped while the link was down or its outbox full.
func (c *Client) Stats() (dials, failures, drops, droppedFrames uint64) {
	return c.dials.Load(), c.failures.Load(), c.drops.Load(), c.dropped.Load()
}

// Close stops redialing and closes the live link, if any, after writing
// the frames already queued on it; it returns once the client has stopped.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	l := c.link
	c.link = nil
	c.mu.Unlock()
	c.cancel()
	close(c.stop)
	if l != nil {
		l.close()
	}
	<-c.done
	return nil
}

// send queues one exported envelope on the current link; with no link, or
// a full outbox, the frame is dropped.
func (c *Client) send(env Envelope) {
	data, err := Encode(env)
	if err != nil {
		return
	}
	c.mu.Lock()
	if c.link == nil || !c.link.send(data) {
		c.dropped.Add(1)
	}
	c.mu.Unlock()
}

func (c *Client) dial() (net.Conn, error) {
	c.dials.Add(1)
	conn, err := net.Dial("tcp", c.addr)
	if err != nil {
		c.failures.Add(1)
		return nil, fmt.Errorf("bus: dial %s: %w", c.addr, err)
	}
	return conn, nil
}

// run serves each link until it ends, then redials, until Close.
func (c *Client) run(l *link) {
	defer close(c.done)
	for l != nil {
		err := l.read(c.bus)
		c.mu.Lock()
		c.link = nil // l, unless Close already forgot it
		closed := c.closed
		c.mu.Unlock()
		l.close()
		if closed {
			return
		}
		c.drops.Add(1)
		if err != nil {
			c.opts.Logf("bus: link to %s dropped: %v", c.addr, err)
		} else {
			c.opts.Logf("bus: link to %s closed", c.addr)
		}
		c.opts.OnState(false)
		l = c.redial()
	}
}

// redial dials, and after each failure sleeps a backoff draw, until a dial
// lands or Close wins. The attempt count starts over with every outage.
func (c *Client) redial() *link {
	for attempt := 0; ; attempt++ {
		if conn, err := c.dial(); err == nil {
			c.mu.Lock()
			if c.closed {
				c.mu.Unlock()
				conn.Close()
				return nil
			}
			l := newLink(conn)
			c.link = l
			c.mu.Unlock()
			c.opts.Logf("bus: link to %s re-established after %d attempts", c.addr, attempt+1)
			c.opts.OnState(true)
			return l
		}
		t := time.NewTimer(backoff(attempt))
		select {
		case <-c.stop:
			t.Stop()
			return nil
		case <-t.C:
		}
	}
}
