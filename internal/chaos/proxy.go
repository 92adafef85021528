package chaos

import (
	"bufio"
	"net"
	"sync"
)

// maxFrameBytes bounds one relayed frame, matching the bus bridge's own
// line limit so the proxy never splits what the endpoint would accept.
const maxFrameBytes = 1 << 20

// Proxy is a frame-aware chaos relay for newline-delimited protocols (the
// bus TCP bridge writes exactly one envelope per line, so frame = line).
// A test points a worker at the proxy instead of the coordinator; the
// proxy relays every line through the injector, which may drop, duplicate,
// partition per direction, or reset mid-stream. Dropped frames are gone for
// good — the underlying TCP stream ACKed them, so this models loss above
// the transport, the kind heartbeats, digests, and assigns must survive by
// re-sending.
//
// The proxy keeps accepting after an injected reset: a reconnecting dialer
// gets a fresh relayed session, which is exactly the redial path under
// test.
type Proxy struct {
	inj    *Injector
	ln     net.Listener
	target string

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// NewProxy listens on listenAddr (use "127.0.0.1:0") and relays every
// accepted connection to target through the injector.
func NewProxy(listenAddr, target string, inj *Injector) (*Proxy, error) {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, err
	}
	p := &Proxy{inj: inj, ln: ln, target: target, conns: make(map[net.Conn]struct{})}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's dialable address.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Close stops accepting and tears down every relayed session.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	err := p.ln.Close()
	p.wg.Wait()
	return err
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		t, err := net.Dial("tcp", p.target)
		if err != nil {
			c.Close()
			continue
		}
		if !p.track(c) || !p.track(t) {
			c.Close()
			t.Close()
			return
		}
		pair := func() { // either relay direction dying kills the session
			c.Close()
			t.Close()
		}
		p.wg.Add(2)
		go p.relay(c, t, true, pair)
		go p.relay(t, c, false, pair)
	}
}

func (p *Proxy) track(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.conns[c] = struct{}{}
	return true
}

func (p *Proxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

// relay pumps newline-delimited frames src→dst, consulting the injector
// per frame.
func (p *Proxy) relay(src, dst net.Conn, toTarget bool, kill func()) {
	defer p.wg.Done()
	defer p.untrack(src)
	defer kill()
	sc := bufio.NewScanner(src)
	sc.Buffer(make([]byte, 64<<10), maxFrameBytes+16)
	emit := func(line []byte) bool {
		buf := make([]byte, 0, len(line)+1)
		buf = append(buf, line...)
		buf = append(buf, '\n')
		_, err := dst.Write(buf)
		return err == nil
	}
	for sc.Scan() {
		line := sc.Bytes()
		var v verdict
		if p.inj.Armed() {
			v = p.inj.frameVerdict(toTarget)
		}
		switch {
		case v.reset:
			return // kill() closes both sides mid-stream
		case v.drop:
			continue
		}
		if !emit(line) || (v.dup && !emit(line)) {
			return
		}
	}
}
