// Package pfs models a Lustre-like parallel filesystem: object storage
// targets (OSTs) with FIFO service queues, files striped across OSTs,
// per-tenant token-bucket QoS actuators, and degradation injection.
//
// The model serves three of the paper's use cases directly. The OST case
// needs observable per-OST write performance plus a "close files using a
// poorly performing OST and reopen them using different OSTs" actuator; the
// I/O QoS case needs adjustable QoS parameters whose settings change
// interference and tail latency; and the holistic Fig. 1 pipeline needs the
// system-software sensor domain.
//
// Service model: each OST serializes requests FIFO at an effective bandwidth
// of capacity x health. A striped write splits evenly across the file's OSTs
// and completes when the slowest stripe chunk completes, so one degraded OST
// drags the whole write — exactly the pathology the OST use case responds to.
package pfs

import (
	"fmt"
	"sort"
	"time"

	"autoloop/internal/sim"
	"autoloop/internal/telemetry"
)

// Config parameterizes the filesystem.
type Config struct {
	OSTs               int
	OSTBandwidthMBps   float64
	DefaultStripeCount int
}

// DefaultConfig returns 16 OSTs at 500 MB/s with 4-way striping.
func DefaultConfig() Config {
	return Config{OSTs: 16, OSTBandwidthMBps: 500, DefaultStripeCount: 4}
}

// ost is one object storage target.
type ost struct {
	id        int
	capacity  float64 // MB/s at health 1.0
	health    float64 // bandwidth multiplier in (0,1]
	busyUntil time.Duration
	queueLen  int

	// window counters drained by the collector
	windowBytesMB  float64
	windowBusy     time.Duration
	windowLatSum   time.Duration
	windowLatCount int
}

// File is an open striped file; its layout is fixed at open time.
type File struct {
	ID     int
	Tenant string
	osts   []int
	closed bool
}

// OSTs returns the stripe layout (OST indices) of the file.
func (f *File) OSTs() []int { return append([]int(nil), f.osts...) }

// bucket is a GCRA-style token bucket: tokens may go negative, which
// naturally serializes queued requests behind the deficit.
type bucket struct {
	rateMBps float64
	burstMB  float64
	tokens   float64
	last     time.Duration
}

func (b *bucket) refill(now time.Duration) {
	if b.rateMBps <= 0 {
		return
	}
	dt := (now - b.last).Seconds()
	if dt > 0 {
		b.tokens += b.rateMBps * dt
		if b.tokens > b.burstMB {
			b.tokens = b.burstMB
		}
	}
	b.last = now
}

// reserve consumes sizeMB of tokens and returns how long the caller must wait
// before dispatch.
func (b *bucket) reserve(now time.Duration, sizeMB float64) time.Duration {
	if b.rateMBps <= 0 {
		return 0 // unlimited
	}
	b.refill(now)
	b.tokens -= sizeMB
	if b.tokens >= 0 {
		return 0
	}
	return time.Duration(-b.tokens / b.rateMBps * float64(time.Second))
}

// FS is the filesystem.
type FS struct {
	cfg     Config
	engine  *sim.Engine
	osts    []*ost
	buckets map[string]*bucket
	nextFID int
	nextRR  int // round-robin cursor for stripe placement

	lastCollect time.Duration

	// tenant window counters
	tenantWindowMB map[string]float64
	tenantLatSum   map[string]time.Duration
	tenantLatCount map[string]int
}

// New builds a filesystem attached to engine.
func New(engine *sim.Engine, cfg Config) *FS {
	if cfg.OSTs <= 0 {
		panic("pfs: config requires at least one OST")
	}
	if cfg.DefaultStripeCount <= 0 || cfg.DefaultStripeCount > cfg.OSTs {
		cfg.DefaultStripeCount = cfg.OSTs
	}
	fs := &FS{
		cfg:            cfg,
		engine:         engine,
		buckets:        make(map[string]*bucket),
		tenantWindowMB: make(map[string]float64),
		tenantLatSum:   make(map[string]time.Duration),
		tenantLatCount: make(map[string]int),
	}
	for i := 0; i < cfg.OSTs; i++ {
		fs.osts = append(fs.osts, &ost{id: i, capacity: cfg.OSTBandwidthMBps, health: 1})
	}
	return fs
}

// Config returns the filesystem configuration.
func (fs *FS) Config() Config { return fs.cfg }

// NumOSTs returns the OST count.
func (fs *FS) NumOSTs() int { return len(fs.osts) }

// SetOSTHealth sets the bandwidth multiplier of OST id; 1 is healthy, 0.1
// means 10x slower. Values are clamped to (0, 1].
func (fs *FS) SetOSTHealth(id int, health float64) error {
	if id < 0 || id >= len(fs.osts) {
		return fmt.Errorf("pfs: unknown OST %d", id)
	}
	if health <= 0 {
		health = 0.01
	}
	if health > 1 {
		health = 1
	}
	fs.osts[id].health = health
	return nil
}

// SetQoS installs or updates tenant's token bucket (rate MB/s, burst MB).
// rate <= 0 removes any limit.
func (fs *FS) SetQoS(tenant string, rateMBps, burstMB float64) {
	if rateMBps <= 0 {
		delete(fs.buckets, tenant)
		return
	}
	b := fs.buckets[tenant]
	if b == nil {
		fs.buckets[tenant] = &bucket{rateMBps: rateMBps, burstMB: burstMB, tokens: burstMB, last: fs.engine.Now()}
		return
	}
	b.refill(fs.engine.Now())
	b.rateMBps = rateMBps
	b.burstMB = burstMB
	if b.tokens > burstMB {
		b.tokens = burstMB
	}
}

// QoS reports tenant's configured rate and burst, with ok=false if unlimited.
func (fs *FS) QoS(tenant string) (rateMBps, burstMB float64, ok bool) {
	b := fs.buckets[tenant]
	if b == nil {
		return 0, 0, false
	}
	return b.rateMBps, b.burstMB, true
}

// Open creates a file striped over stripeCount OSTs chosen round-robin,
// skipping any OST in avoid. stripeCount <= 0 uses the default. If avoid
// excludes every OST it is ignored.
func (fs *FS) Open(tenant string, stripeCount int, avoid map[int]bool) *File {
	if stripeCount <= 0 {
		stripeCount = fs.cfg.DefaultStripeCount
	}
	if stripeCount > len(fs.osts) {
		stripeCount = len(fs.osts)
	}
	eligible := make([]int, 0, len(fs.osts))
	for _, o := range fs.osts {
		if !avoid[o.id] {
			eligible = append(eligible, o.id)
		}
	}
	if len(eligible) == 0 { // avoiding everything is a misconfiguration; ignore it
		for _, o := range fs.osts {
			eligible = append(eligible, o.id)
		}
	}
	if stripeCount > len(eligible) {
		stripeCount = len(eligible)
	}
	layout := make([]int, 0, stripeCount)
	for i := 0; i < stripeCount; i++ {
		layout = append(layout, eligible[(fs.nextRR+i)%len(eligible)])
	}
	fs.nextRR = (fs.nextRR + stripeCount) % len(eligible)
	sort.Ints(layout)
	fs.nextFID++
	return &File{ID: fs.nextFID, Tenant: tenant, osts: layout}
}

// Close marks the file closed; subsequent writes panic. Closing is what the
// OST-avoidance response does before reopening with a new layout.
func (fs *FS) Close(f *File) { f.closed = true }

// Write issues a striped write of sizeMB through tenant QoS; done (optional)
// is invoked at completion with the end-to-end latency. Latency includes QoS
// throttle delay, OST queueing, and service time of the slowest stripe.
func (fs *FS) Write(f *File, sizeMB float64, done func(latency time.Duration)) {
	if f == nil || f.closed {
		panic("pfs: write on closed or nil file")
	}
	if sizeMB <= 0 {
		if done != nil {
			done(0)
		}
		return
	}
	now := fs.engine.Now()
	var throttle time.Duration
	if b := fs.buckets[f.Tenant]; b != nil {
		throttle = b.reserve(now, sizeMB)
	}
	dispatch := func() {
		fs.dispatch(f, sizeMB, now, done)
	}
	if throttle > 0 {
		fs.engine.After(throttle, dispatch)
	} else {
		dispatch()
	}
}

// dispatch splits the write across the file's OSTs and completes when the
// slowest chunk finishes. start is the original request time for latency
// accounting.
func (fs *FS) dispatch(f *File, sizeMB float64, start time.Duration, done func(time.Duration)) {
	now := fs.engine.Now()
	chunk := sizeMB / float64(len(f.osts))
	remaining := len(f.osts)
	var maxDone time.Duration
	for _, id := range f.osts {
		o := fs.osts[id]
		begin := now
		if o.busyUntil > begin {
			begin = o.busyUntil
		}
		service := time.Duration(chunk / (o.capacity * o.health) * float64(time.Second))
		finish := begin + service
		o.busyUntil = finish
		o.queueLen++
		o.windowBusy += service
		if finish > maxDone {
			maxDone = finish
		}
		id := id
		fs.engine.At(finish, func() {
			o := fs.osts[id]
			o.queueLen--
			o.windowBytesMB += chunk
			lat := fs.engine.Now() - start
			o.windowLatSum += lat
			o.windowLatCount++
			remaining--
			if remaining == 0 {
				fs.tenantWindowMB[f.Tenant] += sizeMB
				total := fs.engine.Now() - start
				fs.tenantLatSum[f.Tenant] += total
				fs.tenantLatCount[f.Tenant]++
				if done != nil {
					done(total)
				}
			}
		})
	}
}

// Collector exposes the filesystem sensor domain. Per OST:
// pfs.ost.mbps (window throughput), pfs.ost.queue, pfs.ost.busy_frac,
// pfs.ost.lat_ms (mean window write latency). Per tenant with traffic:
// pfs.tenant.mbps, pfs.tenant.lat_ms. Window counters reset on collection,
// so the collector must be sampled on a fixed cadence. Every round hands out
// the same label map (read-only for consumers) and series refs per OST;
// tenants come and go, so their points carry fresh labels and no ref.
func (fs *FS) Collector() telemetry.Collector {
	// ostSensors is one OST's static sensor identity.
	type ostSensors struct {
		labels telemetry.Labels
		refs   [4]telemetry.Ref
	}
	sensors := make([]ostSensors, len(fs.osts))
	for i, o := range fs.osts {
		sensors[i].labels = telemetry.Labels{"ost": fmt.Sprintf("ost%02d", o.id)}
	}
	return telemetry.CollectorFunc(func(now time.Duration) []telemetry.Point {
		interval := now - fs.lastCollect
		fs.lastCollect = now
		secs := interval.Seconds()
		var pts []telemetry.Point
		for i, o := range fs.osts {
			m := &sensors[i]
			mbps, busy := 0.0, 0.0
			if secs > 0 {
				mbps = o.windowBytesMB / secs
				busy = o.windowBusy.Seconds() / secs
				if busy > 1 {
					busy = 1
				}
			}
			latMS := 0.0
			if o.windowLatCount > 0 {
				latMS = o.windowLatSum.Seconds() * 1000 / float64(o.windowLatCount)
			}
			pts = append(pts,
				telemetry.Point{Name: "pfs.ost.mbps", Labels: m.labels, Time: now, Value: mbps, Ref: &m.refs[0]},
				telemetry.Point{Name: "pfs.ost.queue", Labels: m.labels, Time: now, Value: float64(o.queueLen), Ref: &m.refs[1]},
				telemetry.Point{Name: "pfs.ost.busy_frac", Labels: m.labels, Time: now, Value: busy, Ref: &m.refs[2]},
				telemetry.Point{Name: "pfs.ost.lat_ms", Labels: m.labels, Time: now, Value: latMS, Ref: &m.refs[3]},
			)
			o.windowBytesMB, o.windowBusy, o.windowLatSum, o.windowLatCount = 0, 0, 0, 0
		}
		tenants := make([]string, 0, len(fs.tenantWindowMB))
		for tnt := range fs.tenantWindowMB {
			tenants = append(tenants, tnt)
		}
		sort.Strings(tenants)
		for _, tnt := range tenants {
			labels := telemetry.Labels{"tenant": tnt}
			mb := fs.tenantWindowMB[tnt]
			if secs > 0 {
				pts = append(pts, telemetry.Point{Name: "pfs.tenant.mbps", Labels: labels, Time: now, Value: mb / secs})
			}
			if n := fs.tenantLatCount[tnt]; n > 0 {
				pts = append(pts, telemetry.Point{
					Name: "pfs.tenant.lat_ms", Labels: labels, Time: now,
					Value: fs.tenantLatSum[tnt].Seconds() * 1000 / float64(n),
				})
			}
			delete(fs.tenantWindowMB, tnt)
			delete(fs.tenantLatSum, tnt)
			delete(fs.tenantLatCount, tnt)
		}
		return pts
	})
}
