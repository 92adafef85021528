// Package wal implements the durable event ledger under the daemon's
// stateful planes: an append-only segmented log of CRC32C-framed records
// with group-commit fsync batching, segment rotation and compaction, a
// buffered replay reader with typed corruption errors, and an atomic
// snapshot codec that records the WAL offset each snapshot covers.
//
// The design is the embedded, dependency-free equivalent of the replayable
// ledger production ODA stacks sit on (NRG-CHAMP routes every MAPE phase
// through Kafka topics with consumer offsets): subsystems journal their
// mutations as (kind, payload) records, recovery is snapshot-load plus
// tail-replay, and the log survives kill -9 — a torn frame at the tail of
// the final segment is truncated away at Open, anything else invalid
// surfaces as a *CorruptError, never a panic and never silently bad state.
package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// SyncPolicy selects when appended records are fsynced to stable storage.
type SyncPolicy int

const (
	// SyncBatch groups commits: appends buffer in memory and a background
	// goroutine writes and fsyncs the batch every Options.BatchInterval.
	// This is the default — it bounds the loss window to one interval while
	// keeping the append hot path free of syscalls.
	SyncBatch SyncPolicy = iota
	// SyncAlways writes and fsyncs every append before returning — the
	// zero-loss-window policy, at one fsync per record.
	SyncAlways
	// SyncNone writes through the OS page cache and never fsyncs (except
	// on explicit Sync and Close). Durability is then bounded by the OS
	// flush horizon; useful for benchmarks and tests.
	SyncNone
)

// String implements fmt.Stringer ("batch", "always", "none").
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncNone:
		return "none"
	}
	return "batch"
}

// ParseSyncPolicy parses the string forms String produces (the -fsync flag
// vocabulary).
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "batch", "":
		return SyncBatch, nil
	case "always":
		return SyncAlways, nil
	case "none":
		return SyncNone, nil
	}
	return SyncBatch, fmt.Errorf("wal: unknown sync policy %q (want batch, always, or none)", s)
}

// Options configures a WAL.
type Options struct {
	// Sync selects the fsync policy (default SyncBatch).
	Sync SyncPolicy
	// BatchInterval is the group-commit cadence under SyncBatch; the
	// default is 5ms.
	BatchInterval time.Duration
	// SegmentBytes is the rotation threshold: once a segment reaches it,
	// the next flush starts a new segment. It is a soft limit — a flushed
	// batch is never split across segments. Default 8 MiB.
	SegmentBytes int64
	// MaxBacklog bounds the in-memory frame buffer. When storage is
	// faulting or the group committer is stalled, appends keep buffering
	// until the backlog reaches this many bytes; past it Append returns
	// ErrBacklog (a retryable condition) instead of growing without bound.
	// Default 4 MiB.
	MaxBacklog int64
	// FS is the filesystem the log writes through; nil means the process
	// filesystem. Tests inject a fault-simulating FS here.
	FS FS
}

func (o *Options) fill() {
	if o.BatchInterval <= 0 {
		o.BatchInterval = 5 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 8 << 20
	}
	if o.MaxBacklog <= 0 {
		o.MaxBacklog = 4 << 20
	}
	if o.FS == nil {
		o.FS = osFS{}
	}
}

// Metrics counts a WAL's lifetime activity.
type Metrics struct {
	Appends   uint64 // records appended
	Bytes     uint64 // frame bytes appended (incl. headers)
	Syncs     uint64 // fsync calls
	Rotations uint64 // segments started beyond the first
	Truncated uint64 // torn-tail bytes dropped at Open

	StorageFaults  uint64 // storage faults surfaced as *FaultError
	WriteRetries   uint64 // retryable write faults whose unwritten tail was requeued
	BacklogRejects uint64 // appends rejected with ErrBacklog
}

// WAL is an append-only segmented log. It is safe for concurrent use.
type WAL struct {
	dir string
	opt Options
	fs  FS

	// syncMu serializes group committers (the flusher goroutine, Sync, and
	// Close): the buffered frames are written under mu, but the fsync runs
	// with mu released — appenders only ever wait on memory work, never on
	// storage.
	syncMu sync.Mutex

	// mu guards everything below. Appends under SyncBatch only encode into
	// buf (no syscalls); the flusher goroutine and Sync drain it.
	mu       sync.Mutex
	f        File   // active segment
	segFirst uint64 // first seq stored in the active segment
	segSize  int64  // durable bytes in the active segment (excl. buf)
	nextSeq  uint64 // seq the next Append assigns
	buf      []byte // encoded frames not yet written
	spare    []byte // commit's detached buffer, swapped back after the write
	dirty    bool   // written since the last fsync
	closed   bool
	err      error // sticky I/O error; every later op returns it
	metrics  Metrics

	// segments is the ordered list of closed+active segment file names
	// (base names), kept in memory so replay and compaction need no
	// directory rescan.
	segments []segmentInfo

	done chan struct{}
	wg   sync.WaitGroup
}

// segmentInfo is one segment file and the first record sequence it holds.
type segmentInfo struct {
	name  string
	first uint64
}

const segmentSuffix = ".wal"

// segmentName formats the file name of the segment whose first record is
// seq ("%016x.wal") — lexical order equals sequence order.
func segmentName(seq uint64) string {
	return fmt.Sprintf("%016x%s", seq, segmentSuffix)
}

// parseSegmentName inverts segmentName.
func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasSuffix(name, segmentSuffix) {
		return 0, false
	}
	hex := strings.TrimSuffix(name, segmentSuffix)
	if len(hex) != 16 {
		return 0, false
	}
	seq, err := strconv.ParseUint(hex, 16, 64)
	if err != nil || seq == 0 {
		return 0, false
	}
	return seq, true
}

// Open opens (or creates) the log in dir, recovering from a previous crash:
// the final segment is scanned and a torn frame at its tail — the expected
// leftover of a kill mid-write — is truncated away so appends resume at a
// clean record boundary. Corruption anywhere else is not repaired here; it
// surfaces as a *CorruptError during Replay.
func Open(dir string, opt Options) (*WAL, error) {
	opt.fill()
	if err := opt.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	w := &WAL{
		dir:  dir,
		opt:  opt,
		fs:   opt.FS,
		done: make(chan struct{}),
	}
	entries, err := opt.FS.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if first, ok := parseSegmentName(e.Name()); ok {
			w.segments = append(w.segments, segmentInfo{name: e.Name(), first: first})
		}
	}
	sort.Slice(w.segments, func(i, j int) bool { return w.segments[i].first < w.segments[j].first })

	if len(w.segments) == 0 {
		if err := w.startSegmentLocked(1); err != nil {
			return nil, err
		}
	} else {
		last := w.segments[len(w.segments)-1]
		count, validSize, truncated, err := scanSegment(w.fs, filepath.Join(dir, last.name), last.first)
		if err != nil {
			return nil, err
		}
		f, err := w.fs.OpenFile(filepath.Join(dir, last.name), os.O_RDWR, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: open: %w", err)
		}
		if truncated > 0 {
			if err := f.Truncate(validSize); err != nil {
				f.Close()
				return nil, fmt.Errorf("wal: truncate torn tail of %s: %w", last.name, err)
			}
			if err := f.Sync(); err != nil {
				f.Close()
				return nil, fmt.Errorf("wal: open: %w", err)
			}
			w.metrics.Truncated = uint64(truncated)
		}
		if _, err := f.Seek(validSize, 0); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: open: %w", err)
		}
		w.f = f
		w.segFirst = last.first
		w.segSize = validSize
		w.nextSeq = last.first + count
	}

	if w.opt.Sync != SyncAlways {
		// The flusher drains buffered appends for both SyncBatch (write +
		// group fsync) and SyncNone (write through the page cache only).
		w.wg.Add(1)
		go w.flusher()
	}
	return w, nil
}

// scanSegment walks one segment counting valid frames. It returns the frame
// count, the byte offset of the first invalid frame (== file size when the
// segment is fully valid), and how many trailing bytes are torn. Invalid
// bytes are tolerated only as a tail: this is Open's crash recovery, where
// a torn final frame is expected and everything before it must be intact.
func scanSegment(fsys FS, path string, first uint64) (count uint64, validSize int64, torn int64, err error) {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("wal: open: %w", err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return 0, 0, 0, fmt.Errorf("wal: open: %w", err)
	}
	sr := newSegmentReader(f, path, first)
	for {
		_, err := sr.next()
		if err == errSegmentEnd {
			break
		}
		if err != nil {
			// Torn tail: everything from the bad frame on is dropped.
			return sr.count, sr.offset, info.Size() - sr.offset, nil
		}
	}
	return sr.count, sr.offset, 0, nil
}

// startSegmentLocked creates and activates the segment whose first record
// will be seq. Caller holds mu (or is Open, pre-publication).
func (w *WAL) startSegmentLocked(seq uint64) error {
	// Create the new segment before retiring the old one: a failed create
	// (ENOSPC, say) then leaves the active segment open and writable, so
	// the retryable fault really can be retried at the next flush — the
	// segment limit is soft by contract.
	name := segmentName(seq)
	f, err := w.fs.OpenFile(filepath.Join(w.dir, name), os.O_CREATE|os.O_RDWR|os.O_EXCL, 0o644)
	if err != nil {
		w.metrics.StorageFaults++
		return &FaultError{Op: "create", Path: filepath.Join(w.dir, name), Err: err}
	}
	if w.f != nil {
		if err := w.fsyncLocked(); err != nil { // completed segments are always durable
			f.Close()
			_ = w.fs.Remove(filepath.Join(w.dir, name))
			return err
		}
		if err := w.f.Close(); err != nil {
			f.Close()
			_ = w.fs.Remove(filepath.Join(w.dir, name))
			return fmt.Errorf("wal: rotate: %w", err)
		}
		w.metrics.Rotations++
	}
	w.f = f
	w.segFirst = seq
	w.segSize = 0
	if w.nextSeq == 0 {
		w.nextSeq = seq
	}
	w.segments = append(w.segments, segmentInfo{name: name, first: seq})
	return w.fs.SyncDir(w.dir)
}

// segPath returns the active segment's file path. Caller holds mu.
func (w *WAL) segPath() string {
	return filepath.Join(w.dir, segmentName(w.segFirst))
}

// syncDir fsyncs a directory so a just-created or just-renamed file's
// directory entry is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	return nil
}

// Append journals one record and returns its sequence number. Under
// SyncBatch the record is buffered (no syscall on the hot path) and becomes
// durable at the next group commit; under SyncAlways it is written and
// fsynced before Append returns; under SyncNone it is written through the
// page cache at the flusher cadence. Steady state allocates nothing: the
// frame is encoded into a reused internal buffer.
//
// Storage faults surface as typed errors: ErrBacklog when the in-memory
// buffer has hit Options.MaxBacklog (retryable — the record was NOT
// accepted), and *FaultError once the log has taken a disk fault. Under
// SyncAlways a retryable *FaultError is returned alongside a valid seq:
// the record is accepted and buffered, durability just hasn't been
// achieved yet — callers must not re-append it.
func (w *WAL) Append(kind uint8, payload []byte) (uint64, error) {
	if len(payload) >= MaxRecord {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds MaxRecord", len(payload))
	}
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return 0, ErrClosed
	}
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return 0, err
	}
	if int64(len(w.buf)) >= w.opt.MaxBacklog {
		w.metrics.BacklogRejects++
		w.mu.Unlock()
		return 0, ErrBacklog
	}
	seq := w.nextSeq
	w.nextSeq++
	w.buf = appendFrame(w.buf, kind, payload)
	w.metrics.Appends++
	w.metrics.Bytes += uint64(frameSize(len(payload)))
	var err error
	if w.opt.Sync == SyncAlways {
		if err = w.flushLocked(); err == nil {
			err = w.fsyncLocked()
		}
	}
	w.mu.Unlock()
	if err != nil {
		return seq, err
	}
	return seq, nil
}

// flushLocked writes the buffered frames to the active segment and rotates
// when the segment has outgrown the threshold. Caller holds mu.
//
// A retryable write fault (ENOSPC, short write) keeps the unwritten tail
// of the buffer in place — the partial frame on disk is completed by the
// next flush, so the segment stays contiguous — and leaves the WAL usable.
// Anything else goes sticky-fatal.
func (w *WAL) flushLocked() error {
	if w.err != nil {
		return w.err
	}
	if len(w.buf) > 0 {
		n, err := w.f.Write(w.buf)
		if n > 0 {
			w.segSize += int64(n)
			w.dirty = true
		}
		if err != nil {
			fe := &FaultError{Op: "write", Path: w.segPath(), Err: err}
			w.metrics.StorageFaults++
			if fe.Retryable() {
				w.metrics.WriteRetries++
				w.buf = w.buf[:copy(w.buf, w.buf[n:])]
				return fe
			}
			w.err = fe
			return w.err
		}
		w.buf = w.buf[:0]
	}
	if w.segSize >= w.opt.SegmentBytes {
		if err := w.startSegmentLocked(w.nextSeq); err != nil {
			if !Retryable(err) {
				w.err = err
			}
			return err
		}
	}
	return nil
}

// fsyncLocked makes the written frames durable. Caller holds mu. A failed
// fsync is always fatal: the kernel may have dropped the dirty pages while
// clearing the error, so no retry can restore the durability claim.
func (w *WAL) fsyncLocked() error {
	if w.err != nil {
		return w.err
	}
	if !w.dirty {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		w.metrics.StorageFaults++
		w.err = &FaultError{Op: "fsync", Path: w.segPath(), Err: err}
		return w.err
	}
	w.dirty = false
	w.metrics.Syncs++
	return nil
}

// commit is one group commit: write the buffered frames under mu, then
// fsync with mu released so concurrent appends keep buffering at memory
// speed while the storage stall happens off to the side. syncMu serializes
// committers, so no new write can land on the file between the write and
// the fsync — when commit returns, every record appended before the call is
// written, and durable when fsync was requested. Appends never trigger a
// commit early: a per-append wakeup would degenerate group commit into a
// flush per record under steady load.
func (w *WAL) commit(fsync bool) error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrClosed
	}
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return err
	}
	if w.opt.Sync == SyncAlways {
		// Appends write and fsync inline under mu in this mode; nothing is
		// ever buffered, so there is nothing to commit.
		w.mu.Unlock()
		return nil
	}
	detached := w.buf
	w.buf = w.spare[:0]
	f := w.f
	w.mu.Unlock()

	// syncMu makes this the only writer: the buffered frames go out, and
	// the fsync runs, with appenders free to keep filling the other buffer.
	var n int
	var werr error
	if len(detached) > 0 {
		n, werr = f.Write(detached)
	}

	w.mu.Lock()
	w.segSize += int64(n)
	if n > 0 {
		w.dirty = true
	}
	if werr != nil {
		fe := &FaultError{Op: "write", Path: w.segPath(), Err: werr}
		w.metrics.StorageFaults++
		if fe.Retryable() {
			// Requeue the unwritten tail ahead of any frames appended
			// while the write was in flight, so on-disk order stays
			// sequence order; the partial frame on disk is completed by
			// the next commit. The WAL stays usable.
			w.metrics.WriteRetries++
			rem := detached[n:]
			if len(w.buf) > 0 {
				merged := make([]byte, 0, len(rem)+len(w.buf))
				merged = append(merged, rem...)
				merged = append(merged, w.buf...)
				w.spare = w.buf[:0]
				w.buf = merged
			} else {
				w.buf = rem
			}
			w.mu.Unlock()
			return fe
		}
		if w.err == nil {
			w.err = fe
		}
		err := w.err
		w.mu.Unlock()
		return err
	}
	w.spare = detached[:0]
	if w.segSize >= w.opt.SegmentBytes {
		// Rotation must see an empty buffer (segment files are named by
		// their first sequence): flush the few frames that arrived during
		// the write, then rotate — under mu, paid once per SegmentBytes.
		// startSegmentLocked fsyncs the finished segment, clearing dirty.
		if err := w.flushLocked(); err != nil {
			w.mu.Unlock()
			return err
		}
	}
	doSync := fsync && w.dirty
	w.mu.Unlock()
	if !doSync {
		return nil
	}
	err := f.Sync()
	w.mu.Lock()
	defer w.mu.Unlock()
	if err != nil {
		if w.err == nil {
			w.metrics.StorageFaults++
			w.err = &FaultError{Op: "fsync", Path: w.segPath(), Err: err}
		}
		return w.err
	}
	w.dirty = false
	w.metrics.Syncs++
	return nil
}

// flusher is the group-commit goroutine: every BatchInterval it commits the
// buffer — written through for SyncNone, written and fsynced for SyncBatch.
func (w *WAL) flusher() {
	defer w.wg.Done()
	ticker := time.NewTicker(w.opt.BatchInterval)
	defer ticker.Stop()
	for {
		select {
		case <-w.done:
			return
		case <-ticker.C:
		}
		_ = w.commit(w.opt.Sync == SyncBatch)
	}
}

// Sync forces an immediate group commit: every record appended before the
// call is written and fsynced when Sync returns, regardless of policy.
func (w *WAL) Sync() error { return w.commit(true) }

// Close drains the buffer, fsyncs, stops the group-commit goroutine, and
// closes the active segment. The WAL must not be used afterwards.
func (w *WAL) Close() error {
	w.syncMu.Lock() // waits out any in-flight group commit
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		w.syncMu.Unlock()
		return ErrClosed
	}
	w.closed = true
	err := w.flushLocked()
	if err == nil {
		err = w.fsyncLocked()
	}
	w.mu.Unlock()
	w.syncMu.Unlock() // before wg.Wait: the flusher may be blocked on syncMu
	close(w.done)
	w.wg.Wait()
	if cerr := w.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("wal: close: %w", cerr)
	}
	return err
}

// LastSeq returns the sequence number of the most recently appended record
// (0 when the log is empty). Records up to LastSeq are durable only after a
// Sync or group commit; snapshot writers Sync first and then record LastSeq
// as the covered offset.
func (w *WAL) LastSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextSeq - 1
}

// Metrics returns a snapshot of the WAL's counters.
func (w *WAL) Metrics() Metrics {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.metrics
}

// Replay returns a reader over every record with sequence >= from, flushing
// buffered appends first so the reader observes everything appended so far.
// The reader must be exhausted or abandoned before Compact runs; appends may
// continue concurrently (the reader sees a prefix).
func (w *WAL) Replay(from uint64) (*Reader, error) {
	// syncMu first, mirroring Close: a group commit writes its detached
	// buffer with mu released, so flushing under mu alone could interleave
	// this flush with that in-flight write (or rotate the segment out from
	// under it). With syncMu held no commit is mid-write.
	w.syncMu.Lock()
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		w.syncMu.Unlock()
		return nil, ErrClosed
	}
	if err := w.flushLocked(); err != nil {
		w.mu.Unlock()
		w.syncMu.Unlock()
		return nil, err
	}
	segs := make([]segmentInfo, len(w.segments))
	copy(segs, w.segments)
	w.mu.Unlock()
	w.syncMu.Unlock()
	return newReader(w.fs, w.dir, segs, from), nil
}

// Fold feeds every record with sequence >= from to apply, in log order (a
// Payload lasts only the call), and returns how many it fed. Mid-log damage
// and an apply failure stop it.
func (w *WAL) Fold(from uint64, apply func(Record) error) (int, error) {
	r, err := w.Replay(from)
	if err != nil {
		return 0, err
	}
	defer r.Close()
	for n := 0; ; n++ {
		rec, err := r.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, fmt.Errorf("wal replay: %w", err)
		}
		if err := apply(rec); err != nil {
			return n, fmt.Errorf("wal replay seq %d: %w", rec.Seq, err)
		}
	}
}

// Compact removes whole segments every record of which has sequence < keep
// — typically the sequence a snapshot covers, plus one. The active segment
// is never removed. It returns how many segment files were deleted.
func (w *WAL) Compact(keep uint64) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, ErrClosed
	}
	removed := 0
	for len(w.segments) > 1 {
		// The first segment's records span [first, next.first); it is
		// removable only when the whole range is below keep.
		if w.segments[1].first > keep {
			break
		}
		if err := w.fs.Remove(filepath.Join(w.dir, w.segments[0].name)); err != nil {
			return removed, fmt.Errorf("wal: compact: %w", err)
		}
		w.segments = w.segments[1:]
		removed++
	}
	if removed > 0 {
		if err := w.fs.SyncDir(w.dir); err != nil {
			return removed, err
		}
	}
	return removed, nil
}
