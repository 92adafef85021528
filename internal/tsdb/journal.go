package tsdb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
	"time"

	"autoloop/internal/telemetry"
	"autoloop/internal/wal"
)

// Write-ahead journaling. When a Journaler is attached, every accepted
// append (including an equal-timestamp overwrite, which mutates the tail) is
// encoded into a wal.KindTSDBPoints record emitted while the store's write
// lock is still held, so the record order in the log is exactly the apply
// order even under concurrent appenders: one record per Append, one per
// batchChunk points of an AppendBatch. Rejected points (empty name, NaN,
// out-of-order) never reach the journal: the log holds only mutations, and
// replaying it cannot fail validation.
//
// A record names each point's series by a journal id, a uvarint the series
// takes with its first journaled point and keeps: DB.byID maps it back, and
// a snapshot carries it, so a restored store, and the process that restored
// it, continue the same id space. A record is a run of entries:
//
//	point:      uvarint(id<<1),   varint time delta, 8B value
//	definition: uvarint(id<<1|1), uvarint len(name), name, label encoding,
//	            varint time delta, 8B value
//
// The time delta is from the record's previous entry (from 0 for its
// first), and the value is little-endian IEEE-754. A definition is a point
// that also names its series: it is the id's first use, so replay meets the
// name before any point that needs it, and it binds the id the store gives
// out next. A series' labels are encoded once per log (appendLabelsEnc),
// and a point of a defined series is ~11 bytes.
//
// The codec pieces (uvarint lengths and counts, varint times, 8-byte values,
// the label encoding) are also the body of a snapshot (snapshot.go), so the
// two formats share one decoder. Logs written before the id form hold
// wal.KindTSDBAppend records, every point spelling out its name and labels
// (applyNamedLocked); ApplyWAL still replays them.
//
// Recovery is the inverse: RestoreSnapshot rebuilds the store from the
// newest snapshot, then RestoreFrom (or ApplyWAL per record) replays the WAL
// tail. Both must run before Journal is attached — replay goes through a
// non-journaling apply path, but appends racing a restore would interleave
// journal records with replayed ones.

// Journaler is the sink accepted appends are logged to; *wal.WAL satisfies
// it. Append must be safe for concurrent use and must preserve call order
// per caller (the WAL's group-commit buffer does). It returns sequence 0
// with an error when it refuses a record outright (the record never reaches
// the log); a record given a sequence reaches the log before any later one,
// or no later one does, even when an error reports it not yet durable.
type Journaler interface {
	Append(kind uint8, payload []byte) (uint64, error)
}

// Journal attaches the write-ahead journal. It must be called before
// ingestion starts (and after any RestoreSnapshot/RestoreFrom): the field is
// read on the append hot path without synchronization, relying on the
// happens-before edge of starting the appender goroutines.
func (db *DB) Journal(j Journaler) { db.journal = j }

// pointsRecord is one wal.KindTSDBPoints record being built under the write
// lock. It is pooled and reused across records, so a steady-state journaled
// append allocates nothing.
type pointsRecord struct {
	b    []byte
	prev time.Duration // time of the record's previous entry
	mark int           // len(db.byID) when the record began
}

var recScratch = sync.Pool{New: func() interface{} { return new(pointsRecord) }}

// beginLocked empties r for the next record. The caller holds the write
// lock.
func (db *DB) beginLocked(r *pointsRecord) {
	r.b, r.prev, r.mark = r.b[:0], 0, len(db.byID)
}

// encodeLocked appends p, accepted into s, as r's next entry. A series not
// journaled before takes the next id here, and the entry defines it. The
// caller holds the write lock.
func (db *DB) encodeLocked(r *pointsRecord, s *memSeries, p *telemetry.Point) {
	if s.jid == 0 {
		db.byID = append(db.byID, s)
		s.jid = uint32(len(db.byID))
		r.b = binary.AppendUvarint(r.b, uint64(s.jid-1)<<1|1)
		r.b = binary.AppendUvarint(r.b, uint64(len(s.name)))
		r.b = append(r.b, s.name...)
		r.b = appendLabelsEnc(r.b, s.labels)
	} else {
		r.b = binary.AppendUvarint(r.b, uint64(s.jid-1)<<1)
	}
	r.b = binary.AppendVarint(r.b, int64(p.Time-r.prev))
	r.prev = p.Time
	r.b = binary.LittleEndian.AppendUint64(r.b, math.Float64bits(p.Value))
}

// emitLocked hands the record to the journal. The caller holds the write
// lock; wal.Append nests its own mutex inside it (never the reverse), so the
// order is deadlock-free. A record the journal refuses never reaches the
// log, so the ids it defined are given back: the series they named define
// themselves again with their next journaled point, and no later record
// uses an id the log never defined.
func (db *DB) emitLocked(r *pointsRecord) error {
	seq, err := db.journal.Append(wal.KindTSDBPoints, r.b)
	if err != nil && seq == 0 {
		for _, s := range db.byID[r.mark:] {
			s.jid = 0
		}
		clear(db.byID[r.mark:])
		db.byID = db.byID[:r.mark]
	}
	return err
}

// journalLocked journals one point accepted into s as a record of its own.
func (db *DB) journalLocked(s *memSeries, p *telemetry.Point) error {
	r := recScratch.Get().(*pointsRecord)
	db.beginLocked(r)
	db.encodeLocked(r, s, p)
	err := db.emitLocked(r)
	recScratch.Put(r)
	return err
}

// appendLabelsEnc appends the label encoding of a series definition (and of
// a snapshot's series and a KindTSDBAppend point):
//
//	uvarint len(labels), then per label uvarint len(k), k, uvarint len(v), v
//
// labels in sorted key order. The decoder rebuilds a map, so the order
// carries no meaning to it; sorting makes the encoding canonical, so a
// snapshot has one byte form per logical state. It runs once per series
// definition and per series of a snapshot, never per append, and sorts a
// label set of up to eight keys without allocating.
func appendLabelsEnc(buf []byte, labels telemetry.Labels) []byte {
	var arr [8]string
	keys := arr[:0]
	for k := range labels {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	buf = binary.AppendUvarint(buf, uint64(len(labels)))
	for _, k := range keys {
		buf = binary.AppendUvarint(buf, uint64(len(k)))
		buf = append(buf, k...)
		buf = binary.AppendUvarint(buf, uint64(len(labels[k])))
		buf = append(buf, labels[k]...)
	}
	return buf
}

// decoder reads the codec, for a journal record and for a snapshot. The
// first failed read sticks and empties the buffer, so every later read
// fails too and returns a zero value: a caller checks err once, after a run
// of reads.
type decoder struct {
	buf []byte
	err error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("tsdb: decode: truncated %s", what)
	}
	d.buf = nil
}

func (d *decoder) uvarint() uint64 {
	v, sz := binary.Uvarint(d.buf)
	if sz <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.buf = d.buf[sz:]
	return v
}

func (d *decoder) varint() int64 {
	v, sz := binary.Varint(d.buf)
	if sz <= 0 {
		d.fail("varint")
		return 0
	}
	d.buf = d.buf[sz:]
	return v
}

func (d *decoder) float() float64 {
	if len(d.buf) < 8 {
		d.fail("value")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf))
	d.buf = d.buf[8:]
	return v
}

// count reads an element count. Each element takes at least minSize bytes,
// so a count the rest of the buffer cannot hold is corrupt and must not
// size an allocation.
func (d *decoder) count(minSize int) int {
	n := d.uvarint()
	if n > uint64(len(d.buf))/uint64(minSize) {
		d.fail("count")
		return 0
	}
	return int(n)
}

// str reads one uvarint-prefixed string.
func (d *decoder) str() string {
	n := d.count(1)
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

// labels reads appendLabelsEnc's format; the empty set reads as nil.
func (d *decoder) labels() telemetry.Labels {
	n := d.count(2) // a label is at least two length bytes
	if n == 0 {
		return nil
	}
	labels := make(telemetry.Labels, n)
	for i := 0; i < n && d.err == nil; i++ {
		k := d.str()
		labels[k] = d.str()
	}
	return labels
}

// pointsEntry is one decoded entry of a wal.KindTSDBPoints record; name and
// labels are set for a definition only.
type pointsEntry struct {
	id     uint64
	def    bool
	name   string
	labels telemetry.Labels
	time   time.Duration
	value  float64
}

// entry decodes the wal.KindTSDBPoints entry at the head of the buffer; prev is the time
// of the record's previous entry.
func (d *decoder) entry(prev time.Duration) pointsEntry {
	h := d.uvarint()
	e := pointsEntry{id: h >> 1, def: h&1 == 1}
	if e.def {
		e.name, e.labels = d.str(), d.labels()
	}
	e.time = prev + time.Duration(d.varint())
	e.value = d.float()
	return e
}

// ApplyWAL applies one WAL record if its kind is the store's, reporting
// whether it was: a wal.KindTSDBPoints record, or a wal.KindTSDBAppend one
// of a log written before the id form. It is the one place that decides
// which records are the store's, for RestoreFrom and for a caller replaying
// a shared log record by record. A point strictly behind its series' tail is
// skipped rather than rejected, and one equal to the tail re-applies as an
// idempotent overwrite: snapshots are taken under live ingestion, so the
// WAL tail being replayed may overlap records the snapshot already
// reflects, and per-series log order equals apply order, which makes
// re-application a no-op. A record that does not decode is an error, never
// skipped; an entry is decoded whole before it is applied.
func (db *DB) ApplyWAL(kind uint8, payload []byte) (bool, error) {
	var apply func([]byte) error
	switch kind {
	case wal.KindTSDBPoints:
		apply = db.applyPointsLocked
	case wal.KindTSDBAppend:
		apply = db.applyNamedLocked
	default:
		return false, nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	return true, apply(payload)
}

// applyPointsLocked applies a wal.KindTSDBPoints payload. A point resolves
// its series through the id table, building no label map and hashing
// nothing; only a definition looks its series up by name and labels.
func (db *DB) applyPointsLocked(payload []byte) error {
	if len(payload) == 0 {
		return errors.New("tsdb: decode: empty points record")
	}
	d := decoder{buf: payload}
	var at time.Duration
	for len(d.buf) > 0 {
		e := d.entry(at)
		if d.err != nil {
			return d.err
		}
		at = e.time
		s, err := db.bindLocked(&e)
		if err != nil {
			return err
		}
		if last := s.last(); last != nil && e.time < last.Time {
			continue // already reflected by the snapshot
		}
		p := telemetry.Point{Name: s.name, Labels: s.labels, Time: e.time, Value: e.value}
		if _, err := db.appendLocked(s, &p); err != nil {
			return err
		}
	}
	return nil
}

// bindLocked resolves an entry's series. A point's id must be defined; a
// definition either repeats the binding its id already has (a record the
// snapshot also reflects) or binds the next free id to a series that has
// none, creating the series on first sight.
func (db *DB) bindLocked(e *pointsEntry) (*memSeries, error) {
	n := uint64(len(db.byID))
	if !e.def {
		if e.id >= n {
			return nil, fmt.Errorf("tsdb: decode: undefined series id %d", e.id)
		}
		return db.byID[e.id], nil
	}
	if e.name == "" {
		return nil, fmt.Errorf("tsdb: decode: series id %d defined without a name", e.id)
	}
	if e.id > n {
		return nil, fmt.Errorf("tsdb: decode: series id %d defined before id %d", e.id, n)
	}
	p := telemetry.Point{Name: e.name, Labels: e.labels}
	h, lh := identityOf(&p)
	s := db.lookup(h, &p)
	switch {
	case e.id < n:
		if db.byID[e.id] != s {
			return nil, fmt.Errorf("tsdb: decode: series id %d redefined as %s%s", e.id, e.name, e.labels)
		}
		return s, nil
	case s == nil:
		s = db.create(&p, h, lh, db.rules)
	case s.jid != 0:
		return nil, fmt.Errorf("tsdb: decode: %s%s defined as id %d, already id %d", e.name, e.labels, e.id, s.jid-1)
	}
	db.byID = append(db.byID, s)
	s.jid = uint32(len(db.byID))
	return s, nil
}

// applyNamedLocked applies a wal.KindTSDBAppend payload, a run of points
// that each spell out their series — uvarint len(name), name, label
// encoding, varint time, 8B value — resolving each by name and labels.
func (db *DB) applyNamedLocked(payload []byte) error {
	d := decoder{buf: payload}
	for len(d.buf) > 0 {
		p := telemetry.Point{Name: d.str(), Labels: d.labels(), Time: time.Duration(d.varint()), Value: d.float()}
		if d.err != nil {
			return d.err
		}
		h, _ := identityOf(&p)
		s := db.lookup(h, &p)
		if s != nil {
			if last := s.last(); last != nil && p.Time < last.Time {
				continue // already reflected by the snapshot
			}
		}
		if _, err := db.appendLocked(s, &p); err != nil {
			return err
		}
	}
	return nil
}

// ReplaySource is the record iterator RestoreFrom consumes; *wal.Reader
// satisfies it.
type ReplaySource interface {
	Next() (wal.Record, error)
}

// RestoreFrom replays every record of the store's kinds (ApplyWAL) from src
// into the database, ignoring records of other kinds, until the source
// reports a clean end (io.EOF). Corruption and decode errors are returned
// as-is. It must run before Journal is attached.
func (db *DB) RestoreFrom(src ReplaySource) error {
	for {
		rec, err := src.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if _, err := db.ApplyWAL(rec.Kind, rec.Payload); err != nil {
			return fmt.Errorf("tsdb: replay seq %d: %w", rec.Seq, err)
		}
	}
}
