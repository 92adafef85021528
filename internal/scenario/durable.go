package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"autoloop/internal/bus"
	"autoloop/internal/control"
	"autoloop/internal/knowledge"
	"autoloop/internal/sim"
	"autoloop/internal/tsdb"
	"autoloop/internal/wal"
)

// Snapshot is one combined snapshot, stored as "modad" in the log's
// directory: the log sequence it covers, the virtual time it was taken at,
// and each subsystem's own serialized state.
type Snapshot struct {
	Seq       uint64          `json:"seq"`
	Now       time.Duration   `json:"now"`
	Knowledge json.RawMessage `json:"knowledge"`
	Control   json.RawMessage `json:"control"`
	// TSDB is the store's binary snapshot. It follows the JSON header as raw
	// bytes (see encode); only a payload from before the store's snapshot
	// went binary carries it as this member, a JSON document itself.
	TSDB json.RawMessage `json:"tsdb,omitempty"`
}

// encode lays the snapshot out as its compact JSON header (every field but
// TSDB), a newline, then the TSDB bytes as they are: embedding binary in
// the JSON would mean escaping it.
func (s Snapshot) encode() ([]byte, error) {
	body := s.TSDB
	s.TSDB = nil
	hdr, err := json.Marshal(&s)
	if err != nil {
		return nil, err
	}
	return append(append(hdr, '\n'), body...), nil
}

// decodeSnapshot reads encode's layout, and the single JSON document with
// the store's snapshot as its "tsdb" member that came before it: that
// payload has no newline, since json.Marshal never writes a raw one.
func decodeSnapshot(payload []byte) (Snapshot, error) {
	var snap Snapshot
	hdr, body, split := bytes.Cut(payload, []byte{'\n'})
	if err := json.Unmarshal(hdr, &snap); err != nil {
		return snap, fmt.Errorf("decode snapshot: %w", err)
	}
	if split {
		snap.TSDB = body
	}
	return snap, nil
}

// LatestSnapshot decodes the newest valid combined snapshot in dir; ok is
// false when there is none.
func LatestSnapshot(dir string) (snap Snapshot, ok bool, err error) {
	payload, _, ok, err := wal.LatestSnapshot(dir, "modad")
	if err == nil && ok {
		snap, err = decodeSnapshot(payload)
	}
	return snap, ok, err
}

// Durable journals an assembled runtime to the write-ahead log WAL keeps
// in Dir, with its snapshots; Logf reports the control records Recover
// skips and the journal's storage faults.
// Without a WAL, Recover assembles afresh and Checkpoint does nothing.
// Restored, Seq and Replayed say what Recover resumed from: a snapshot and
// the sequence it covers, and how many tail records it folded.
type Durable struct {
	WAL      *wal.WAL
	Dir      string
	Logf     func(format string, args ...any)
	Restored bool
	Seq      uint64
	Replayed int
	rt       *Runtime
}

// Recover assembles doc on db, resumed from the log. The newest snapshot
// restores the store and K, and the tail after it folds into both in log
// order (DB.ApplyWAL, Base.ApplyWAL). The clock resumes at the later of the
// snapshot's time and the newest time in the tail, so the sampling schedule
// continues past every replayed sample. The control plane restores from
// the snapshot, whose fleet replaces doc's Loops, or else deploys doc's
// fleet unjournaled; its tail records fold on top (Service.ApplyWAL) once K
// is whole, so a case that mirrors K reads K's last value as it re-spawns;
// a control record that no longer applies is reported and skipped. The
// journals are attached last, so no folded record is journaled again.
func (d *Durable) Recover(db *tsdb.DB, doc *Spec, reg *control.Registry) (*Runtime, error) {
	engine, kb := sim.NewEngine(doc.Seed), knowledge.NewBase()
	var snap Snapshot
	var ctlTail []wal.Record
	if d.WAL != nil {
		var err error
		if snap, d.Restored, err = LatestSnapshot(d.Dir); err != nil {
			return nil, err
		}
		if d.Restored {
			if err := errors.Join(db.RestoreSnapshot(snap.TSDB), kb.Load(bytes.NewReader(snap.Knowledge))); err != nil {
				return nil, err
			}
			doc.Loops = nil
		}
		now := snap.Now
		d.Seq = snap.Seq
		d.Replayed, err = d.WAL.Fold(snap.Seq+1, func(rec wal.Record) error {
			if ok, err := db.ApplyWAL(rec.Kind, rec.Payload); ok {
				return err
			}
			if rec.Kind == wal.KindBusEnvelope {
				env, err := bus.Decode(rec.Payload)
				if err != nil {
					return err
				}
				now = max(now, env.Time)
				if strings.HasPrefix(env.Topic, "control.v1.") {
					rec.Payload = bytes.Clone(rec.Payload) // the reader reuses its buffer
					ctlTail = append(ctlTail, rec)
					return nil
				}
			}
			_, err := kb.ApplyWAL(rec)
			return err
		})
		if err != nil {
			return nil, err
		}
		engine.RunUntil(max(now, newest(db))) // nothing scheduled yet: jumps the clock
	}
	rt, err := assemble(engine, db, kb, doc, reg)
	if err != nil {
		return nil, err
	}
	if d.Restored {
		if err := rt.Ctl.Restore(snap.Control); err != nil {
			return nil, err
		}
	}
	for _, rec := range ctlTail {
		if _, err := rt.Ctl.ApplyWAL(rec); err != nil {
			d.Logf("recover: skipped %v", err) // e.g. a loop a changed -specs no longer deploys
		}
	}
	if d.WAL != nil {
		db.Journal(d.WAL)
		d.journalBus(rt.Bus)
	}
	d.rt = rt
	return rt, nil
}

// newest is the time of db's newest sample.
func newest(db *tsdb.DB) (t time.Duration) {
	for _, name := range db.MetricNames() {
		for _, p := range db.Latest(name, nil) {
			t = max(t, p.Time)
		}
	}
	return t
}

// journaledTopic selects the bus traffic worth journaling: loop decision
// events, fleet round summaries, the control plane's traffic and the
// knowledge base's writes. Telemetry is excluded, as the TSDB journals
// every accepted point. The bus applies it as the journal hook's topic
// predicate, so a publisher builds no envelope just for the journal.
func journaledTopic(topic string) bool {
	return strings.HasPrefix(topic, "loop.") ||
		strings.HasPrefix(topic, "fleet.") ||
		strings.HasPrefix(topic, "control.v1.") ||
		strings.HasPrefix(topic, "knowledge.")
}

// journalBus records b's journaled topics in the log, syncing an applied
// control op before its publisher returns, so an acknowledged op survives
// a crash. A retryable storage fault (wal.Retryable) sheds the envelope,
// since the WAL retries its buffered tail on the next append; a fatal one
// (a failed fsync: the kernel may have dropped dirty pages and will not
// say so twice) halts journaling for good, and the next snapshot is then
// the only durable state of K and control. Telemetry journaling is
// unaffected; its appends surface errors on their own path.
func (d *Durable) journalBus(b *bus.Bus) {
	var lastErr atomic.Int64 // unix nanos of the last logged failure
	var halted atomic.Bool
	b.Journal(journaledTopic, func(env bus.Envelope) {
		if halted.Load() {
			return
		}
		line, err := bus.Encode(env)
		if err == nil {
			_, err = d.WAL.Append(wal.KindBusEnvelope, line)
		}
		if err == nil && env.Topic == control.TopicApplied {
			err = d.WAL.Sync()
		}
		if err != nil {
			if !wal.Retryable(err) {
				halted.Store(true)
				d.Logf("bus journal halted on fatal WAL fault: %v", err)
				return
			}
			// At most once a second: a broken journal must surface while
			// the process runs, not via the sticky error at Close.
			if now := time.Now().UnixNano(); now-lastErr.Load() >= int64(time.Second) {
				lastErr.Store(now)
				d.Logf("bus journal shed %s: %v", env.Topic, err)
			}
		}
	})
}

// Checkpoint writes one combined snapshot covering everything the log holds,
// then compacts the segments it supersedes. The log is synced and its
// position read under the control plane's lock, so the snapshot claims no
// record still buffered and no op falls between that position and the
// control state.
func (d *Durable) Checkpoint() error {
	if d.WAL == nil {
		return nil
	}
	var syncErr, tsdbErr error
	var kbuf bytes.Buffer
	snap := Snapshot{Now: d.rt.Engine.Now()}
	ctl, err := d.rt.Ctl.Snapshot(func() {
		if syncErr = d.WAL.Sync(); syncErr == nil {
			snap.Seq = d.WAL.LastSeq()
		}
	})
	snap.Control = ctl
	snap.TSDB, tsdbErr = d.rt.DB.Snapshot()
	if err = errors.Join(syncErr, err, tsdbErr, d.rt.Knowledge.Save(&kbuf)); err != nil {
		return err
	}
	snap.Knowledge = kbuf.Bytes()
	payload, err := snap.encode()
	if err == nil {
		err = wal.WriteSnapshot(d.Dir, "modad", snap.Seq, payload)
	}
	if err == nil {
		_, err = d.WAL.Compact(snap.Seq + 1)
	}
	return err
}
