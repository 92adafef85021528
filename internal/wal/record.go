package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Record framing on disk. Every record is one frame:
//
//	[4B little-endian length n of body][4B CRC32C of body][body]
//	body = [1B kind][payload]
//
// The CRC covers the whole body, so a bit flip in either the kind or the
// payload is detected; the length prefix is validated against MaxRecord
// before any allocation, so a corrupted length cannot drive an OOM. Record
// sequence numbers are not stored per frame: a segment's first sequence
// number is its file name, and frames within a segment are numbered
// consecutively, which keeps the frame overhead at eight bytes.
const (
	frameHeader = 8 // 4B length + 4B crc
	// MaxRecord bounds one record body (kind byte + payload). A frame
	// declaring a larger body is corruption by definition, never a read.
	MaxRecord = 1 << 26 // 64 MiB
)

// castagnoli is the CRC32C polynomial table (hardware-accelerated on
// amd64/arm64), the checksum production WALs (RocksDB, etcd) frame with.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record kinds journaled by this repo's subsystems. The WAL itself is
// agnostic to kinds — it stores and replays (kind, payload) pairs — but the
// daemon's subsystems share one log, so their kind bytes are registered here
// to keep the namespace collision-free. New subsystems claim a new constant.
const (
	// KindTSDBAppend carries one or more binary-encoded telemetry points,
	// each with its metric name and label encoding. The tsdb no longer
	// writes it but still replays it, so a log written before
	// KindTSDBPoints recovers.
	KindTSDBAppend uint8 = 0x10
	// KindTSDBPoints carries one or more telemetry points accepted by the
	// tsdb, each naming its series by a journal-local id; a series'
	// definition (name and labels) rides on its first point (see tsdb's
	// journal encoding).
	KindTSDBPoints uint8 = 0x11
	// KindBusEnvelope carries one JSON-encoded bus envelope (topic, time,
	// source, payload, deadline) recorded by the bus journal hook.
	KindBusEnvelope uint8 = 0x20
	// KindKnowledgeOp carries one JSON-encoded knowledge.Base mutation.
	// The knowledge base no longer writes it — its writes ride the bus
	// journal as "knowledge.learn" envelopes — but still replays it, so a
	// log written before that recovers.
	KindKnowledgeOp uint8 = 0x30
	// KindClusterEvent carries one JSON-encoded cluster placement-ledger
	// event (spec added/removed, assignment, ack, lease expiry) recorded by
	// a cluster coordinator so a restart can rebuild its placement table.
	KindClusterEvent uint8 = 0x40
)

// ErrClosed is returned by operations on a closed WAL.
var ErrClosed = errors.New("wal: closed")

// CorruptError reports an invalid frame: a truncated header or body, an
// out-of-range length, or a checksum mismatch. Replay surfaces it as a typed
// error so callers can distinguish real corruption from a clean end of log;
// Open tolerates it only as a torn tail of the final segment (the expected
// leftover of a crash mid-write), which it truncates away.
type CorruptError struct {
	Segment string // segment file path
	Offset  int64  // byte offset of the bad frame within the segment
	Reason  string // human-readable cause ("crc mismatch", "truncated body", ...)
}

// Error implements error.
func (e *CorruptError) Error() string {
	return fmt.Sprintf("wal: corrupt record in %s at offset %d: %s", e.Segment, e.Offset, e.Reason)
}

// Record is one replayed WAL entry. Payload aliases the reader's internal
// buffer and is only valid until the next call to Next; consumers that keep
// it must copy.
type Record struct {
	Seq     uint64
	Kind    uint8
	Payload []byte
}

// appendFrame appends the frame for (kind, payload) to buf and returns the
// extended slice. It allocates only when buf must grow.
func appendFrame(buf []byte, kind uint8, payload []byte) []byte {
	n := 1 + len(payload)
	start := len(buf)
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(n))
	buf = append(buf, hdr[:]...)
	buf = append(buf, kind)
	buf = append(buf, payload...)
	// Checksum the body in place so the hot path stays allocation-free.
	crc := crc32.Checksum(buf[start+frameHeader:], castagnoli)
	binary.LittleEndian.PutUint32(buf[start+4:start+8], crc)
	return buf
}

// frameSize returns the on-disk size of a frame carrying a payload of n
// bytes.
func frameSize(n int) int64 { return int64(frameHeader + 1 + n) }
