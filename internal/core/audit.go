package core

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// AuditEntry is one audited loop event. Every decision an autonomy loop
// makes is explainable after the fact — the basis for operator trust and
// for the human-on-the-loop notifications of §IV.
type AuditEntry struct {
	Time  time.Duration
	Loop  string
	Phase string // "analyze", "plan", "veto", "execute", "defer", "drop", "error"
	Msg   string
}

// String implements fmt.Stringer.
func (e AuditEntry) String() string {
	return fmt.Sprintf("[%v] %s/%s: %s", e.Time, e.Loop, e.Phase, e.Msg)
}

// AuditLog is a bounded in-memory audit trail, safe for concurrent use.
type AuditLog struct {
	mu      sync.Mutex
	cap     int
	entries []AuditEntry
}

// NewAuditLog returns an audit log retaining up to capacity entries
// (capacity <= 0 selects 4096).
func NewAuditLog(capacity int) *AuditLog {
	if capacity <= 0 {
		capacity = 4096
	}
	return &AuditLog{cap: capacity}
}

// Append records one entry, evicting the oldest beyond capacity.
func (l *AuditLog) Append(e AuditEntry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.entries = append(l.entries, e)
	if len(l.entries) > l.cap {
		over := len(l.entries) - l.cap
		l.entries = append(l.entries[:0], l.entries[over:]...)
	}
}

// Appendf formats and records one entry.
func (l *AuditLog) Appendf(now time.Duration, loop, phase, format string, args ...interface{}) {
	l.Append(AuditEntry{Time: now, Loop: loop, Phase: phase, Msg: fmt.Sprintf(format, args...)})
}

// Entries returns a copy of the retained entries in order.
func (l *AuditLog) Entries() []AuditEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]AuditEntry(nil), l.entries...)
}

// Filter returns retained entries matching the loop and phase (empty strings
// match everything).
func (l *AuditLog) Filter(loop, phase string) []AuditEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []AuditEntry
	for _, e := range l.entries {
		if (loop == "" || e.Loop == loop) && (phase == "" || e.Phase == phase) {
			out = append(out, e)
		}
	}
	return out
}

// Dump renders the retained entries one per line.
func (l *AuditLog) Dump() string {
	var b strings.Builder
	for _, e := range l.Entries() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
