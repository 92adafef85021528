package core

import (
	"strings"
	"testing"
	"time"
)

func TestAuditAppendAndFilter(t *testing.T) {
	l := NewAuditLog(100)
	l.Appendf(time.Second, "sched", "plan", "extend %d", 42)
	l.Appendf(2*time.Second, "sched", "execute", "done")
	l.Appendf(3*time.Second, "ost", "plan", "avoid ost03")
	if n := len(l.Entries()); n != 3 {
		t.Fatalf("len = %d", n)
	}
	if got := len(l.Filter("sched", "")); got != 2 {
		t.Errorf("Filter(sched) = %d", got)
	}
	if got := len(l.Filter("", "plan")); got != 2 {
		t.Errorf("Filter(plan) = %d", got)
	}
	if got := len(l.Filter("ost", "plan")); got != 1 {
		t.Errorf("Filter(ost,plan) = %d", got)
	}
}

func TestAuditEviction(t *testing.T) {
	l := NewAuditLog(3)
	for i := 0; i < 10; i++ {
		l.Appendf(time.Duration(i), "l", "p", "entry %d", i)
	}
	entries := l.Entries()
	if len(entries) != 3 {
		t.Fatalf("len = %d, want 3", len(entries))
	}
	if !strings.Contains(entries[0].Msg, "entry 7") {
		t.Errorf("oldest retained = %q, want entry 7", entries[0].Msg)
	}
}

func TestAuditDefaultCapacity(t *testing.T) {
	l := NewAuditLog(0)
	if l.cap != 4096 {
		t.Errorf("default cap = %d", l.cap)
	}
}

func TestAuditDump(t *testing.T) {
	l := NewAuditLog(10)
	l.Appendf(time.Second, "loop", "phase", "message")
	dump := l.Dump()
	if !strings.Contains(dump, "loop/phase: message") {
		t.Errorf("Dump = %q", dump)
	}
}

func TestAuditEntryString(t *testing.T) {
	e := AuditEntry{Time: time.Second, Loop: "l", Phase: "p", Msg: "m"}
	if got := e.String(); got != "[1s] l/p: m" {
		t.Errorf("String = %q", got)
	}
}
