package cluster

import (
	"fmt"
	"testing"
)

// TestRingDeterministic verifies that two rings built from the same
// membership — in different insertion orders — agree on every owner, the
// property that lets coordinator and workers compute placement independently.
func TestRingDeterministic(t *testing.T) {
	a := NewRing()
	b := NewRing()
	for _, m := range []string{"w1", "w2", "w3"} {
		a.Add(m)
	}
	for _, m := range []string{"w3", "w1", "w2"} {
		b.Add(m)
	}
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("loop-%d", i)
		if got, want := b.Owner(key), a.Owner(key); got != want {
			t.Fatalf("Owner(%q) differs across insertion orders: %q vs %q", key, got, want)
		}
	}
}

// TestRingBalance places 100k keys on 4 members and checks the load spread
// stays within the bound the virtual-point count is chosen for.
func TestRingBalance(t *testing.T) {
	r := NewRing()
	members := []string{"w1", "w2", "w3", "w4"}
	for _, m := range members {
		r.Add(m)
	}
	counts := make(map[string]int)
	const keys = 100_000
	for i := 0; i < keys; i++ {
		counts[r.Owner(fmt.Sprintf("loop-%d", i))]++
	}
	min, max := keys, 0
	for _, m := range members {
		if counts[m] < min {
			min = counts[m]
		}
		if counts[m] > max {
			max = counts[m]
		}
	}
	if min == 0 {
		t.Fatalf("a member owns no keys: %v", counts)
	}
	if ratio := float64(max) / float64(min); ratio > 1.6 {
		t.Fatalf("load ratio %.2f too skewed: %v", ratio, counts)
	}
}

// TestRingMinimalMovement removes one of four members and checks that only
// keys owned by the removed member move — the consistent-hashing contract
// that keeps failover from reshuffling the whole facility.
func TestRingMinimalMovement(t *testing.T) {
	r := NewRing()
	for _, m := range []string{"w1", "w2", "w3", "w4"} {
		r.Add(m)
	}
	const keys = 10_000
	before := make([]string, keys)
	for i := range before {
		before[i] = r.Owner(fmt.Sprintf("loop-%d", i))
	}
	r.Remove("w2")
	for i := range before {
		after := r.Owner(fmt.Sprintf("loop-%d", i))
		if before[i] != "w2" && after != before[i] {
			t.Fatalf("key loop-%d moved %s -> %s though its owner survived", i, before[i], after)
		}
		if after == "w2" {
			t.Fatalf("key loop-%d still owned by removed member", i)
		}
	}
}

// TestRingEmpty checks the empty ring yields no owner (specs stay pending).
func TestRingEmpty(t *testing.T) {
	r := NewRing()
	if got := r.Owner("anything"); got != "" {
		t.Fatalf("empty ring Owner = %q, want empty", got)
	}
	r.Add("w1")
	r.Remove("w1")
	if got := r.Owner("anything"); got != "" {
		t.Fatalf("drained ring Owner = %q, want empty", got)
	}
}
