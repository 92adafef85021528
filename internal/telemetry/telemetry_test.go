package telemetry

import (
	"testing"
	"testing/quick"
	"time"
)

func TestLabelsKeyCanonical(t *testing.T) {
	a := Labels{"b": "2", "a": "1"}
	b := Labels{"a": "1", "b": "2"}
	if a.Key() != b.Key() {
		t.Errorf("keys differ: %q vs %q", a.Key(), b.Key())
	}
	if a.Key() != "a=1,b=2" {
		t.Errorf("Key = %q, want a=1,b=2", a.Key())
	}
	if (Labels{}).Key() != "" {
		t.Error("empty labels key should be empty string")
	}
	if Labels(nil).Key() != "" {
		t.Error("nil labels key should be empty string")
	}
}

func TestLabelsClone(t *testing.T) {
	a := Labels{"x": "1"}
	c := a.Clone()
	c["x"] = "2"
	if a["x"] != "1" {
		t.Error("Clone is not independent")
	}
	if Labels(nil).Clone() != nil {
		t.Error("nil Clone should be nil")
	}
}

func TestLabelsMatches(t *testing.T) {
	l := Labels{"node": "n1", "job": "42"}
	cases := []struct {
		matcher Labels
		want    bool
	}{
		{nil, true},
		{Labels{}, true},
		{Labels{"node": "n1"}, true},
		{Labels{"node": "n1", "job": "42"}, true},
		{Labels{"node": "n2"}, false},
		{Labels{"rack": "r1"}, false},
	}
	for _, c := range cases {
		if got := l.Matches(c.matcher); got != c.want {
			t.Errorf("Matches(%v) = %v, want %v", c.matcher, got, c.want)
		}
	}
}

// Property: two label sets with equal canonical keys match each other.
func TestLabelsKeyMatchesProperty(t *testing.T) {
	f := func(ks, vs []string) bool {
		l := Labels{}
		for i, k := range ks {
			if i < len(vs) && k != "" {
				l[k] = vs[i]
			}
		}
		m := l.Clone()
		if m == nil {
			m = Labels{}
		}
		return l.Key() == m.Key() && l.Matches(m) && m.Matches(l)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRegistryGather(t *testing.T) {
	r := NewRegistry()
	r.Register(CollectorFunc(func(now time.Duration) []Point {
		return []Point{{Name: "a", Time: now, Value: 1}}
	}))
	r.Register(CollectorFunc(func(now time.Duration) []Point {
		return []Point{{Name: "b", Time: now, Value: 2}}
	}))
	pts := r.GatherInto(5*time.Second, nil)
	if len(pts) != 2 {
		t.Fatalf("Gather returned %d points, want 2", len(pts))
	}
	if pts[0].Name != "a" || pts[1].Name != "b" {
		t.Errorf("order not preserved: %v", pts)
	}
	if pts[0].Time != 5*time.Second {
		t.Errorf("time not propagated: %v", pts[0].Time)
	}
	if r.Size() != 2 {
		t.Errorf("Size = %d", r.Size())
	}
}

func TestRegistryNilCollectorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for nil collector")
		}
	}()
	NewRegistry().Register(nil)
}

func TestPointString(t *testing.T) {
	p := Point{Name: "cpu", Labels: Labels{"n": "1"}, Time: time.Second, Value: 0.5}
	if got := p.String(); got != "cpu{n=1}=0.5@1s" {
		t.Errorf("String = %q", got)
	}
}

// TestRefSurvivesGather: the zero Ref is an empty memo, a memo left in it is
// read back, and the pipeline's gather copy hands the sink the collector's
// own Ref, not a copy of it.
func TestRefSurvivesGather(t *testing.T) {
	var ref Ref
	if ref.Memo() != nil {
		t.Fatalf("zero Ref holds %v", ref.Memo())
	}
	reg := NewRegistryOf(CollectorFunc(func(now time.Duration) []Point {
		return []Point{{Name: "a", Time: now, Value: 1, Ref: &ref}}
	}))
	buf := make([]Point, 0, 4)
	for round := 1; round <= 2; round++ {
		buf = reg.GatherInto(time.Duration(round)*time.Second, buf[:0])
		if len(buf) != 1 || buf[0].Ref != &ref {
			t.Fatalf("round %d gathered %v with ref %p, want %p", round, buf, buf[0].Ref, &ref)
		}
		if round == 1 {
			buf[0].Ref.SetMemo(&buf)
		}
	}
	if got, _ := ref.Memo().(*[]Point); got != &buf {
		t.Errorf("Memo = %v, want the handle the sink left", ref.Memo())
	}
}
