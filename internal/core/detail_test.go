package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"
	"time"
	"unsafe"
)

// TestDecisionSizes pins the decision types within one malloc size class of
// their string-field layout (64, 64 and 96 B): every emitted event boxes
// one, so a larger detail would eat what rendering on read saves.
func TestDecisionSizes(t *testing.T) {
	for _, c := range []struct {
		name      string
		size, max uintptr
	}{
		{"Finding", unsafe.Sizeof(Finding{}), 80},
		{"Action", unsafe.Sizeof(Action{}), 80},
		{"ActionResult", unsafe.Sizeof(ActionResult{}), 112},
	} {
		if c.size > c.max {
			t.Errorf("%s is %d B, want at most %d", c.name, c.size, c.max)
		}
	}
}

// TestReasonRendersAsSprintf: a reason's detail reads as the text
// fmt.Sprintf gives its format over the int, duration and float values its
// arguments were, held inline or spilled.
func TestReasonRendersAsSprintf(t *testing.T) {
	for _, c := range []struct {
		format string
		args   []float64
		want   string
	}{
		{"all clear", nil, "all clear"},
		{"%.1f%% of %d", []float64{99.95, -3}, fmt.Sprintf("%.1f%% of %d", 99.95, -3)},
		{"hottest node %.1f°C limit %.0f°C", []float64{84.45, 85}, fmt.Sprintf("hottest node %.1f°C limit %.0f°C", 84.45, 85.0)},
		{"took %v", []float64{float64(90*time.Minute + 7*time.Second)}, "took 1h30m7s"},
		{"ost%02d at %g", []float64{3, math.Inf(-1)}, "ost03 at -Inf"},
		{"odd %.2f and %e", []float64{math.NaN(), math.Copysign(0, -1)}, fmt.Sprintf("odd %.2f and %e", math.NaN(), math.Copysign(0, -1))},
		{"projected %v (rate %.3f/s, n=%d) vs %v", []float64{float64(2*time.Hour + 17*time.Minute), 0.0449, 26, float64(626 * time.Second)},
			fmt.Sprintf("projected %v (rate %.3f/s, n=%d) vs %v", 2*time.Hour+17*time.Minute, 0.0449, 26, 626*time.Second)},
	} {
		d := NewReason(c.format).With(c.args...)
		if got := d.String(); got != c.want {
			t.Errorf("%q over %v renders %q, want %q", c.format, c.args, got, c.want)
		}
	}
	// A NaN whose bits equal the text tag must still read as a reason.
	if got := NewReason("a %f b %f").With(1, math.Float64frombits(textTag)).String(); got != "a 1.000000 b NaN" {
		t.Errorf("tag-valued NaN argument renders %q", got)
	}
}

// TestNewReasonRejectsTextVerbs: a reason's verbs take numbers only.
func TestNewReasonRejectsTextVerbs(t *testing.T) {
	for _, format := range []string{"job %s", "trailing %", "%q"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewReason(%q) did not panic", format)
				}
			}()
			NewReason(format)
		}()
	}
}

// TestDetailJSONMatchesStringField: a finding, an action and a result
// encode byte for byte as they did with string fields, under json.Marshal
// and under an encoder that does not escape HTML.
func TestDetailJSONMatchesStringField(t *testing.T) {
	type stringAction struct {
		Kind, Subject      string
		Amount, Confidence float64
		Explanation        string
	}
	type stringResult struct {
		Action  stringAction
		Honored bool
		Granted float64
		Detail  string
	}
	reason := NewReason("recover tenant <b&c>: %.1f -> %.1f MB/s \"x\"\t ")
	explained := reason.With(2000, 2300)
	got := ActionResult{Action: Action{Kind: "set", Subject: "b", Amount: 2300, Confidence: 0.9, Explanation: explained},
		Honored: true, Granted: 2000, Detail: Text("granted\n")}
	want := stringResult{Action: stringAction{Kind: "set", Subject: "b", Amount: 2300, Confidence: 0.9, Explanation: explained.String()},
		Honored: true, Granted: 2000, Detail: "granted\n"}
	encode := func(v any, html bool) string {
		var b bytes.Buffer
		enc := json.NewEncoder(&b)
		enc.SetEscapeHTML(html)
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	for _, html := range []bool{true, false} {
		if g, w := encode(got, html), encode(want, html); g != w {
			t.Errorf("escapeHTML %v: encodes\n%s want\n%s", html, g, w)
		}
	}
	if g := encode(Finding{}, true); g != encode(struct {
		Kind, Subject     string
		Value, Confidence float64
		Detail            string
	}{}, true) {
		t.Errorf("zero finding encodes %s", g)
	}
}

// TestDetailBuildAllocs: text and reason details of up to two
// arguments are built in place.
func TestDetailBuildAllocs(t *testing.T) {
	r := NewReason("%.1f vs %.1f")
	s := "some text"
	var sink Detail
	allocs := testing.AllocsPerRun(100, func() {
		sink = r.With(1.5, 2.5)
		sink = Text(s)
	})
	if allocs != 0 {
		t.Errorf("%v allocations building details, want 0", allocs)
	}
	if sink.String() != s {
		t.Errorf("text detail reads %q", sink.String())
	}
}
