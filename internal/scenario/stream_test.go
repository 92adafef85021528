package scenario_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"autoloop/internal/bus"
	"autoloop/internal/cases"
	"autoloop/internal/control"
	"autoloop/internal/core"
	"autoloop/internal/scenario"
)

var updateStream = flag.Bool("update-stream", false, "rewrite testdata/loop-stream.golden")

// streamGolden pins the loop.* decision trail of two fixed-seed runs: one
// line per run, "<name> <events> <sha256 of the JSON lines>".
const streamGolden = "testdata/loop-stream.golden"

// streamRuns are the runs the golden pins: the midsize preset for one
// virtual hour (with the faults that start inside it), and a fleet-dense-shaped document (the bench workload's
// facility, workload and faults; its first 40 loop specs plus two scheduler loops)
// over its full horizon, so every case's findings and actions appear.
func streamRuns(t *testing.T) []struct {
	name string
	spec *scenario.Spec
} {
	mid := scenario.Midsize(1)
	mid.Horizon = control.Duration(time.Hour)
	inHorizon := mid.Injections[:0]
	for _, inj := range mid.Injections {
		if inj.At.D() < mid.Horizon.D() {
			inHorizon = append(inHorizon, inj)
		}
	}
	mid.Injections = inHorizon
	data, err := os.ReadFile("testdata/fleet-dense-shaped.json")
	if err != nil {
		t.Fatal(err)
	}
	dense, err := scenario.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name string
		spec *scenario.Spec
	}{{"midsize-1h", mid}, {"fleet-dense-shaped", dense}}
}

// loopStream runs spec and returns how many loop.* envelopes it published
// and the sha256 of their JSON encoding, one envelope a line, in publish
// order: the bytes a bus journal or an SSE client would receive.
func loopStream(t *testing.T, spec *scenario.Spec) (int, string) {
	rt, err := scenario.Assemble(spec, cases.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	n := 0
	rt.Bus.Subscribe("loop.*", func(env bus.Envelope) {
		line, err := json.Marshal(env)
		if err != nil {
			t.Errorf("encode %s: %v", env.Topic, err)
			return
		}
		h.Write(append(line, '\n'))
		n++
	})
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	return n, hex.EncodeToString(h.Sum(nil))
}

// TestLoopStreamByteIdentical holds the JSON of every finding, plan,
// verdict and execute event to the checked-in hash: a change to how a
// decision's detail is built or held must not change a byte a reader sees.
func TestLoopStreamByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two scenarios end to end")
	}
	var got strings.Builder
	for _, r := range streamRuns(t) {
		n, sum := loopStream(t, r.spec)
		fmt.Fprintf(&got, "%s %d %s\n", r.name, n, sum)
	}
	if *updateStream {
		if err := os.WriteFile(streamGolden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(streamGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("loop.* stream changed:\n got %s\nwant %s", got.String(), want)
	}
}

// TestLoopEventsOutliveTheirTick keeps every loop.* payload of a run, with
// its JSON taken at delivery, to the end of the run: a loop publishes
// pointers to its tick's own findings, actions and results, so a phase that
// reused a slice it had returned would rewrite a kept payload. Each payload
// must be such a pointer and still encode to its bytes at delivery, both
// when a second goroutine re-reads it during the run and at the end. Under
// the race detector that re-read also catches a rewrite with the same
// bytes. Every stock case must publish a finding and a plan with their
// reasons, so every case's phases are held to this. Two documents run: the
// fleet-dense-shaped one, and ioqos-violation.json, whose tight objective
// drives an ioqos group past it, so its violation findings and throttling
// set-allocations are held to this too (every ioqos tick of the first finds
// headroom).
func TestLoopEventsOutliveTheirTick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a scenario end to end")
	}
	data, err := os.ReadFile("testdata/ioqos-violation.json")
	if err != nil {
		t.Fatal(err)
	}
	violating, err := scenario.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		spec   *scenario.Spec
		events int // 0: not pinned
	}{{"fleet-dense-shaped", streamRuns(t)[1].spec, 7984}, {"ioqos-violation", violating, 0}} {
		t.Run(tc.name, func(t *testing.T) {
			seen := keepLoopEvents(t, tc.spec, tc.events)
			if tc.name == "ioqos-violation" && (seen["latency-violation"] == 0 || seen["throttle"] == 0) {
				t.Errorf("ioqos-violation published %d latency-violation findings and %d throttling set-allocations, want some of each",
					seen["latency-violation"], seen["throttle"])
			}
		})
	}
}

// keepLoopEvents runs spec, keeping its loop events as
// TestLoopEventsOutliveTheirTick describes, and returns how many findings
// of each kind it saw, with the throttling set-allocations under
// "throttle".
func keepLoopEvents(t *testing.T, spec *scenario.Spec, want int) map[string]int {
	rt, err := scenario.Assemble(spec, cases.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	caseOf := map[string]string{} // group name -> case
	for _, ls := range spec.Loops {
		caseOf[ls.Name] = ls.Case
	}
	type kept struct {
		topic   string
		payload any
		at      []byte
	}
	var events []kept
	// The channel holds every event of the run, so the subscriber never
	// waits for the re-reader: nothing orders a re-read before a later
	// write.
	reread, rereadChanged := make(chan kept, 1<<14), make(chan int)
	go func() {
		changed := 0
		for ev := range reread {
			if data, err := json.Marshal(ev.payload); err != nil || !bytes.Equal(data, ev.at) {
				changed++
			}
		}
		rereadChanged <- changed
	}()
	explained := map[string]int{} // case -> 1 for a finding's reason, 2 for a plan's, 3 for both
	seen := map[string]int{}
	rt.Bus.Subscribe("loop.*", func(env bus.Envelope) {
		data, err := json.Marshal(env.Payload)
		if err != nil {
			t.Errorf("encode %s: %v", env.Topic, err)
			return
		}
		group, _, _ := strings.Cut(env.Source, "/")
		switch p := env.Payload.(type) {
		case *core.Finding:
			seen[p.Kind]++
			if p.Detail.String() != "" {
				explained[caseOf[group]] |= 1
			}
		case *core.Action:
			if p.Kind == "set-allocation" && strings.HasPrefix(p.Explanation.String(), "throttle") {
				seen["throttle"]++
			}
			if p.Explanation.String() != "" {
				explained[caseOf[group]] |= 2
			}
		case *core.ActionResult, *core.PhaseError:
		default:
			t.Errorf("%s carries a %T, not a pointer to the loop's value", env.Topic, p)
			return
		}
		ev := kept{env.Topic, env.Payload, data}
		events = append(events, ev)
		reread <- ev
	})
	_, err = rt.Run()
	close(reread)
	if n := <-rereadChanged; n > 0 {
		t.Errorf("%d of %d payloads changed after delivery, re-read during the run", n, len(events))
	}
	if err != nil {
		t.Fatal(err)
	}
	if want > 0 && len(events) != want {
		t.Errorf("%d loop events, want the golden's %d", len(events), want)
	}
	for _, c := range caseOf {
		if explained[c] != 3 {
			t.Errorf("case %s: reasons on its plans and findings %02b, want 11", c, explained[c])
		}
	}
	changed := 0
	for i, ev := range events {
		data, err := json.Marshal(ev.payload)
		if err != nil {
			t.Fatalf("re-encode event %d (%s): %v", i, ev.topic, err)
		}
		if !bytes.Equal(data, ev.at) {
			if changed++; changed <= 5 {
				t.Errorf("event %d (%s) changed after delivery:\n was %s\n now %s", i, ev.topic, ev.at, data)
			}
		}
	}
	if changed > 0 {
		t.Errorf("%d of %d kept payloads changed after delivery", changed, len(events))
	}
	return seen
}
