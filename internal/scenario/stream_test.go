package scenario_test

import (
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
