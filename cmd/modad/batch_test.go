package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"autoloop/internal/cases"
	"autoloop/internal/experiments"
	"autoloop/internal/scenario"
)

func TestListPrintsEveryExperiment(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"experiment", "list"}, &out, &errOut); code != 0 {
		t.Fatalf("list exited %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	ids := experiments.IDs()
	if len(lines) != len(ids) {
		t.Fatalf("list printed %d lines, want one per experiment (%d)", len(lines), len(ids))
	}
	for i, id := range ids {
		if f := strings.Fields(lines[i]); len(f) == 0 || f[0] != id {
			t.Errorf("line %d = %q, want it to start with %s", i, lines[i], id)
		}
	}
}

func TestRunQuickPrintsTheTable(t *testing.T) {
	const id = "EXP-U4"
	var out, errOut bytes.Buffer
	if code := run([]string{"experiment", "run", id, "-quick"}, &out, &errOut); code != 0 {
		t.Fatalf("run exited %d: %s", code, errOut.String())
	}
	res, err := experiments.Run(id, experiments.Options{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if want := res.Table() + "\n"; out.String() != want {
		t.Errorf("run %s -quick printed\n%s\nwant\n%s", id, out.String(), want)
	}
}

func TestRunUnknownIDFails(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"experiment", "run", "EXP-NOPE"}, &out, &errOut); code == 0 {
		t.Fatal("unknown experiment exited 0")
	}
	if out.Len() != 0 || !strings.Contains(errOut.String(), "EXP-NOPE") {
		t.Errorf("stdout %q, stderr %q: want nothing on stdout and the bad ID on stderr", out.String(), errOut.String())
	}
}

// Every preset's document must decode and re-marshal to the same bytes:
// the file `scenario gen` writes is exactly what `scenario run` will run.
func TestGenerateRoundTrips(t *testing.T) {
	for _, preset := range []string{"small", "midsize", "stress10k"} {
		data, err := generate(preset, 7)
		if err != nil {
			t.Fatalf("%s: %v", preset, err)
		}
		spec, err := scenario.Decode(data)
		if err != nil {
			t.Fatalf("%s: %v", preset, err)
		}
		again, err := json.MarshalIndent(spec, "", "  ")
		if err != nil {
			t.Fatalf("%s: %v", preset, err)
		}
		if !bytes.Equal(data, again) {
			t.Errorf("%s: document changes on a decode/encode round trip", preset)
		}
	}
}

func TestGenerateRejectsUnknownPreset(t *testing.T) {
	if _, err := generate("huge", 1); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

// The batch path end to end in process: the document `scenario gen` writes,
// run twice through `scenario run`, prints the table the scenario package
// computes for the same preset and seed, both times.
func TestScenarioGenRunMatchesInProcess(t *testing.T) {
	var doc, errOut bytes.Buffer
	if code := run([]string{"scenario", "gen", "-preset", "small", "-seed", "3"}, &doc, &errOut); code != 0 {
		t.Fatalf("scenario gen exited %d: %s", code, errOut.String())
	}
	file := filepath.Join(t.TempDir(), "small.json")
	if err := os.WriteFile(file, doc.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := scenario.Run(scenario.Small(3), cases.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	want := rep.Table()
	for i := 1; i <= 2; i++ {
		var out bytes.Buffer
		if code := run([]string{"scenario", "run", file}, &out, &errOut); code != 0 {
			t.Fatalf("scenario run #%d exited %d: %s", i, code, errOut.String())
		}
		if out.String() != want {
			t.Errorf("scenario run #%d printed\n%s\nwant\n%s", i, out.String(), want)
		}
	}
}

// A daemon command line that cannot mean what it says exits 2 with a usage
// line before anything is served. -duration keeps a daemon that wrongly
// starts from blocking the test.
func TestDaemonRejectsBadCommandLines(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"frozen clock", []string{"-speed=0"}, "-speed"},
		{"negative speed", []string{"-speed=-60"}, "-speed"},
		{"stray argument", []string{"experimnt", "list"}, `"experimnt"`},
		{"argument after flags", []string{"-speed=60", "list"}, `"list"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out, errOut bytes.Buffer
			args := append([]string{"-addr=127.0.0.1:0", "-duration=1ms"}, tc.args...)
			if code := run(args, &out, &errOut); code != 2 {
				t.Fatalf("exited %d, want 2; stdout %q, stderr %q", code, out.String(), errOut.String())
			}
			if out.Len() != 0 {
				t.Errorf("stdout %q: want nothing served", out.String())
			}
			if msg := errOut.String(); !strings.Contains(msg, tc.want) || !strings.Contains(msg, "usage: modad") {
				t.Errorf("stderr %q: want it to name %s and print the usage", msg, tc.want)
			}
		})
	}
}
