package main

import (
	"bytes"
	"strings"
	"testing"

	"autoloop/internal/experiments"
)

func TestListPrintsEveryExperiment(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"list"}, &out, &errOut); code != 0 {
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
	if code := run([]string{"run", id, "-quick"}, &out, &errOut); code != 0 {
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
	if code := run([]string{"run", "EXP-NOPE"}, &out, &errOut); code == 0 {
		t.Fatal("unknown experiment exited 0")
	}
	if out.Len() != 0 || !strings.Contains(errOut.String(), "EXP-NOPE") {
		t.Errorf("stdout %q, stderr %q: want nothing on stdout and the bad ID on stderr", out.String(), errOut.String())
	}
}
