package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current tables")

// TestGoldenTables pins every registered experiment's seed-1 table, quick
// and full, byte for byte: a change that moves an RNG draw or reorders an
// event shows up as a diff here. Regenerate on purpose with
//
//	go test ./internal/experiments -run TestGoldenTables -update
func TestGoldenTables(t *testing.T) {
	modes := []struct {
		name  string
		quick bool
	}{{"quick", true}, {"full", false}}
	for _, m := range modes {
		for _, id := range IDs() {
			m, id := m, id
			t.Run(id+"."+m.name, func(t *testing.T) {
				if !m.quick && testing.Short() {
					t.Skip("full-size tables skipped in -short")
				}
				res, err := Run(id, Options{Seed: 1, Quick: m.quick})
				if err != nil {
					t.Fatal(err)
				}
				got := res.Table()
				path := filepath.Join("testdata", id+"."+m.name+".golden")
				if *update {
					if err := os.MkdirAll("testdata", 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%v (run with -update to create it)", err)
				}
				if got != string(want) {
					t.Errorf("%s drifted from %s\n--- got ---\n%s--- want ---\n%s", id, path, got, want)
				}
			})
		}
	}
}

// TestGoldenFilesMatchRegistry requires testdata to hold exactly one quick
// and one full golden per registered experiment, so a renamed or deleted
// experiment cannot leave a stale table behind.
func TestGoldenFilesMatchRegistry(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "*.golden"))
	if err != nil {
		t.Fatal(err)
	}
	have := map[string]bool{}
	for _, p := range paths {
		have[filepath.Base(p)] = true
	}
	for _, id := range IDs() {
		for _, mode := range []string{"quick", "full"} {
			name := id + "." + mode + ".golden"
			if !have[name] {
				t.Errorf("registered %s has no testdata/%s", id, name)
			}
			delete(have, name)
		}
	}
	for name := range have {
		t.Errorf("testdata/%s names no registered experiment and mode", name)
	}
}
