package main

// Real single-process recovery test: the durable daemon is SIGKILLed after
// it has snapshotted and restarted on the same -wal-dir. The restart must
// report the snapshot it resumed from, serve the restored fleet, and keep
// sampling on a virtual clock that continues from the snapshot's time.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
	"time"

	"autoloop/internal/control"
	"autoloop/internal/wal"
)

var (
	httpAddrRe  = regexp.MustCompile(`http gateway on http://(\S+)`)
	recoveredRe = regexp.MustCompile(`recovered from \S+: snapshot @ seq (\d+) \+ (\d+) replayed records`)
)

func TestSingleProcessKill9Recovery(t *testing.T) {
	if testing.Short() {
		t.Skip("real-binary test skipped in -short mode")
	}
	bin := buildModad(t)
	logDir := os.Getenv("MODAD_TEST_LOGDIR")
	if logDir == "" {
		logDir = t.TempDir()
	} else if err := os.MkdirAll(logDir, 0o755); err != nil {
		t.Fatal(err)
	}
	walDir := t.TempDir()
	const snapEvery = 2 * time.Minute
	args := func(speed int) []string {
		return []string{"-addr=127.0.0.1:0", "-http=127.0.0.1:0", "-wal-dir=" + walDir,
			"-snapshot-every=" + snapEvery.String(), "-duration=0", "-speed=" + strconv.Itoa(speed)}
	}

	// First life: run fast until a snapshot at least 20 virtual minutes in
	// exists, then kill -9 — no final snapshot, no drain, no fsync.
	first := startProc(t, logDir, "single-1", bin, args(600)...)
	waitFor(t, 30*time.Second, func() error {
		snap, err := latestDaemonSnapshot(walDir)
		if err == nil && snap.Now < 20*time.Minute {
			err = fmt.Errorf("newest snapshot is at %v, want one past 20m", snap.Now)
		}
		return err
	})
	if err := first.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = first.Wait()
	snap, err := latestDaemonSnapshot(walDir) // the process is dead: this is what a restart will find
	if err != nil {
		t.Fatal(err)
	}

	// Second life, sixty times slower: a clock restarted at zero would need
	// twenty wall seconds to get back to the snapshot's time.
	startProc(t, logDir, "single-2", bin, args(60)...)
	logPath := filepath.Join(logDir, "single-2.log")
	var base string
	waitFor(t, 30*time.Second, func() error {
		data, _ := os.ReadFile(logPath)
		m := httpAddrRe.FindSubmatch(data)
		if m == nil {
			return fmt.Errorf("gateway address not printed yet; log:\n%s", data)
		}
		base = "http://" + string(m[1])
		return nil
	})
	data, _ := os.ReadFile(logPath)
	m := recoveredRe.FindSubmatch(data)
	if m == nil {
		t.Fatalf("restart did not report a recovery; log:\n%s", data)
	}
	if seq, _ := strconv.ParseUint(string(m[1]), 10, 64); seq != snap.Seq {
		t.Errorf("recovered from snapshot @ seq %d, want %d", seq, snap.Seq)
	}

	// The restored fleet is the one the first life deployed.
	var list control.Reply
	fetchJSON(t, http.MethodPost, base+"/v1/control/list", &list)
	running := map[string]bool{}
	for _, l := range list.Loops {
		running[l.Name] = l.State == "running"
	}
	if !list.OK || len(list.Loops) != 2 || !running["power-case"] || !running["ost-case"] {
		t.Errorf("restored fleet = %+v, want power-case and ost-case running", list.Loops)
	}

	// The clock resumed. The replayed WAL tail holds less than one snapshot
	// interval of samples past the snapshot, so a sample two intervals past
	// it was taken by this process — four wall seconds in, on a resumed
	// clock; unreachable inside the deadline on one that restarted at zero.
	want := snap.Now + 2*snapEvery
	waitFor(t, 12*time.Second, func() error {
		var res struct {
			Series []struct {
				Samples []struct {
					T int64 `json:"t_ms"`
				} `json:"samples"`
			} `json:"series"`
		}
		fetchJSON(t, http.MethodGet, base+"/v1/query?metric=facility.pue&latest=true", &res)
		if len(res.Series) == 0 || len(res.Series[0].Samples) == 0 {
			return fmt.Errorf("no facility.pue sample")
		}
		if got := time.Duration(res.Series[0].Samples[0].T) * time.Millisecond; got < want {
			return fmt.Errorf("latest sample at %v, want >= %v (snapshot at %v)", got, want, snap.Now)
		}
		return nil
	})
}

// latestDaemonSnapshot decodes the newest valid snapshot under dir. While
// the daemon is alive a read can race its keep-2 pruning, so an error is
// returned for the poller to retry, not failed on.
func latestDaemonSnapshot(dir string) (daemonSnapshot, error) {
	var snap daemonSnapshot
	payload, _, ok, err := wal.LatestSnapshot(dir, "modad")
	if err != nil {
		return snap, err
	}
	if !ok {
		return snap, fmt.Errorf("no snapshot in %s", dir)
	}
	return snap, json.Unmarshal(payload, &snap)
}

// waitFor polls check until it passes or the timeout lapses, failing with
// the last error.
func waitFor(t *testing.T, timeout time.Duration, check func() error) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var err error
	for time.Now().Before(deadline) {
		if err = check(); err == nil {
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("not within %v: %v", timeout, err)
}

// fetchJSON performs one bodiless HTTP request and decodes the JSON reply.
func fetchJSON(t *testing.T, method, url string, into interface{}) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
}
