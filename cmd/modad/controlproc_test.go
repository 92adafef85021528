package main

// Real-binary durability tests for the control plane: every state-changing
// op an operator has been answered "ok" for survives a SIGKILL that comes
// before any snapshot, whichever surface (HTTP or the TCP bus) carried it,
// and a restart with no snapshot deploys the configured fleet once, folds
// the journaled ops on top, and resumes the clock where the log ends.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"autoloop/internal/control"
)

var wireAddrRe = regexp.MustCompile(`control\.v1 envelopes on (\S+) \(speed`)

// life is one modad process on a shared -wal-dir.
type life struct {
	cmd       *exec.Cmd
	http, tcp string // gateway base URL, bus bridge address
	log       string
}

// startLife starts modad on walDir at speed and waits for both operator
// surfaces. Snapshots are an hour of wall time apart even at speed 600, so
// no life the tests start ever writes one before it is killed.
func startLife(t *testing.T, bin, logDir, name, walDir string, speed int, extra ...string) *life {
	t.Helper()
	args := append([]string{"-addr=127.0.0.1:0", "-http=127.0.0.1:0", "-wal-dir=" + walDir,
		"-snapshot-every=1000h", "-duration=0", "-speed=" + strconv.Itoa(speed)}, extra...)
	l := &life{cmd: startProc(t, logDir, name, bin, args...), log: filepath.Join(logDir, name+".log")}
	waitFor(t, 30*time.Second, func() error {
		data, _ := os.ReadFile(l.log)
		h, w := httpAddrRe.FindSubmatch(data), wireAddrRe.FindSubmatch(data)
		if h == nil || w == nil {
			return fmt.Errorf("surfaces not up yet; log:\n%s", data)
		}
		l.http, l.tcp = "http://"+string(h[1]), string(w[1])
		return nil
	})
	return l
}

// kill SIGKILLs the process: no final snapshot, no drain.
func (l *life) kill(t *testing.T) {
	t.Helper()
	if err := l.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = l.cmd.Wait()
}

// postControl sends one op to the gateway's /v1/control/<op> with body as
// its JSON payload and decodes the reply.
func postControl(t *testing.T, base, op string, body any) control.Reply {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/control/"+op, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep control.Reply
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatalf("%s: %v", op, err)
	}
	return rep
}

// controlState is what an operator sees of the control plane: every loop's
// status without its counters (a restarted loop counts afresh) and the
// pending-approval queue.
type controlState struct {
	Loops   []control.LoopStatus
	Pending []control.PendingInfo
}

func stateOf(t *testing.T, l *life) controlState {
	t.Helper()
	var st controlState
	list, pending := postControl(t, l.http, control.OpList, nil), postControl(t, l.http, control.OpPending, nil)
	if !list.OK || !pending.OK {
		t.Fatalf("list %+v, pending %+v", list, pending)
	}
	for _, ls := range list.Loops {
		ls.Metrics = control.WireMetrics{}
		st.Loops = append(st.Loops, ls)
	}
	st.Pending = pending.Pending
	return st
}

// TestAcknowledgedOpsSurviveKill9 sends every state-changing op kind once
// over HTTP and once over the TCP bus, SIGKILLs modad after each
// acknowledgement, before any snapshot, and restarts it on the same
// directory: the restart's list and pending must equal the ones before the
// kill.
func TestAcknowledgedOpsSurviveKill9(t *testing.T) {
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
	specs := filepath.Join(t.TempDir(), "specs.json")
	if err := os.WriteFile(specs, []byte(`[{"case":"power","name":"gate","mode":"human-in-the-loop","period":"1m"}]`), 0o644); err != nil {
		t.Fatal(err)
	}

	// First life, fast: the human-in-the-loop gate queues the actions the
	// verdicts below settle.
	l := startLife(t, bin, logDir, "ops-0", walDir, 600, "-specs="+specs)
	waitFor(t, 30*time.Second, func() error {
		if n := len(stateOf(t, l).Pending); n < 6 {
			return fmt.Errorf("%d pending actions, want 6", n)
		}
		return nil
	})
	l.kill(t)

	// Every later life runs at speed 1: its first sample, and so its first
	// control round, is thirty wall seconds away, so only the op under test
	// changes what list and pending report.
	lives := 1
	restart := func() {
		l = startLife(t, bin, logDir, fmt.Sprintf("ops-%d", lives), walDir, 1, "-specs="+specs)
		lives++
	}
	restart()
	seqs := stateOf(t, l).Pending
	guard := map[string]*control.GuardSpec{
		"http": {Kind: "confidence", Min: 0.5},
		"tcp":  {Kind: "rate-limit", Max: 2, Window: control.Duration(10 * time.Minute)},
	}
	mode := map[string]string{"http": "human-on-the-loop", "tcp": "human-in-the-loop"}
	verdicts := 0
	for _, op := range []string{
		control.OpSpawn, control.OpSetMode, control.OpSetGuard, control.OpPause, control.OpResume,
		control.OpDrain, control.OpRemove, control.OpApprove, control.OpDeny,
	} {
		for _, surface := range []string{"http", "tcp"} {
			loop := "via-" + surface
			req := control.Request{ID: op + "-" + surface, Op: op, Loop: loop}
			switch op {
			case control.OpSpawn:
				req.Loop, req.Spec = "", &control.LoopSpec{Case: "power", Name: loop, Period: control.Duration(time.Minute)}
			case control.OpSetMode:
				req.Mode = mode[surface]
			case control.OpSetGuard:
				req.Guard = guard[surface]
			}
			var payload any = req
			topic := control.TopicRequest
			if op == control.OpApprove || op == control.OpDeny {
				payload = control.Verdict{ID: req.ID, Seq: seqs[verdicts].Seq, Reason: "by " + surface}
				topic = "control.v1." + op
				verdicts++
			}
			var rep control.Reply
			if surface == "http" {
				rep = postControl(t, l.http, op, payload)
			} else {
				var err error
				if rep, err = wireControl(l.tcp, topic, req.ID, payload); err != nil {
					t.Fatalf("%s over tcp: %v", op, err)
				}
			}
			if !rep.OK {
				t.Fatalf("%s over %s not acknowledged: %+v", op, surface, rep)
			}
			before := stateOf(t, l)
			l.kill(t)
			restart()
			if after := stateOf(t, l); !reflect.DeepEqual(after, before) {
				t.Fatalf("%s over %s lost in the kill:\n before %+v\n after  %+v", op, surface, before, after)
			}
		}
	}
	if data, _ := os.ReadFile(l.log); !strings.Contains(string(data), "snapshot @ seq 0 ") {
		t.Errorf("the last life did not recover from the log alone; log:\n%s", data)
	}
}

// TestRestartWithoutSnapshot spawns extra-power and pauses it, lets rounds
// run, then SIGKILLs modad before any snapshot. A restart at speed 1, killed
// before its first round, must list what the killed life listed: the
// configured fleet deployed and running, as the loops' journaled events
// say they were, and extra-power once and paused. It must journal nothing
// either, so the next restart replays the same records. That one resumes
// sampling past every replayed sample, and no sampling round fails to
// ingest.
func TestRestartWithoutSnapshot(t *testing.T) {
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
	latest := func(l *life) time.Duration {
		var res struct {
			Series []struct {
				Samples []struct {
					T int64 `json:"t_ms"`
				} `json:"samples"`
			} `json:"series"`
		}
		fetchJSON(t, http.MethodGet, l.http+"/v1/query?metric=facility.pue&latest=true", &res)
		if len(res.Series) == 0 || len(res.Series[0].Samples) == 0 {
			return 0
		}
		return time.Duration(res.Series[0].Samples[0].T) * time.Millisecond
	}

	first := startLife(t, bin, logDir, "restart-1", walDir, 600)
	for _, req := range []control.Request{
		{Op: control.OpSpawn, Spec: &control.LoopSpec{Case: "power", Name: "extra-power", Period: control.Duration(time.Minute)}},
		{Op: control.OpPause, Loop: "extra-power"},
	} {
		if rep := postControl(t, first.http, req.Op, req); !rep.OK {
			t.Fatalf("%s: %+v", req.Op, rep)
		}
	}
	waitFor(t, 30*time.Second, func() error {
		if at := latest(first); at < 10*time.Minute {
			return fmt.Errorf("latest sample at %v, want one past 10m", at)
		}
		return nil
	})
	before := stateOf(t, first)
	first.kill(t)
	replayed := func(l *life) string {
		data, _ := os.ReadFile(l.log)
		m := recoveredRe.FindSubmatch(data)
		if m == nil {
			t.Fatalf("no recovery line; log:\n%s", data)
		}
		return string(m[2])
	}
	idle := startLife(t, bin, logDir, "restart-idle", walDir, 1)
	if after := stateOf(t, idle); !reflect.DeepEqual(after, before) {
		t.Errorf("list changed in the kill:\n before %+v\n after  %+v", before, after)
	}
	idle.kill(t)
	second := startLife(t, bin, logDir, "restart-2", walDir, 600)
	if a, b := replayed(idle), replayed(second); a != b {
		t.Errorf("the idle restart journaled: it replayed %s records, the next one %s", a, b)
	}
	resumed := latest(second) // the log's newest sample
	waitFor(t, 30*time.Second, func() error {
		if at := latest(second); at < resumed+5*time.Minute {
			return fmt.Errorf("latest sample at %v, want five minutes past the log's %v", at, resumed)
		}
		return nil
	})
	time.Sleep(1500 * time.Millisecond) // an ingest error is logged at most once a second

	extra := 0
	for _, ls := range stateOf(t, second).Loops {
		if ls.Name == "extra-power" {
			extra++
			if ls.State != "paused" {
				t.Errorf("extra-power restarted %s, want paused", ls.State)
			}
		}
	}
	if extra != 1 {
		t.Errorf("extra-power listed %d times, want once", extra)
	}
	data, _ := os.ReadFile(second.log)
	if !strings.Contains(string(data), "snapshot @ seq 0 ") {
		t.Errorf("the restart did not recover from the log alone; log:\n%s", data)
	}
	if strings.Contains(string(data), "telemetry ingest") {
		t.Errorf("the restart failed to ingest; log:\n%s", data)
	}
}
