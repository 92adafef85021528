package main

// Real multi-process cluster test: it builds the modad binary, starts one
// coordinator and three workers as separate OS processes talking over
// loopback TCP, drives the operator surface exactly as `nc` would, then
// SIGKILLs a worker that owns loops and asserts the coordinator reschedules
// them onto the survivors within the lease window. Process logs go to
// MODAD_TEST_LOGDIR when set (the CI job uploads them as artifacts on
// failure) or to the test's temp dir otherwise.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"autoloop/internal/control"
)

// procLease is the coordinator lease TTL under test: short enough that
// failover lands well inside the test budget, long enough that three
// processes on a one-core CI box renew reliably at a 250ms heartbeat.
const procLease = 1500 * time.Millisecond

func TestClusterProcessFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test skipped in -short mode")
	}
	bin := buildModad(t)
	logDir := os.Getenv("MODAD_TEST_LOGDIR")
	if logDir == "" {
		logDir = t.TempDir()
	} else if err := os.MkdirAll(logDir, 0o755); err != nil {
		t.Fatal(err)
	}

	// Six single-loop groups spread across three workers: enough that every
	// worker almost surely owns something and the kill has loops to move.
	specs := filepath.Join(t.TempDir(), "specs.json")
	var sb strings.Builder
	sb.WriteString("[\n")
	for i := 0; i < 6; i++ {
		if i > 0 {
			sb.WriteString(",\n")
		}
		fmt.Fprintf(&sb, `  {"case": "power", "name": "grp%02d", "period": "1m"}`, i)
	}
	sb.WriteString("\n]\n")
	if err := os.WriteFile(specs, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	startProc(t, logDir, "coordinator", bin,
		"-role=coordinator", "-addr=127.0.0.1:0", "-cluster-addr=127.0.0.1:0",
		"-lease="+procLease.String(), "-duration=0", "-specs="+specs)
	opAddr, clusterAddr := coordinatorAddrs(t, filepath.Join(logDir, "coordinator.log"))

	workers := make(map[string]*exec.Cmd, 3)
	for _, id := range []string{"w1", "w2", "w3"} {
		workers[id] = startProc(t, logDir, id, bin,
			"-role=worker", "-join="+clusterAddr, "-node="+id,
			"-heartbeat=250ms", "-duration=0", "-speed=60")
	}

	// All three workers register and every group reaches a running loop.
	waitClusterState(t, opAddr, 60*time.Second, func(members []control.MemberInfo, loops []control.LoopStatus) error {
		alive := 0
		for _, m := range members {
			if m.State == "alive" {
				alive++
			}
		}
		if alive != 3 {
			return fmt.Errorf("%d alive members, want 3", alive)
		}
		return wantLoopsPlaced(loops, 6, "")
	})

	// Kill -9 the worker owning the most groups: no drain, no goodbye — the
	// lease expiry is the only signal the coordinator gets.
	victim := busiestWorker(t, opAddr)
	t.Logf("killing %s (SIGKILL)", victim)
	if err := workers[victim].Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = workers[victim].Wait()

	// Failover: within the lease window (generous slack for a loaded CI
	// box), every group is running again on a surviving worker and the
	// victim shows as expired rather than vanishing from the directory.
	deadline := 4*procLease + 20*time.Second
	waitClusterState(t, opAddr, deadline, func(members []control.MemberInfo, loops []control.LoopStatus) error {
		expired := false
		for _, m := range members {
			if m.ID == victim && m.State == "expired" {
				expired = true
			}
		}
		if !expired {
			return fmt.Errorf("victim %s not yet expired in members", victim)
		}
		return wantLoopsPlaced(loops, 6, victim)
	})
}

// buildModad compiles the daemon once into the test's temp dir, with the
// race detector when the test binary has it, so startProc can fail the test
// on a race in a goroutine only the daemon runs (journaling, the snapshot
// timer, the drive loop, a worker's heartbeat).
func buildModad(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "modad")
	args := []string{"build", "-o", bin}
	if raceEnabled {
		args = append(args, "-race")
	}
	cmd := exec.Command("go", append(args, ".")...)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// startProc launches one daemon process with stdout+stderr teed to
// <logDir>/<name>.log and registers teardown, which fails the test if the
// log holds a race detector report.
func startProc(t *testing.T, logDir, name, bin string, args ...string) *exec.Cmd {
	t.Helper()
	logf, err := os.Create(filepath.Join(logDir, name+".log"))
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		t.Fatalf("start %s: %v", name, err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() { _ = cmd.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			_ = cmd.Process.Kill()
			<-done
		}
		logf.Close()
		if data, err := os.ReadFile(logf.Name()); err == nil && strings.Contains(string(data), "WARNING: DATA RACE") {
			t.Errorf("%s: data race in the daemon; see %s", name, logf.Name())
		}
	})
	return cmd
}

var coordAddrRe = regexp.MustCompile(`operators on (\S+), cluster on (\S+)`)

// coordinatorAddrs polls the coordinator's log for the bound addresses (the
// test uses :0 ports, so the kernel picks them).
func coordinatorAddrs(t *testing.T, logPath string) (op, cluster string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		data, _ := os.ReadFile(logPath)
		if m := coordAddrRe.FindStringSubmatch(string(data)); m != nil {
			return m[1], m[2]
		}
		time.Sleep(100 * time.Millisecond)
	}
	data, _ := os.ReadFile(logPath)
	t.Fatalf("coordinator never printed its addresses; log:\n%s", data)
	return "", ""
}

// wireEnvelope is the envelope shape read back off the TCP bridge.
type wireEnvelope struct {
	Topic   string          `json:"topic"`
	Payload json.RawMessage `json:"payload"`
}

// controlRequest performs one control.v1 request over a fresh TCP
// connection and returns the matching reply.
func controlRequest(addr string, req control.Request) (control.Reply, error) {
	return wireControl(addr, control.TopicRequest, req.ID, req)
}

// wireControl publishes one control.v1 envelope (a request, or a verdict
// on TopicApprove or TopicDeny) over a fresh TCP connection and returns
// the reply carrying id.
func wireControl(addr, topic, id string, payload any) (control.Reply, error) {
	var rep control.Reply
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return rep, err
	}
	defer conn.Close()
	line, err := json.Marshal(map[string]interface{}{"topic": topic, "payload": payload})
	if err != nil {
		return rep, err
	}
	if _, err := fmt.Fprintf(conn, "%s\n", line); err != nil {
		return rep, err
	}
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var env wireEnvelope
		if json.Unmarshal(sc.Bytes(), &env) != nil || env.Topic != control.TopicReply {
			continue
		}
		if err := json.Unmarshal(env.Payload, &rep); err != nil {
			return rep, err
		}
		if rep.ID == id {
			return rep, nil
		}
	}
	if err := sc.Err(); err != nil {
		return rep, err
	}
	return rep, fmt.Errorf("connection closed before a reply to %q", id)
}

// waitClusterState polls members+list until check passes or the deadline
// lapses, failing with the last error.
func waitClusterState(t *testing.T, addr string, timeout time.Duration,
	check func([]control.MemberInfo, []control.LoopStatus) error) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var lastErr error
	for i := 0; time.Now().Before(deadline); i++ {
		mrep, err := controlRequest(addr, control.Request{Op: control.OpMembers, ID: fmt.Sprintf("m%d", i)})
		if err == nil {
			var lrep control.Reply
			lrep, err = controlRequest(addr, control.Request{Op: control.OpList, ID: fmt.Sprintf("l%d", i)})
			if err == nil {
				if lastErr = check(mrep.Members, lrep.Loops); lastErr == nil {
					return
				}
			}
		}
		if err != nil {
			lastErr = err
		}
		time.Sleep(300 * time.Millisecond)
	}
	t.Fatalf("cluster never reached the expected state: %v", lastErr)
}

// wantLoopsPlaced asserts n loops are running, each stamped with an owner,
// and none owned by exclude.
func wantLoopsPlaced(loops []control.LoopStatus, n int, exclude string) error {
	if len(loops) != n {
		return fmt.Errorf("%d loops listed, want %d", len(loops), n)
	}
	for _, l := range loops {
		if l.Worker == "" {
			return fmt.Errorf("loop %s has no worker stamp", l.Name)
		}
		if exclude != "" && l.Worker == exclude {
			return fmt.Errorf("loop %s still on killed worker %s", l.Name, exclude)
		}
		if l.State != "running" && l.State != "created" {
			return fmt.Errorf("loop %s in state %s", l.Name, l.State)
		}
	}
	return nil
}

// busiestWorker returns the worker owning the most listed loops.
func busiestWorker(t *testing.T, addr string) string {
	t.Helper()
	rep, err := controlRequest(addr, control.Request{Op: control.OpList, ID: "busiest"})
	if err != nil || !rep.OK {
		t.Fatalf("list: %v (%+v)", err, rep)
	}
	counts := map[string]int{}
	for _, l := range rep.Loops {
		counts[l.Worker]++
	}
	best, n := "", 0
	for w, c := range counts {
		if c > n {
			best, n = w, c
		}
	}
	if best == "" {
		t.Fatal("no owned loops to fail over")
	}
	return best
}
