package ilplimit_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// startDaemon launches an ilplimitd binary with the given extra flags
// on an ephemeral port and returns its base URL plus the running
// command.  The caller owns shutdown (Kill or SIGTERM + Wait).
func startDaemon(t *testing.T, bin string, args ...string) (string, *exec.Cmd) {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stderr)
	var addr string
	for sc.Scan() {
		line := sc.Text()
		if strings.Contains(line, "debug server listening") {
			continue
		}
		if _, rest, ok := strings.Cut(line, "listening on "); ok {
			addr = strings.TrimSpace(rest)
			break
		}
	}
	if addr == "" {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		t.Fatal("daemon address never announced on stderr")
	}
	// Keep draining stderr so the daemon never blocks on a full pipe.
	go func() {
		for sc.Scan() {
		}
	}()
	return "http://" + addr, cmd
}

// stopDaemon sends SIGTERM and waits for a clean exit.
func stopDaemon(t *testing.T, cmd *exec.Cmd) {
	t.Helper()
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("daemon did not exit cleanly: %v", err)
	}
}

// postDaemonJob submits one JSON job and returns status, the decoded
// envelope, and the raw result bytes.
func postDaemonJob(t *testing.T, base string, body map[string]interface{}) (int, map[string]interface{}, json.RawMessage) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Cached  bool            `json:"cached"`
		Durable bool            `json:"durable"`
		Result  json.RawMessage `json:"result"`
		Error   string          `json:"error"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatalf("status %d, undecodable body %q", resp.StatusCode, data)
	}
	return resp.StatusCode, map[string]interface{}{
		"cached": env.Cached, "durable": env.Durable, "error": env.Error,
	}, env.Result
}

// TestCLIVersion checks the -version satellite on every binary that
// grew it: a one-line build-provenance stamp with the toolchain.
func TestCLIVersion(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	for _, name := range []string{"ilplimit", "ilplimitd", "ilploadgen"} {
		bin := buildCmd(t, name)
		out := runCmd(t, bin, "-version")
		if !strings.HasPrefix(out, name+" ") || !strings.Contains(out, "go1.") {
			t.Errorf("%s -version = %q, want %q prefix and a toolchain", name, out, name)
		}
	}
}

// TestCLIDaemon drives the daemon end to end over real HTTP: a program
// job, a cache hit on resubmission, healthz, the expvar export on
// -debug-addr, and a graceful SIGTERM exit.
func TestCLIDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	bin := buildCmd(t, "ilplimitd")
	base, cmd := startDaemon(t, bin, "-debug-addr", "127.0.0.1:0")
	defer func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	}()

	body := map[string]interface{}{"program": `
int main() {
	int i, s;
	s = 0;
	for (i = 0; i < 40; i++) { if (i - (i/2)*2 == 0) s += i; else s -= 1; }
	print(s);
	return 0;
}
`}
	status, env, result := postDaemonJob(t, base, body)
	if status != http.StatusOK {
		t.Fatalf("job: status %d (%v)", status, env)
	}
	if !strings.Contains(string(result), `"ORACLE"`) {
		t.Errorf("result lacks the model matrix: %s", result)
	}
	status, env, again := postDaemonJob(t, base, body)
	if status != http.StatusOK || env["cached"] != true {
		t.Errorf("resubmission: status %d, cached %v", status, env["cached"])
	}
	if !bytes.Equal(result, again) {
		t.Errorf("cached result differs from the computed one")
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Ready      bool `json:"ready"`
		QueueDepth int  `json:"queue_depth"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !health.Ready || health.QueueDepth != 0 {
		t.Errorf("healthz: status %d, %+v", resp.StatusCode, health)
	}

	stopDaemon(t, cmd)
}

// TestCLIDaemonKillResume is the durability acceptance test: SIGKILL
// the daemon mid-suite-job, restart it on the same data directory, and
// the resubmitted job must resume the journaled benchmarks instead of
// re-running them and produce a result byte-identical to a fresh
// daemon's — then replay durably on a further resubmission.
func TestCLIDaemonKillResume(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	bin := buildCmd(t, "ilplimitd")
	dir := t.TempDir()
	body := map[string]interface{}{
		"benchmarks": []string{"irsim", "eqntott"}, "timeout_ms": 300000}

	// Reference result from a daemon with no durable state at all.
	refBase, refCmd := startDaemon(t, bin)
	status, _, ref := postDaemonJob(t, refBase, body)
	if status != http.StatusOK {
		t.Fatalf("reference job: status %d", status)
	}
	_ = refCmd.Process.Kill()
	_ = refCmd.Wait()

	// Run 1: submit, then SIGKILL as soon as the first benchmark of the
	// suite job has been journaled.
	base, cmd := startDaemon(t, bin, "-data", dir)
	go func() {
		// The response will die with the daemon; only its side effects
		// on the journal matter.
		raw, _ := json.Marshal(body)
		resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(raw))
		if err == nil {
			resp.Body.Close()
		}
	}()
	deadline := time.Now().Add(60 * time.Second)
	journaled := false
	for !journaled {
		if time.Now().After(deadline) {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
			t.Fatal("no suite benchmark journaled before the deadline")
		}
		ents, _ := filepath.Glob(filepath.Join(dir, "job-*", "journal.ilpj"))
		for _, p := range ents {
			if data, err := os.ReadFile(p); err == nil && strings.Contains(string(data), " bench ") {
				journaled = true
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil { // SIGKILL: no cleanup at all
		t.Fatal(err)
	}
	_ = cmd.Wait()

	// Run 2: same data dir.  The per-job journal still holds the
	// completed benchmark (plus a stale writer lock from the kill);
	// resubmission must resume it, not re-run it.
	base2, cmd2 := startDaemon(t, bin, "-data", dir, "-debug-addr", "127.0.0.1:0")
	defer func() {
		_ = cmd2.Process.Kill()
		_ = cmd2.Wait()
	}()
	status, _, resumed := postDaemonJob(t, base2, body)
	if status != http.StatusOK {
		t.Fatalf("resubmitted job: status %d", status)
	}
	if !bytes.Equal(ref, resumed) {
		t.Errorf("resumed result differs from the uninterrupted reference:\n%s\n%s", ref, resumed)
	}

	// Run 3 (same daemon): the completed result must now replay from
	// the durable results journal, byte for byte.
	status, env, replayed := postDaemonJob(t, base2, body)
	if status != http.StatusOK {
		t.Fatalf("replayed job: status %d", status)
	}
	if env["cached"] != true && env["durable"] != true {
		t.Errorf("replayed result came from neither cache nor journal: %v", env)
	}
	if !bytes.Equal(resumed, replayed) {
		t.Errorf("replayed result differs from the resumed one")
	}

	// Run 4: a fresh daemon process on the same directory must serve
	// the result durably without any execution.
	stopDaemon(t, cmd2)
	base3, cmd3 := startDaemon(t, bin, "-data", dir)
	defer func() {
		_ = cmd3.Process.Kill()
		_ = cmd3.Wait()
	}()
	status, env, durable := postDaemonJob(t, base3, body)
	if status != http.StatusOK || env["durable"] != true {
		t.Fatalf("durable replay after restart: status %d, %v", status, env)
	}
	if !bytes.Equal(resumed, durable) {
		t.Errorf("durable replay differs from the original result")
	}
	stopDaemon(t, cmd3)
}

// TestCLIServerSoak is the overload acceptance test, shared with `make
// soak-server`: a daemon at deliberately halved capacity takes 2× its
// throughput in open-loop load plus the abusive plans, and must shed
// explicitly (429 + Retry-After), never 5xx, and come back to an idle
// ready healthz after the flood drains.
func TestCLIServerSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	daemon := buildCmd(t, "ilplimitd")
	loadgen := buildCmd(t, "ilploadgen")

	// Capacity: 2 workers × 100ms pinned service time = 20 jobs/s, queue
	// depth 4.  Offered: 40/s of unique (cache-busting) programs.
	base, cmd := startDaemon(t, daemon,
		"-workers", "2", "-queue-depth", "4", "-tenant-queue-depth", "2",
		"-tenant-quota", "1", "-exec-delay", "100ms", "-read-timeout", "1s")
	defer func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	}()

	out, err := exec.Command(loadgen,
		"-addr", base, "-rate", "40", "-duration", "3s", "-tenants", "3",
		"-unique", "-abuse", "oversize,slowloris,disconnect", "-abuse-every", "7",
		"-require-shed", "-forbid-5xx", "-json").CombinedOutput()
	if err != nil {
		t.Fatalf("ilploadgen failed: %v\n%s", err, out)
	}
	var sum map[string]int64
	if err := json.Unmarshal(out, &sum); err != nil {
		t.Fatalf("summary not JSON: %v\n%s", err, out)
	}
	if sum["ok"] == 0 || sum["shed"] == 0 {
		t.Errorf("soak: ok = %d, shed = %d; want both > 0\n%s", sum["ok"], sum["shed"], out)
	}
	if sum["server_errors"] != 0 {
		t.Errorf("soak: %d server errors\n%s", sum["server_errors"], out)
	}
	if sum["slowloris_cut"] == 0 {
		t.Errorf("soak: slow-loris connections were never cut\n%s", out)
	}

	// Post-flood: the daemon must drain back to ready with empty queues.
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var health struct {
			Ready      bool `json:"ready"`
			QueueDepth int  `json:"queue_depth"`
			Running    int  `json:"running"`
		}
		derr := json.NewDecoder(resp.Body).Decode(&health)
		resp.Body.Close()
		if derr == nil && health.Ready && health.QueueDepth == 0 && health.Running == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never drained to idle: %+v", health)
		}
		time.Sleep(100 * time.Millisecond)
	}
	stopDaemon(t, cmd)
}
