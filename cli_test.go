package ilplimit_test

import (
	"bufio"
	"errors"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildCmd compiles one of the repository's commands into t's temp dir.
func buildCmd(t *testing.T, name string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("build %s: %v\n%s", name, err, out)
	}
	return bin
}

func runCmd(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

func TestCLIIlplimit(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	bin := buildCmd(t, "ilplimit")

	out := runCmd(t, bin, "-table", "1")
	for _, want := range []string{"awk", "tomcatv", "FORTRAN"} {
		if !strings.Contains(out, want) {
			t.Errorf("-table 1 missing %q:\n%s", want, out)
		}
	}
	out = runCmd(t, bin, "-bench", "irsim", "-table", "3")
	if !strings.Contains(out, "ORACLE") || !strings.Contains(out, "irsim") {
		t.Errorf("-bench irsim -table 3 malformed:\n%s", out)
	}
	out = runCmd(t, bin, "-bench", "irsim", "-figure", "6")
	if !strings.Contains(out, "<=100") {
		t.Errorf("-figure 6 malformed:\n%s", out)
	}
	out = runCmd(t, bin, "-bench", "irsim", "-json")
	if !strings.Contains(out, "\"SP-CD-MF\"") {
		t.Errorf("-json missing model keys:\n%s", out)
	}
	out = runCmd(t, bin, "-bench", "irsim", "-opt", "-table", "3")
	if !strings.Contains(out, "irsim") {
		t.Errorf("-opt run malformed:\n%s", out)
	}
	// Bad flags exit non-zero.
	if err := exec.Command(bin, "-table", "9").Run(); err == nil {
		t.Error("-table 9 should fail")
	}
	if err := exec.Command(bin, "-study", "nope").Run(); err == nil {
		t.Error("-study nope should fail")
	}
	if err := exec.Command(bin, "-bench", "zzz").Run(); err == nil {
		t.Error("-bench zzz should fail")
	}
}

func TestCLIMccAsmdumpTracegen(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	mcc := buildCmd(t, "mcc")
	asmdump := buildCmd(t, "asmdump")
	tracegen := buildCmd(t, "tracegen")

	dir := t.TempDir()
	cSrc := filepath.Join(dir, "p.c")
	if err := os.WriteFile(cSrc, []byte(`
int main() {
	int i, s;
	s = 0;
	for (i = 0; i < 10; i++) s += i;
	print(s);
	return 0;
}
`), 0o644); err != nil {
		t.Fatal(err)
	}

	if out := runCmd(t, mcc, "-run", cSrc); strings.TrimSpace(out) != "45" {
		t.Errorf("mcc -run output %q, want 45", out)
	}
	asmOut := runCmd(t, mcc, cSrc)
	if !strings.Contains(asmOut, ".proc main") {
		t.Errorf("mcc assembly malformed:\n%s", asmOut)
	}
	sFile := filepath.Join(dir, "p.s")
	if err := os.WriteFile(sFile, []byte(asmOut), 0o644); err != nil {
		t.Fatal(err)
	}
	if out := runCmd(t, asmdump, sFile); !strings.Contains(out, "jal main") {
		t.Errorf("asmdump disassembly malformed:\n%s", out)
	}
	if out := runCmd(t, asmdump, "-cfg", sFile); !strings.Contains(out, "ctrl-dep") {
		t.Errorf("asmdump -cfg missing control dependences:\n%s", out)
	}
	if out := runCmd(t, asmdump, "-marks", "-c", cSrc); !strings.Contains(out, "U ") {
		t.Errorf("asmdump -marks missing unroll marks:\n%s", out)
	}
	if out := runCmd(t, mcc, "-bench", "latex", "-source"); !strings.Contains(out, "int main") {
		t.Errorf("mcc -bench -source malformed:\n%s", out)
	}
	if out := runCmd(t, mcc, "-ifconvert", cSrc); !strings.Contains(out, ".proc main") {
		t.Errorf("mcc -ifconvert malformed:\n%s", out)
	}

	trc := filepath.Join(dir, "p.trc")
	runCmd(t, tracegen, "-o", trc, cSrc)
	if fi, err := os.Stat(trc); err != nil || fi.Size() == 0 {
		t.Fatalf("trace file not written: %v", err)
	}
	if out := runCmd(t, tracegen, "-in", trc, "-sym", cSrc, "-dump", "3"); !strings.Contains(out, "jal main") {
		t.Errorf("tracegen dump malformed:\n%s", out)
	}
	if out := runCmd(t, tracegen, "-summary", cSrc); !strings.Contains(out, "addi") {
		t.Errorf("tracegen summary malformed:\n%s", out)
	}
}

// TestCLIMetrics checks -metrics appends the telemetry report — stage
// timing table, VM throughput, ring statistics — after the regular
// output, and that -json carries the snapshot with its schema_version.
func TestCLIMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	bin := buildCmd(t, "ilplimit")
	out := runCmd(t, bin, "-bench", "irsim", "-table", "3", "-metrics")
	for _, want := range []string{
		"Pipeline stage timings (ms)",
		"irsim",
		"vm profile",
		"vm analysis",
		"ring",
		"occupancy high-water",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("-metrics output missing %q:\n%s", want, out)
		}
	}
	out = runCmd(t, bin, "-bench", "irsim", "-json", "-metrics")
	for _, want := range []string{`"schema_version": 1`, `"stage.wall_ns"`, `"ring.chunk_latency_ns"`} {
		if !strings.Contains(out, want) {
			t.Errorf("-json -metrics output missing %q", want)
		}
	}
}

// TestCLIDebugAddr starts a run with -debug-addr on an ephemeral port
// and fetches live expvar and pprof pages while it executes.
func TestCLIDebugAddr(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	bin := buildCmd(t, "ilplimit")
	// -scale keeps the run alive long enough to probe the server.
	cmd := exec.Command(bin, "-bench", "espresso", "-scale", "4", "-debug-addr", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stdout = nil
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	}()

	sc := bufio.NewScanner(stderr)
	var addr string
	for sc.Scan() {
		if _, rest, ok := strings.Cut(sc.Text(), "listening on "); ok {
			addr = strings.TrimSpace(rest)
			break
		}
	}
	if addr == "" {
		t.Fatal("debug server address never announced on stderr")
	}

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		return string(body)
	}
	if vars := get("/debug/vars"); !strings.Contains(vars, `"ilplimit"`) {
		t.Errorf("/debug/vars lacks the ilplimit metrics export:\n%.400s", vars)
	}
	if idx := get("/debug/pprof/"); !strings.Contains(idx, "goroutine") {
		t.Errorf("/debug/pprof/ index malformed:\n%.400s", idx)
	}
	// Drain stderr so the child never blocks on a full pipe.
	go func() {
		for sc.Scan() {
		}
	}()
	if err := cmd.Wait(); err != nil {
		t.Fatalf("run with -debug-addr failed: %v", err)
	}
}

// TestCLIKillResume drives the crash-safe journal end to end: a suite
// run with -resume is killed with SIGKILL mid-run (no cleanup, no
// deferred writes — the crash the journal exists for), its journal tail
// is corrupted the way a torn write would, and the resumed run must
// still skip the benchmarks that completed before the kill and emit
// output byte-identical to an uninterrupted run.
func TestCLIKillResume(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	bin := buildCmd(t, "ilplimit")
	benches := "awk,ccom,eqntott,irsim,latex"

	// Reference: the uninterrupted run's exact bytes.
	ref, err := exec.Command(bin, "-bench", benches, "-json").Output()
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	// Interrupted run: SIGKILL as soon as the journal holds at least one
	// completed benchmark.
	dir := t.TempDir()
	jpath := filepath.Join(dir, "journal.ilpj")
	cmd := exec.Command(bin, "-bench", benches, "-json", "-resume", dir)
	cmd.Stdout, cmd.Stderr = io.Discard, io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if data, err := os.ReadFile(jpath); err == nil && strings.Contains(string(data), " bench ") {
			break
		}
		if time.Now().After(deadline) {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
			t.Fatal("no benchmark journaled within the deadline")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = cmd.Wait()

	// Simulate the torn write a crash mid-append leaves behind: a record
	// fragment with no trailing newline.  Recovery must drop it and keep
	// every complete record before it.
	f, err := os.OpenFile(jpath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("ilpj1 deadbeef bench {\"name\":\"tru"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Resumed run: must salvage the journal, skip completed work, and
	// reproduce the reference bytes exactly.
	resumed := exec.Command(bin, "-bench", benches, "-json", "-resume", dir, "-v")
	var stderr strings.Builder
	resumed.Stderr = &stderr
	out, err := resumed.Output()
	if err != nil {
		t.Fatalf("resumed run: %v\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "corrupt tail") {
		t.Errorf("resumed run did not report the corrupt-tail salvage:\n%s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "resumed from journal") {
		t.Errorf("resumed run re-ran everything:\n%s", stderr.String())
	}
	if string(out) != string(ref) {
		t.Errorf("resumed output differs from the uninterrupted run (%d vs %d bytes)", len(out), len(ref))
	}
}

// TestCLITimeout drives the fault path end to end: a 1ms deadline on a
// scaled-up suite must abort cleanly (the vm.ErrCanceled message, not a
// hang or a panic) and exit non-zero while still printing the report
// frame for whatever survived.
func TestCLITimeout(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	bin := buildCmd(t, "ilplimit")
	cmd := exec.Command(bin, "-timeout", "1ms", "-scale", "8", "-table", "3")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("deadline run exited zero:\n%s", out)
	}
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) {
		t.Fatalf("run failed without an exit code: %v", err)
	}
	if !strings.Contains(string(out), "canceled") {
		t.Errorf("output does not mention cancellation:\n%s", out)
	}
	if !strings.Contains(string(out), "failed") {
		t.Errorf("output lacks the failure summary:\n%s", out)
	}
}

// TestCLIStudyOptions checks that a study honours the suite options:
// -bench restricts its rows, -opt analyzes optimized code, -metrics
// reports its pipeline stages, and -trace-cache populates the store
// with entries a later suite run replays warm, byte-identical to an
// uncached run.
func TestCLIStudyOptions(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	bin := buildCmd(t, "ilplimit")
	plain := runCmd(t, bin, "-study", "window", "-bench", "awk")
	if !strings.Contains(plain, "awk") || strings.Contains(plain, "ccom") {
		t.Errorf("-study window -bench awk printed other benchmarks:\n%s", plain)
	}
	if opt := runCmd(t, bin, "-study", "window", "-bench", "awk", "-opt"); opt == plain {
		t.Errorf("-study window -opt printed the unoptimized table:\n%s", opt)
	}
	metrics := runCmd(t, bin, "-study", "window", "-bench", "awk", "-metrics")
	if !strings.Contains(metrics, "Pipeline stage timings (ms)") || strings.Contains(metrics, "no pipeline metrics") {
		t.Errorf("-study window -metrics reported no pipeline stages:\n%s", metrics)
	}

	dir := t.TempDir()
	runCmd(t, bin, "-study", "width", "-bench", "awk", "-trace-cache", dir)
	if files, _ := filepath.Glob(filepath.Join(dir, "*.ilpc")); len(files) != 1 {
		t.Fatalf("-study width -trace-cache committed %v, want one entry", files)
	}
	ref := runCmd(t, bin, "-bench", "awk", "-json")
	warmCmd := exec.Command(bin, "-bench", "awk", "-json", "-trace-cache", dir, "-v")
	var log strings.Builder
	warmCmd.Stderr = &log
	warm, err := warmCmd.Output()
	if err != nil {
		t.Fatalf("warm suite run: %v\n%s", err, log.String())
	}
	if string(warm) != ref {
		t.Errorf("suite output from the study-populated store differs from an uncached run")
	}
	if !strings.Contains(log.String(), "cached trace") || strings.Contains(log.String(), "running live") {
		t.Errorf("suite run did not replay the study's entry warm:\n%s", log.String())
	}
}
