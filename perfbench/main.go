// Command perfbench is the repository's benchmark.  It runs one named
// workload of the ilplimit pipeline from a single process for a fixed
// time, checks every pass's simulated results against the results
// recorded in expected.json, and prints the end-to-end metrics — or,
// with -trace 1, the per-layer metrics of a separate traced run.
//
// Build and run it from the repository root through run.sh:
//
//	bash perfbench/run.sh --workload suite-live --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it is a
// fuller report carrying the machine stamp.  -record rewrites
// expected.json from the current code.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"ilplimit/internal/telemetry"
)

// hardLimit bounds one run, set-up included.
const hardLimit = 165 * time.Second

// setupReps is how many times a run repeats set-up; setup_s is their
// median.
const setupReps = 41

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "workload seed (permutes the suite's job admission order)")
	seconds := flag.Int("seconds", 30, "how long to measure passes")
	traceRun := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the timed passes")
	root := flag.String("root", ".", "repository root")
	rec := flag.Bool("record", false, "record expected.json from the current code and exit")
	flag.Parse()

	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
	var err error
	if *rec {
		err = record(*root)
	} else {
		err = run(*root, *name, *seed, time.Duration(*seconds)*time.Second, *traceRun == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// passLog times passes: wall seconds, process CPU seconds and peak
// resident set of each pass that succeeded, and the errors of those
// that did not.
type passLog struct {
	wall, cpu, rssMB  []float64
	attempted, failed int
	errs              []string
}

func (p *passLog) run(ctx context.Context, f func(context.Context) error) {
	// Each pass starts from a collected heap returned to the OS, as a
	// fresh process would.
	debug.FreeOSMemory()
	resetPeakRSS()
	c0, t0 := cpuTime(), time.Now()
	err := f(ctx)
	wall, cpu := time.Since(t0).Seconds(), (cpuTime() - c0).Seconds()
	rss := peakRSSMB()
	p.attempted++
	if err != nil {
		p.failed++
		if len(p.errs) < 5 {
			p.errs = append(p.errs, err.Error())
		}
		return
	}
	p.wall = append(p.wall, wall)
	p.cpu = append(p.cpu, cpu)
	p.rssMB = append(p.rssMB, rss)
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's resident-set high-water mark, so
// the next peakRSSMB reads the peak of one pass.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // unsupported: the peak stays process-wide
}

// peakRSSMB reads the resident-set high-water mark (VmHWM), falling
// back to the process-wide peak from getrusage.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb float64
				if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f kB", &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

// stamp names the machine and build a report was measured on.
type stamp struct {
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	CPUModel    string `json:"cpu_model"`
	GoVersion   string `json:"go_version"`
	GitRevision string `json:"git_revision"`
}

func machineStamp(root string) stamp {
	s := stamp{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel: "unknown", GoVersion: runtime.Version(),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				s.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// Outside a git checkout neither the build info nor git knows the
	// revision; skip the git call rather than let it search above root.
	s.GitRevision = "unknown"
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if rev := telemetry.GitRevision(); rev != "" {
			s.GitRevision = rev
		}
	}
	return s
}

// lockRun takes the exclusive run lock: workloads never run
// concurrently, since they would share the machine.
func lockRun(dir string) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, "lock"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		return nil, fmt.Errorf("another perfbench run holds %s: %w", f.Name(), err)
	}
	return f, nil
}

func run(root, name string, seed int64, seconds time.Duration, traced bool) error {
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), hardLimit)
	defer cancel()
	exp, err := loadExpected()
	if err != nil {
		return err
	}
	outDir := filepath.Join(root, ".bench_build", "perfbench")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	lock, err := lockRun(outDir)
	if err != nil {
		return err
	}
	defer lock.Close()
	workDir := filepath.Join(outDir, "work")
	if err := os.RemoveAll(workDir); err != nil {
		return err
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(workDir)
	w, err := newWorkload(name, seed, exp)
	if err != nil {
		return err
	}

	report := map[string]any{
		"workload": name, "seed": seed, "trace": traced, "stamp": machineStamp(root),
	}
	var setup []float64
	for i := 0; i < setupReps; i++ {
		debug.FreeOSMemory()
		t0 := time.Now()
		if err := w.setup(ctx); err != nil {
			return fmt.Errorf("%s set-up: %w", name, err)
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	report["setup_s_samples"] = setup

	var res result
	if traced {
		res, err = tracedRun(ctx, w, seconds, outDir, workDir, seed, report)
		if err != nil {
			return err
		}
	} else {
		res = timedRun(ctx, w, start, seconds, report)
		res.Metrics["setup_s"] = metric{median(setup), "s"}
	}
	report["failed_frac"] = float64(res.Failed) / float64(max(res.Attempted, 1))
	report["run_s"] = time.Since(start).Seconds()
	line, err := json.Marshal(map[string]any{"report": report})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if line, err = json.Marshal(res); err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// timedRun measures passes with tracing off for the given time, an
// untimed warm-up pass included, and beyond it only until the tail
// percentile has enough samples.  It starts no pass that would, at the
// median pass time so far, end after the measuring time, so a run
// lasts about as long whatever one pass costs.
func timedRun(ctx context.Context, w *workload, start time.Time, seconds time.Duration, report map[string]any) result {
	var warm, p passLog
	t0 := time.Now()
	warm.run(ctx, w.pass)
	for ctx.Err() == nil && time.Since(start) < hardLimit/2 {
		next := time.Duration(median(p.wall) * float64(time.Second))
		if time.Since(t0)+next > seconds && (len(p.wall) > tailBeyond || p.failed > 0) {
			break
		}
		p.run(ctx, w.pass)
	}
	attempted, failed := warm.attempted+p.attempted, warm.failed+p.failed
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	passS := median(p.wall)
	tailS, pct, ok := tail(p.wall)
	if !ok {
		// Only failed passes or the hard limit stop a run short of
		// tailBeyond+1 passes; report the median then.
		tailS, pct = passS, 50
	}
	minstr := 0.0
	if passS > 0 {
		minstr = float64(w.steps) / passS / 1e6
	}
	res.Metrics["pass_s"] = metric{passS, "s"}
	res.Metrics["pass_s.tail"] = metric{tailS, "s"}
	res.Metrics["minstr_per_s"] = metric{minstr, "Minstr/s"}
	res.Metrics["cpu_s"] = metric{median(p.cpu), "s"}
	res.Metrics["peak_rss_mb"] = metric{median(p.rssMB), "MB"}
	q1, q2, q3, _ := quartiles(p.wall)
	report["passes"] = len(p.wall)
	report["warmup_s"] = warm.wall
	report["pass_s_samples"] = p.wall
	report["pass_s_quartiles"] = []float64{q1, q2, q3}
	report["pass_s_tail"] = map[string]any{"percentile": pct, "samples": len(p.wall), "value": tailS}
	report["steps_per_pass"] = w.steps
	report["errors"] = append(warm.errs, p.errs...)
	return res
}

// tracedRun measures each layer on its own, then alternates untraced
// and traced passes (for the tracing overhead, the benchmark spans, the
// harness's own counters and the CPU base of the cost accounting) for
// the rest of the measuring time.
func tracedRun(ctx context.Context, w *workload, seconds time.Duration, outDir, workDir string,
	seed int64, report map[string]any) (result, error) {
	tr := newTracer()
	t0 := time.Now()
	var errs []string
	attempted, failed := 1, 0
	layerStore := filepath.Join(workDir, "layers")
	if err := os.MkdirAll(layerStore, 0o755); err != nil {
		return result{}, err
	}
	layersRoot, layers, err := layerPass(ctx, tr, w, layerStore)
	if err != nil {
		failed++
		errs = append(errs, err.Error())
	}

	var untraced, traced passLog
	var passes []int
	var counters []map[string]int64 // per traced pass
	for i := 0; ctx.Err() == nil && (i < 5 || (time.Since(t0) < seconds && i < 20)); i++ {
		untraced.run(ctx, w.pass)
		traced.run(ctx, func(ctx context.Context) error {
			id, c, err := w.traced(ctx, tr)
			if err == nil {
				passes = append(passes, id)
				counters = append(counters, c)
			}
			return err
		})
	}
	attempted += untraced.attempted + traced.attempted
	failed += untraced.failed + traced.failed
	errs = append(append(errs, untraced.errs...), traced.errs...)

	spans := tr.snapshot()
	spanFile := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, seed))
	if err := writeSpans(spanFile, spans); err != nil {
		return result{}, err
	}
	m := layerMetrics(w, layers, spans, passes, &untraced, &traced)
	report["spans_file"] = spanFile
	for _, s := range spans {
		if s.ID == layersRoot {
			report["layer_pass_s"] = s.dur().Seconds()
		}
	}
	report["layer_call_coverage"] = leafCoverage(spans, layersRoot)
	if w.name == "study-window" {
		var cov []float64
		for _, p := range passes {
			cov = append(cov, leafCoverage(spans, p))
		}
		report["window_pass_layer_call_coverage"] = median(cov)
	}
	if stages := stageBreakdown(counters); len(stages) > 0 {
		report["harness_stage_ms"] = stages
	}
	report["passes"] = map[string]int{"untraced": len(untraced.wall), "traced": len(traced.wall)}
	report["errors"] = errs
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// stageBreakdown is the harness's own per-benchmark stage timing
// ("bench.<name>.stage.<stage>_ns"), as the median over traced passes
// in milliseconds.
func stageBreakdown(passes []map[string]int64) map[string]map[string]float64 {
	samples := make(map[string]map[string][]float64)
	for _, c := range passes {
		for name, v := range c {
			rest, ok := strings.CutPrefix(name, "bench.")
			if !ok {
				continue
			}
			b, sub, ok := strings.Cut(rest, ".stage.")
			if !ok {
				continue
			}
			stage := strings.TrimSuffix(sub, "_ns")
			if samples[metricName(b)] == nil {
				samples[metricName(b)] = make(map[string][]float64)
			}
			samples[metricName(b)][stage] = append(samples[metricName(b)][stage], ms(time.Duration(v)))
		}
	}
	out := make(map[string]map[string]float64)
	for b, stages := range samples {
		out[b] = make(map[string]float64)
		for stage, v := range stages {
			out[b][stage] = median(v)
		}
	}
	return out
}
