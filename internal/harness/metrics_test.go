package harness

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"ilplimit/internal/bench"
	"ilplimit/internal/faultinject"
	"ilplimit/internal/limits"
	"ilplimit/internal/telemetry"
)

// runWithMetrics runs one benchmark under opt with a fresh registry and
// returns the filtered per-benchmark snapshot plus the raw suite-level
// one.
func runWithMetrics(t *testing.T, name string, opt Options) (*telemetry.Snapshot, *telemetry.Snapshot) {
	t.Helper()
	b, err := bench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	opt.Metrics = reg
	r, err := RunBenchmark(b, opt)
	if err != nil {
		t.Fatal(err)
	}
	if r.Telemetry == nil {
		t.Fatal("BenchResult.Telemetry is nil despite Options.Metrics")
	}
	return r.Telemetry, reg.Snapshot()
}

// TestRunBenchmarkTelemetry checks the per-benchmark snapshot carries
// the full catalogue: stage timers, VM counters for both passes, and
// ring statistics, all with the "bench.<name>." prefix stripped — and
// that a warm trace-store run reports its replay time.
func TestRunBenchmarkTelemetry(t *testing.T) {
	snap, raw := runWithMetrics(t, "irsim", Options{})

	for _, c := range []string{
		"stage.compile_ns", "stage.profile_ns", "stage.static_ns", "stage.analyze_ns", "stage.wall_ns",
		"vm.profile.instructions", "vm.profile.run_ns", "vm.profile.runs",
		"vm.analysis.instructions", "vm.analysis.runs",
		"ring.chunks", "ring.events",
	} {
		if snap.Counters[c] <= 0 {
			t.Errorf("counter %s = %d, want > 0", c, snap.Counters[c])
		}
	}
	// The profile pass and the analysis replay step the same trace.
	if p, a := snap.Counters["vm.profile.instructions"], snap.Counters["vm.analysis.instructions"]; p != a {
		t.Errorf("profile executed %d instructions but analysis replayed %d", p, a)
	}
	// The replay ring carries the analysis trace plus the final HALT event.
	if ev, in := snap.Counters["ring.events"], snap.Counters["vm.analysis.instructions"]; ev < in {
		t.Errorf("ring.events = %d < vm.analysis.instructions = %d", ev, in)
	}
	// Wall covers every stage.
	var stages int64
	for _, c := range []string{"stage.compile_ns", "stage.profile_ns", "stage.analyze_ns"} {
		stages += snap.Counters[c]
	}
	if wall := snap.Counters["stage.wall_ns"]; wall < stages {
		t.Errorf("stage.wall_ns = %d < sum of stages %d", wall, stages)
	}
	// The raw registry scopes everything under the benchmark name.
	for name := range raw.Counters {
		if !strings.HasPrefix(name, "bench.irsim.") {
			t.Errorf("unscoped metric %q in suite registry", name)
		}
	}
	// The static stage (limits.NewStatic) has its own report column.
	if cell := reportCell(t, MetricsReport(raw), "irsim", "static"); cell == "-" {
		t.Errorf("live irsim row leaves the static column empty:\n%s", MetricsReport(raw))
	}
	// Analyzer results for all seven models, unrolled and plain.
	var analyzer int
	for name := range snap.Counters {
		if strings.HasPrefix(name, "analyzer.") && strings.HasSuffix(name, ".cycles") {
			analyzer++
		}
	}
	if analyzer != 14 {
		t.Errorf("got %d analyzer cycle counters, want 14 (7 models × {unrolled, plain})", analyzer)
	}

	// A warm trace-store run replays the stored trace instead of
	// profiling and analyzing live; its report row must show the replay.
	store := t.TempDir()
	runWithMetrics(t, "irsim", Options{TraceStore: store}) // cold: populates
	warm, warmRaw := runWithMetrics(t, "irsim", Options{TraceStore: store})
	if warm.Counters["store.hits"] != 1 || warm.Counters["stage.cached_replay_ns"] <= 0 {
		t.Fatalf("warm run: store.hits = %d, stage.cached_replay_ns = %d; want a timed store hit",
			warm.Counters["store.hits"], warm.Counters["stage.cached_replay_ns"])
	}
	report := MetricsReport(warmRaw)
	cell := reportCell(t, report, "irsim", "cached_replay")
	if _, err := strconv.ParseFloat(cell, 64); err != nil {
		t.Errorf("warm irsim row shows %q under cached_replay, want a time:\n%s", cell, report)
	}
}

// reportCell returns the entry of MetricsReport's stage-timing table in
// the given benchmark's row and column.
func reportCell(t *testing.T, report, benchName, column string) string {
	t.Helper()
	col := -1
	for _, line := range strings.Split(report, "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) == 0:
		case f[0] == "Benchmark":
			for i, h := range f {
				if h == column {
					col = i
				}
			}
		case f[0] == benchName && col >= 0 && col < len(f):
			return f[col]
		}
	}
	t.Fatalf("no %s row with a %s column in report:\n%s", benchName, column, report)
	return ""
}

// TestTelemetryDeterministicAcrossPaths pins snapshot determinism
// across ring interleavings: every scheduling-outcome metric (analyzer
// cycles and instructions, VM instruction counts) is identical whether
// the fan-out runs freely or one consumer is slowed on every few chunks,
// which reshuffles how producer and consumers interleave.  Timing and
// stall metrics are excluded — they measure the machine, not the
// program.
func TestTelemetryDeterministicAcrossPaths(t *testing.T) {
	slow := func(string) *faultinject.Plan {
		return &faultinject.Plan{SlowConsumer: 3, SlowEvery: 4 * limits.ChunkEvents, SlowFor: time.Millisecond}
	}
	clean, _ := runWithMetrics(t, "irsim", Options{})
	slowed, _ := runWithMetrics(t, "irsim", Options{Faults: slow})
	deterministic := func(name string) bool {
		return strings.HasPrefix(name, "analyzer.") ||
			strings.HasSuffix(name, ".instructions") ||
			strings.HasSuffix(name, ".runs")
	}
	for name, cv := range clean.Counters {
		if !deterministic(name) {
			continue
		}
		if sv, ok := slowed.Counters[name]; !ok || sv != cv {
			t.Errorf("counter %s: clean=%d slowed=%d (ok=%v)", name, cv, sv, ok)
		}
	}
}

// TestSuiteTelemetrySnapshot checks RunSuite attaches both the combined
// suite snapshot and the filtered per-benchmark snapshots.
func TestSuiteTelemetrySnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full suite")
	}
	reg := telemetry.NewRegistry()
	s, err := RunSuite(Options{Metrics: reg, Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if s.Telemetry == nil {
		t.Fatal("SuiteResult.Telemetry is nil")
	}
	for _, b := range s.Benchmarks {
		if b.Telemetry == nil {
			t.Errorf("%s: BenchResult.Telemetry is nil", b.Name)
			continue
		}
		want := s.Telemetry.Counters["bench."+b.Name+".stage.wall_ns"]
		if got := b.Telemetry.Counters["stage.wall_ns"]; got == 0 || got != want {
			t.Errorf("%s: per-bench wall %d != suite-scoped wall %d", b.Name, got, want)
		}
	}
	report := MetricsReport(s.Telemetry)
	for _, want := range []string{"Pipeline stage timings", "irsim", "vm profile", "ring"} {
		if !strings.Contains(report, want) {
			t.Errorf("MetricsReport missing %q:\n%s", want, report)
		}
	}
}

// TestMetricsReportEmpty keeps the report total on degenerate input.
func TestMetricsReportEmpty(t *testing.T) {
	if got := MetricsReport(nil); !strings.Contains(got, "no metrics") {
		t.Errorf("nil-snapshot report = %q", got)
	}
	if got := MetricsReport(telemetry.NewRegistry().Snapshot()); !strings.Contains(got, "no pipeline metrics") {
		t.Errorf("empty-snapshot report = %q", got)
	}
}
