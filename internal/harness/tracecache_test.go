package harness

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"ilplimit/internal/bench"
	"ilplimit/internal/faultinject"
	"ilplimit/internal/telemetry"
)

// ilpcFiles lists the committed trace files in a store directory.
func ilpcFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".ilpc") {
			out = append(out, e.Name())
		}
	}
	return out
}

// TestTraceCacheBenchmarkEquivalence is the harness-level guarantee:
// live, cold (populating) and warm runs of the
// same benchmark produce deeply equal BenchResults, and the cache state
// transitions (populate, then hit) are observable in telemetry.
func TestTraceCacheBenchmarkEquivalence(t *testing.T) {
	b, err := bench.ByName("irsim")
	if err != nil {
		t.Fatal(err)
	}
	live, err := RunBenchmark(b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	coldReg := telemetry.NewRegistry()
	cold, err := RunBenchmark(b, Options{TraceStore: dir, Metrics: coldReg})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(ilpcFiles(t, dir)); n != 1 {
		t.Fatalf("cold run committed %d trace files, want 1", n)
	}
	if c := coldReg.Snapshot().Counters["bench.irsim.store.populates"]; c != 1 {
		t.Errorf("cold run recorded %d populates, want 1", c)
	}
	if c := coldReg.Snapshot().Counters["bench.irsim.store.misses"]; c != 1 {
		t.Errorf("cold run recorded %d misses, want 1", c)
	}

	warmReg := telemetry.NewRegistry()
	warm, err := RunBenchmark(b, Options{TraceStore: dir, Metrics: warmReg})
	if err != nil {
		t.Fatal(err)
	}
	if c := warmReg.Snapshot().Counters["bench.irsim.store.hits"]; c != 1 {
		t.Errorf("warm run recorded %d hits, want 1", c)
	}

	// Telemetry snapshots differ by construction (timers, live-vs-cached
	// stage sets); everything else must match exactly.
	cold.Telemetry, warm.Telemetry = nil, nil
	for name, r := range map[string]*BenchResult{"cold": cold, "warm": warm} {
		if !reflect.DeepEqual(live, r) {
			t.Errorf("%s result differs from live:\nlive: %+v\n%s: %+v", name, live, name, r)
		}
	}
}

// TestTraceCacheStudySharing: the suite's cold run populates the
// "profile" trace that the window study then replays.  The study keys
// into the same fingerprint space (same program, same annotation, same
// predictor lanes), so it must reuse the suite's entry byte-for-byte —
// not mint a second eqntott file — and its rows must match a live run.
func TestTraceCacheStudySharing(t *testing.T) {
	b, err := bench.ByName("eqntott")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opt := Options{TraceStore: dir, Benchmarks: []bench.Benchmark{b}}
	if _, err := RunSuite(opt); err != nil {
		t.Fatal(err)
	}
	files := ilpcFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("suite committed %d trace files, want 1", len(files))
	}
	entry := filepath.Join(dir, files[0])
	before, err := os.ReadFile(entry)
	if err != nil {
		t.Fatal(err)
	}
	// The study sweeps the whole suite, populating entries for the other
	// benchmarks as it goes — that's fine.  What must not happen is a
	// second eqntott entry or a rewrite of the suite's.
	ws, err := RunWindowStudy(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws.Rows) == 0 {
		t.Fatal("window study produced no rows")
	}
	var eqntott []string
	for _, f := range ilpcFiles(t, dir) {
		if strings.HasPrefix(f, "eqntott-") {
			eqntott = append(eqntott, f)
		}
	}
	if len(eqntott) != 1 || eqntott[0] != files[0] {
		t.Errorf("study minted its own eqntott entry: %v", eqntott)
	}
	afterBytes, err := os.ReadFile(entry)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, afterBytes) {
		t.Error("study rewrote the suite's trace file")
	}

	// The study's results must match a live (uncached) study run.
	liveWS, err := RunWindowStudy(Options{Benchmarks: []bench.Benchmark{b}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ws.Rows, liveWS.Rows) {
		t.Errorf("cached window study differs from live:\ncached: %+v\nlive: %+v", ws.Rows, liveWS.Rows)
	}
}

// TestTraceCacheFaultComposition pins the chaos interaction both ways:
// a run with an armed fault plan never populates the store (a mutated
// chunk must not be committed as a clean trace), and a warm hit under a
// fault plan still reproduces the live result — the cache changes
// cost, faults change cost, neither changes results.
func TestTraceCacheFaultComposition(t *testing.T) {
	b, err := bench.ByName("eqntott")
	if err != nil {
		t.Fatal(err)
	}
	live, err := RunBenchmark(b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A plan whose triggers never fire (sequence numbers beyond any real
	// trace) still counts as armed: the gate is the plan, not its luck.
	dormant := func(string) *faultinject.Plan {
		return &faultinject.Plan{SlowConsumer: 0, SlowEvery: 1 << 40, SlowFor: 1}
	}
	dir := t.TempDir()
	faulted, err := RunBenchmark(b, Options{TraceStore: dir, Faults: dormant})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(ilpcFiles(t, dir)); n != 0 {
		t.Fatalf("faulted run committed %d trace files, want 0", n)
	}
	faulted.Telemetry = nil
	if !reflect.DeepEqual(live, faulted) {
		t.Errorf("faulted cold run differs from live")
	}

	// Populate cleanly, then hit the cache under the same fault plan.
	if _, err := RunBenchmark(b, Options{TraceStore: dir}); err != nil {
		t.Fatal(err)
	}
	warm, err := RunBenchmark(b, Options{TraceStore: dir, Faults: dormant})
	if err != nil {
		t.Fatal(err)
	}
	warm.Telemetry = nil
	if !reflect.DeepEqual(live, warm) {
		t.Errorf("warm run under faults differs from live")
	}
}

// TestTraceCacheWarmReplayFaults: a warm hit runs the fault plan's
// consumer faults on the stored frames.  A slow consumer delays the hit
// without changing it; a Once-armed analyzer panic fires, the pass
// falls back to a live run (which the spent plan leaves clean), and the
// result still matches the uncached one.
func TestTraceCacheWarmReplayFaults(t *testing.T) {
	b, err := bench.ByName("eqntott")
	if err != nil {
		t.Fatal(err)
	}
	live, err := RunBenchmark(b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := RunBenchmark(b, Options{TraceStore: dir}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		plan    *faultinject.Plan
		counter string
		fired   func(*faultinject.Plan) int64
	}{
		{"slow", &faultinject.Plan{Once: true, SlowConsumer: 1, SlowEvery: 512, SlowFor: time.Microsecond},
			"store.hits", (*faultinject.Plan).FiredSlow},
		{"panic", &faultinject.Plan{Once: true, PanicConsumer: 2, PanicAtSeq: 100},
			"store.fallbacks", func(p *faultinject.Plan) int64 { _, n, _, _ := p.Fired(); return n }},
	} {
		reg := telemetry.NewRegistry()
		warm, err := RunBenchmark(b, Options{TraceStore: dir, Metrics: reg,
			Faults: func(string) *faultinject.Plan { return tc.plan }})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if n := tc.fired(tc.plan); n == 0 {
			t.Errorf("%s: the fault never fired on the warm replay", tc.name)
		}
		if c := reg.Snapshot().Counters["bench.eqntott."+tc.counter]; c != 1 {
			t.Errorf("%s: %s = %d, want 1", tc.name, tc.counter, c)
		}
		warm.Telemetry = nil
		if !reflect.DeepEqual(live, warm) {
			t.Errorf("%s: warm run under faults differs from live", tc.name)
		}
	}
}

// TestTraceCacheCorruptFallsBackAndRepopulates: damaging the committed
// file must turn the next run into a live one (identical result) that
// rewrites a valid entry over the damage.
func TestTraceCacheCorruptFallsBackAndRepopulates(t *testing.T) {
	b, err := bench.ByName("eqntott")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cold, err := RunBenchmark(b, Options{TraceStore: dir})
	if err != nil {
		t.Fatal(err)
	}
	files := ilpcFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("got %d trace files, want 1", len(files))
	}
	path := filepath.Join(dir, files[0])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0x10
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	again, err := RunBenchmark(b, Options{TraceStore: dir, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if c := snap.Counters["bench.eqntott.store.fallbacks"]; c != 1 {
		t.Errorf("recorded %d fallbacks, want 1", c)
	}
	if c := snap.Counters["bench.eqntott.store.populates"]; c != 1 {
		t.Errorf("recorded %d re-populates, want 1", c)
	}
	again.Telemetry = nil
	if !reflect.DeepEqual(cold, again) {
		t.Errorf("fallback run differs from the original")
	}
	// The rewritten entry serves the next run warm.
	warm, err := RunBenchmark(b, Options{TraceStore: dir})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Errorf("re-populated warm run differs from the original")
	}
}

// TestTraceCacheJobEquivalence covers the service job path: cold
// write-through, then a warm hit, both equal to an uncached job, and an
// uploaded-trace job never touching the store.
func TestTraceCacheJobEquivalence(t *testing.T) {
	const src = `
int main() {
	int i, s;
	s = 0;
	for (i = 0; i < 200; i++) {
		if (i % 3 == 0) s += i;
		else s -= 1;
	}
	print(s);
	return 0;
}
`
	ctx := context.Background()
	live, err := AnalyzeJob(ctx, JobSpec{Source: src})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cold, err := AnalyzeJob(ctx, JobSpec{Source: src, TraceStore: dir})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(ilpcFiles(t, dir)); n != 1 {
		t.Fatalf("cold job committed %d trace files, want 1", n)
	}
	warm, err := AnalyzeJob(ctx, JobSpec{Source: src, TraceStore: dir})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(live, cold) || !reflect.DeepEqual(live, warm) {
		t.Errorf("job results differ: live %+v cold %+v warm %+v", live, cold, warm)
	}
}

// TestTraceCacheStudyServesSuite: an entry a study populated carries
// the same sidecar as a suite run's, so the next suite run replays it
// warm — one hit, no fallback — with the live result.
func TestTraceCacheStudyServesSuite(t *testing.T) {
	b, err := bench.ByName("irsim")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := RunWindowStudy(Options{TraceStore: dir, Benchmarks: []bench.Benchmark{b}}); err != nil {
		t.Fatal(err)
	}
	live, err := RunBenchmark(b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	warm, err := RunBenchmark(b, Options{TraceStore: dir, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if hits, fb := snap.Counters["bench.irsim.store.hits"], snap.Counters["bench.irsim.store.fallbacks"]; hits != 1 || fb != 0 {
		t.Errorf("suite run over a study-populated store: store.hits = %d, store.fallbacks = %d; want 1 and 0", hits, fb)
	}
	warm.Telemetry = nil
	if !reflect.DeepEqual(live, warm) {
		t.Errorf("warm result differs from live:\nlive: %+v\nwarm: %+v", live, warm)
	}
}

// TestTraceCachePredictionStudyWarm: the prediction study's sidecar
// carries the dynamic predictor's rate, so a warm rerun skips both VM
// passes and still reports every column.
func TestTraceCachePredictionStudyWarm(t *testing.T) {
	b, err := bench.ByName("irsim")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opt := Options{TraceStore: dir, Benchmarks: []bench.Benchmark{b}}
	cold, err := RunPredictionStudy(opt)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	opt.Metrics = reg
	warm, err := RunPredictionStudy(opt)
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if hits := snap.Counters["bench.irsim.store.hits"]; hits != 1 {
		t.Errorf("warm prediction study: store.hits = %d, want 1", hits)
	}
	if runs := snap.Counters["bench.irsim.vm.profile.runs"]; runs != 0 {
		t.Errorf("warm prediction study ran the VM %d times", runs)
	}
	if !reflect.DeepEqual(cold.Rows, warm.Rows) {
		t.Errorf("warm rows differ from cold:\ncold: %+v\nwarm: %+v", cold.Rows, warm.Rows)
	}
}

// TestTraceCacheSidecarFields: a sidecar lacking a statistic the pass
// reports is refused (the pass runs live) rather than read as zero.
func TestTraceCacheSidecarFields(t *testing.T) {
	full := `{"PredictionRate":90.5,"TraceInstructions":7,"DynamicCondBr":2,"Steps":9}`
	if s, err := decodeStats([]byte(full), false); err != nil || s.Steps != 9 || s.DynamicRate != nil {
		t.Errorf("suite sidecar: %+v, %v", s, err)
	}
	if _, err := decodeStats([]byte(full), true); err == nil {
		t.Error("sidecar without DynamicRate served a pass that reports it")
	}
	withDyn := `{"PredictionRate":90.5,"DynamicRate":0,"TraceInstructions":7,"DynamicCondBr":2,"Steps":9}`
	if s, err := decodeStats([]byte(withDyn), true); err != nil || s.DynamicRate == nil || *s.DynamicRate != 0 {
		t.Errorf("prediction sidecar: %+v, %v", s, err)
	}
	for _, bad := range []string{"", "{}", `{"PredictionRate":1,"TraceInstructions":7,"Steps":9}`} {
		if _, err := decodeStats([]byte(bad), false); err == nil {
			t.Errorf("sidecar %q accepted", bad)
		}
	}
}
