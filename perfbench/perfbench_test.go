package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"strconv"
	"testing"
	"time"

	"ilplimit/internal/bench"
	"ilplimit/internal/harness"
)

// BENCHMARK.json must declare exactly the workloads and metrics the
// program prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, program runs %v", names, workloadNames)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEndMetrics()) {
		t.Errorf("end_to_end %v, program prints %v", doc.EndToEnd, endToEndMetrics())
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayerMetrics()) {
		t.Errorf("per_layer %v, program prints %v", doc.PerLayer, perLayerMetrics())
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(n int64) int64 { return n * int64(time.Millisecond) }
	spans := []span{
		{ID: 1, Root: 1, StartNs: 0, EndNs: ms(100)},
		// Two overlapping children covering [10, 70).
		{ID: 2, Parent: 1, Root: 1, StartNs: ms(10), EndNs: ms(50)},
		{ID: 3, Parent: 1, Root: 1, StartNs: ms(30), EndNs: ms(70)},
		// A grandchild covering half of span 2.
		{ID: 4, Parent: 2, Root: 1, StartNs: ms(10), EndNs: ms(30)},
		{ID: 5, Root: 5, StartNs: ms(200), EndNs: ms(210)},
	}
	want := map[int]time.Duration{
		1: 40 * time.Millisecond, 2: 20 * time.Millisecond, 3: 40 * time.Millisecond,
		4: 20 * time.Millisecond, 5: 10 * time.Millisecond,
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	// Span 1 is a pass with two layer calls; span 2 has a child and
	// so is not a layer call.  Outside any layer call are span 1's 40ms
	// and span 2's 20ms of self time.
	if got, want := leafCoverage(spans, 1), 1-0.060/0.100; math.Abs(got-want) > 1e-9 {
		t.Errorf("leafCoverage = %v, want %v", got, want)
	}
	// A root with no children is itself a layer call.
	if got := leafCoverage(spans, 5); got != 1 {
		t.Errorf("leafCoverage of a lone root = %v, want 1", got)
	}
}

// tolerance is the share of a serial traced pass's wall time that may
// fall outside every layer call.
const tolerance = 0.02

// checkCoverage checks that the layer calls of a serial traced pass
// account for its wall time within tolerance.
func checkCoverage(t *testing.T, tr *tracer, root int) {
	t.Helper()
	got := leafCoverage(tr.snapshot(), root)
	if got < 1-tolerance {
		t.Errorf("layer calls cover %.4f of the traced pass, want at least %.4f", got, 1-tolerance)
	}
	t.Logf("layer calls cover %.4f of the traced pass", got)
}

// The window study runs benchmarks one after another, so its layer
// calls must account for the traced pass's wall time.
func TestTracedWindowPassCoverage(t *testing.T) {
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	root, err := tracedWindowPass(context.Background(), tr, scale, exp.Window)
	if err != nil {
		t.Fatal(err)
	}
	checkCoverage(t, tr, root)
}

// The layer pass measures every layer on one benchmark, checks every
// analysis against the recorded results, and is serial too.
func TestLayerPass(t *testing.T) {
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	b, err := bench.ByName("irsim")
	if err != nil {
		t.Fatal(err)
	}
	w := &workload{
		name: "suite-live", scale: scale, benches: []bench.Benchmark{b},
		suiteWant: exp.Suite["1"], windowWant: exp.Window,
	}
	tr := newTracer()
	root, layers, err := layerPass(context.Background(), tr, w, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	checkCoverage(t, tr, root)
	if len(layers) != 1 || layers[0].events != exp.Suite["1"][b.Name].Steps {
		t.Fatalf("layer pass measured %+v", layers)
	}
	m := layerMetrics(w, layers, tr.snapshot(), nil, &passLog{cpu: []float64{1}}, &passLog{})
	if len(m) != len(perLayerMetrics()) {
		t.Errorf("layer metrics has %d entries, want %d", len(m), len(perLayerMetrics()))
	}
}

func byName(s *harness.SuiteResult) map[string]harness.BenchResult {
	out := make(map[string]harness.BenchResult)
	for _, r := range s.Benchmarks {
		r.Telemetry = nil
		out[r.Name] = r
	}
	return out
}

// suite-live under two seeds: different job admission orders, results
// identical by benchmark name and equal to the recorded ones.
func TestSeedsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the suite twice")
	}
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	want := exp.Suite[strconv.Itoa(scale)]
	var results []map[string]harness.BenchResult
	var orders [][]string
	for _, seed := range []int64{1, 2} {
		benches := permute(seed)
		var order []string
		for _, b := range benches {
			order = append(order, b.Name)
		}
		orders = append(orders, order)
		s, err := harness.RunSuite(harness.Options{Scale: scale, Benchmarks: benches})
		if err := checkSuite(want, s, err); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		results = append(results, byName(s))
	}
	if reflect.DeepEqual(orders[0], orders[1]) {
		t.Errorf("seeds 1 and 2 give the same order %v", orders[0])
	}
	sorted := append([]string(nil), orders[0]...)
	sort.Strings(sorted)
	var all []string
	for _, b := range bench.All() {
		all = append(all, b.Name)
	}
	sort.Strings(all)
	if !reflect.DeepEqual(sorted, all) {
		t.Errorf("permute(1) = %v is not a permutation of the suite", orders[0])
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Error("results differ between seeds 1 and 2")
	}
}

// The recorded scale-1 results reproduce, and their Table 3
// harmonic-mean row is README's "ours" row.
func TestScale1MatchesREADME(t *testing.T) {
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	s, err := harness.RunSuite(harness.Options{Scale: 1})
	if err := checkSuite(exp.Suite["1"], s, err); err != nil {
		t.Fatal(err)
	}
	if err := checkREADME("..", s); err != nil {
		t.Error(err)
	}
}

// A traced suite pass reproduces the recorded results, with one
// benchmark span per job and the harness's own stage timers for every
// benchmark.
func TestTracedSuitePass(t *testing.T) {
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	benches := permute(7)
	tr := newTracer()
	pass, counters, err := tracedSuitePass(context.Background(), tr, benches, 1, exp.Suite["1"])
	if err != nil {
		t.Fatal(err)
	}
	var benchSpans int
	for _, sp := range tr.snapshot() {
		if sp.Parent == pass {
			benchSpans++
		}
	}
	if benchSpans != len(benches) {
		t.Errorf("pass has %d benchmark spans, want %d", benchSpans, len(benches))
	}
	stages := stageBreakdown([]map[string]int64{counters})
	for _, b := range benches {
		if stages[metricName(b.Name)]["analyze"] <= 0 {
			t.Errorf("%s: no harness analyze stage in %v", b.Name, stages[metricName(b.Name)])
		}
	}
}
