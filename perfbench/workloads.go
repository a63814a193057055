package main

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"ilplimit/internal/asm"
	"ilplimit/internal/bench"
	"ilplimit/internal/harness"
	"ilplimit/internal/isa"
	"ilplimit/internal/limits"
	"ilplimit/internal/minic"
	"ilplimit/internal/predict"
	"ilplimit/internal/telemetry"
	"ilplimit/internal/vm"
)

const (
	// scale is both workloads' suite size, ilplimit's default.  A suite
	// pass at scale 1 costs about a third of one at scale 4, so a short
	// run still holds enough passes for a steady median and a real tail,
	// and short runs keep a set of runs within one phase of a shared
	// host's speed (PREDICTIONS.md, "Why scale 1 and 30-second runs").
	// Scales 2 and 8 are avoided: one benchmark's sort dominates the
	// event count there.
	scale = 1
	// memWords is the harness's default VM and dependence-table size.
	memWords = 1 << 20
)

// workload is one named input set with its harness entry point.
type workload struct {
	name    string
	scale   int
	benches []bench.Benchmark
	// steps is the VM's dynamic instruction count for one pass.
	steps int64
	setup func(ctx context.Context) error
	// pass runs the harness entry point once, tracing off, and checks
	// its results.
	pass func(ctx context.Context) error
	// traced runs the same pass with tracing on, recording pass →
	// benchmark spans (→ layer-call spans where the pass is recomposed
	// from layer calls), and checks its results.  It returns the pass
	// span's ID and the harness's own telemetry counters (nil for the
	// recomposed window study).
	traced func(ctx context.Context, tr *tracer) (int, map[string]int64, error)
	// suiteWant and windowWant are the recorded results the layer pass
	// checks against (nil where none were recorded).
	suiteWant  map[string]suiteExpect
	windowWant map[string]windowExpect
}

var workloadNames = []string{"suite-live", "study-window"}

// permute returns the suite in the seed's order: the job admission
// order of RunSuite.
func permute(seed int64) []bench.Benchmark {
	all := bench.All()
	out := make([]bench.Benchmark, len(all))
	for i, j := range rand.New(rand.NewSource(seed)).Perm(len(all)) {
		out[i] = all[j]
	}
	return out
}

func newWorkload(name string, seed int64, exp *expectations) (*workload, error) {
	w := &workload{name: name}
	switch name {
	case "suite-live":
		w.scale = scale
		w.benches = permute(seed)
		w.suiteWant = exp.Suite[strconv.Itoa(scale)]
		want := w.suiteWant
		for _, e := range want {
			w.steps += e.Steps
		}
		w.setup = func(context.Context) error { return compileAll(w.benches, w.scale) }
		w.pass = func(ctx context.Context) error {
			s, err := harness.RunSuite(harness.Options{Context: ctx, Scale: w.scale, Benchmarks: w.benches})
			return checkSuite(want, s, err)
		}
		w.traced = func(ctx context.Context, tr *tracer) (int, map[string]int64, error) {
			return tracedSuitePass(ctx, tr, w.benches, w.scale, want)
		}
	case "study-window":
		w.scale = scale
		w.benches = bench.All()
		w.windowWant = exp.Window
		w.suiteWant = exp.Suite[strconv.Itoa(scale)]
		want := w.windowWant
		for _, e := range want {
			w.steps += e.Steps
		}
		w.setup = func(context.Context) error { return compileAll(w.benches, w.scale) }
		w.pass = func(ctx context.Context) error {
			s, err := harness.RunWindowStudy(harness.Options{Context: ctx, Scale: w.scale})
			return checkWindowStudy(want, s, err)
		}
		w.traced = func(ctx context.Context, tr *tracer) (int, map[string]int64, error) {
			pass, err := tracedWindowPass(ctx, tr, w.scale, want)
			return pass, nil, err
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	if w.steps == 0 {
		return nil, fmt.Errorf("%s: expected.json records no results", name)
	}
	return w, nil
}

// compileAll builds every benchmark program of the workload: the
// set-up of a workload that keeps no state between passes.
func compileAll(benches []bench.Benchmark, scale int) error {
	for _, b := range benches {
		text, err := minic.Compile(b.Source(scale))
		if err != nil {
			return fmt.Errorf("%s: %w", b.Name, err)
		}
		if _, err := asm.Assemble(text); err != nil {
			return fmt.Errorf("%s: %w", b.Name, err)
		}
	}
	return nil
}

// metricName is a benchmark's name as it appears in metric names
// ("gcc (cc1)" becomes "gcc").
func metricName(bench string) string { return strings.Fields(bench)[0] }

func benchSpan(name string) string { return "bench " + metricName(name) }

// compileTraced compiles and assembles one benchmark as two spans,
// returning the time each took.
func compileTraced(tr *tracer, parent int, b bench.Benchmark, scale int) (prog *isa.Program, compile, assemble time.Duration, err error) {
	var text string
	compile, err = tr.call("minic.Compile", parent, func() (err error) {
		text, err = minic.Compile(b.Source(scale))
		return err
	})
	if err == nil {
		assemble, err = tr.call("asm.Assemble", parent, func() (err error) {
			prog, err = asm.Assemble(text)
			return err
		})
	}
	if err != nil {
		return nil, 0, 0, fmt.Errorf("%s: %w", b.Name, err)
	}
	return prog, compile, assemble, nil
}

// analyzerGroups builds the suite's 7 models × 2 unroll analyzers in
// the harness's order, unrolled first, then plain, as one span.
func analyzerGroups(tr *tracer, parent int, st *limits.Static, words int) (unrolled, plain *limits.Group, all []*limits.Analyzer) {
	tr.call("limits.NewGroup", parent, func() error {
		unrolled = limits.NewGroup(st, words, limits.AllModels(), true)
		plain = limits.NewGroup(st, words, limits.AllModels(), false)
		return nil
	})
	all = append(append(all, unrolled.Analyzers...), plain.Analyzers...)
	return unrolled, plain, all
}

func groupPar(unrolled, plain *limits.Group) (par, parNoUnroll map[limits.Model]float64) {
	par = make(map[limits.Model]float64)
	parNoUnroll = make(map[limits.Model]float64)
	for _, r := range unrolled.Results() {
		par[r.Model] = r.Parallelism()
	}
	for _, r := range plain.Results() {
		parNoUnroll[r.Model] = r.Parallelism()
	}
	return par, parNoUnroll
}

// tracedSuitePass runs RunSuite with harness telemetry on and a cell
// runner that wraps each benchmark's harness.RunCell in a benchmark
// span.  It returns the pass span's ID and the harness's counters.
func tracedSuitePass(ctx context.Context, tr *tracer, benches []bench.Benchmark, scale int,
	want map[string]suiteExpect) (int, map[string]int64, error) {
	reg := telemetry.NewRegistry()
	pass := tr.begin("pass", 0)
	s, err := harness.RunSuite(harness.Options{
		Context: ctx, Scale: scale, Benchmarks: benches, Metrics: reg,
		CellRunner: func(_ context.Context, c harness.Cell, opt harness.Options) (*harness.BenchResult, error) {
			id := tr.begin(benchSpan(c.Bench.Name), pass)
			defer tr.end(id)
			return harness.RunCell(c, opt)
		},
	})
	tr.end(pass)
	return pass, reg.Snapshot().Counters, checkSuite(want, s, err)
}

// tracedWindowPass is RunWindowStudy recomposed from layer calls: the
// study has no per-benchmark hook to hang a benchmark span on.
func tracedWindowPass(ctx context.Context, tr *tracer, scale int, want map[string]windowExpect) (int, error) {
	pass := tr.begin("pass", 0)
	defer tr.end(pass)
	for _, b := range bench.All() {
		row, err := tracedWindowBench(ctx, tr, pass, b, scale)
		if err == nil {
			err = checkWindow(want, row)
		}
		if err != nil {
			return pass, err
		}
	}
	return pass, nil
}

func tracedWindowBench(ctx context.Context, tr *tracer, parent int, b bench.Benchmark, scale int) (harness.WindowRow, error) {
	row := harness.WindowRow{Name: b.Name, Par: make(map[int]float64)}
	id := tr.begin(benchSpan(b.Name), parent)
	defer tr.end(id)
	prog, _, _, err := compileTraced(tr, id, b, scale)
	if err != nil {
		return row, err
	}
	var machine *vm.VM
	var static *predict.Profile
	var dynamic *predict.DynamicProfile
	tr.call("vm.NewSized + predict.NewProfile", id, func() error {
		machine = vm.NewSized(prog, memWords)
		static = predict.NewProfile(prog)
		dynamic = predict.NewDynamicProfile(prog)
		return nil
	})
	if _, err := tr.call("vm.RunContext profile", id, func() error {
		return machine.RunContext(ctx, func(ev vm.Event) {
			static.Record(ev)
			dynamic.Record(ev)
		})
	}); err != nil {
		return row, fmt.Errorf("%s: %w", b.Name, err)
	}
	var st *limits.Static
	if _, err := tr.call("limits.NewStatic", id, func() (err error) {
		st, err = limits.NewStatic(prog, static.Predictor())
		return err
	}); err != nil {
		return row, fmt.Errorf("%s: %w", b.Name, err)
	}
	analyzers := windowAnalyzers(tr, id, st, len(machine.Mem), harness.WindowSizes)
	resetVM(tr, id, machine)
	if _, err := tr.call("limits.ReplayContext", id, func() error {
		return limits.ReplayContext(ctx, machine.RunContext, analyzers...)
	}); err != nil {
		return row, fmt.Errorf("%s: %w", b.Name, err)
	}
	for i, w := range harness.WindowSizes {
		row.Par[w] = analyzers[i].Result().Parallelism()
	}
	return row, nil
}

// windowAnalyzers builds the window study's SP-CD-MF analyzers as one
// span.
func windowAnalyzers(tr *tracer, parent int, st *limits.Static, words int, sizes []int) []*limits.Analyzer {
	var out []*limits.Analyzer
	tr.call("limits.NewAnalyzerConfig", parent, func() error {
		for _, w := range sizes {
			out = append(out, limits.NewAnalyzerConfig(st, limits.Config{
				Model: limits.SPCDMF, Unrolling: true, MemWords: words, Window: w,
			}))
		}
		return nil
	})
	return out
}

// resetVM rewinds the machine for another run as a span.
func resetVM(tr *tracer, parent int, machine *vm.VM) {
	tr.call("vm.Reset", parent, func() error {
		machine.Reset()
		return nil
	})
}
