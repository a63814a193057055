package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"time"

	"ilplimit/internal/bench"
	"ilplimit/internal/harness"
	"ilplimit/internal/iofault"
	"ilplimit/internal/isa"
	"ilplimit/internal/limits"
	"ilplimit/internal/predict"
	"ilplimit/internal/telemetry"
	"ilplimit/internal/tracestore"
	"ilplimit/internal/vm"
)

// benchLayers is one benchmark's serial cost in each layer, measured by
// calling the layer's public functions one at a time.
type benchLayers struct {
	events                             int64
	compile, assemble, vmNoop, profile time.Duration
	static, annotate                   time.Duration
	step                               [2][]time.Duration // [0] unrolled, [1] plain; model order
	window                             time.Duration      // all bounded-window analyzers
	windows                            int
	write, commit, open                time.Duration
	bytes                              int64
	serialReplay, replay               time.Duration
	producerStalls, consumerStalls     int64
}

// boundedWindows are the window study's sizes that take the generic
// StepAnnotated path (every size but the unbounded one).
func boundedWindows() []int {
	var out []int
	for _, w := range harness.WindowSizes {
		if w != 0 {
			out = append(out, w)
		}
	}
	return out
}

// layerPass measures every layer on each of the workload's benchmarks,
// one call at a time, as spans under one root.  Results of every
// analysis are checked against the recorded ones.
func layerPass(ctx context.Context, tr *tracer, w *workload, storeDir string) (int, []benchLayers, error) {
	root := tr.begin("layers", 0)
	defer tr.end(root)
	var out []benchLayers
	for _, b := range w.benches {
		l, err := measureBench(ctx, tr, root, w, b, storeDir)
		if err != nil {
			return root, out, fmt.Errorf("%s: %w", b.Name, err)
		}
		out = append(out, l)
	}
	return root, out, nil
}

func measureBench(ctx context.Context, tr *tracer, parent int, w *workload, b bench.Benchmark,
	storeDir string) (benchLayers, error) {
	var l benchLayers
	id := tr.begin(benchSpan(b.Name), parent)
	defer tr.end(id)
	want, haveWant := w.suiteWant[b.Name]

	prog, compile, assemble, err := compileTraced(tr, id, b, w.scale)
	if err != nil {
		return l, err
	}
	l.compile, l.assemble = compile, assemble

	var machine *vm.VM
	tr.call("vm.NewSized", id, func() error {
		machine = vm.NewSized(prog, memWords)
		return nil
	})
	if l.vmNoop, err = tr.call("vm.RunContext no-op", id, func() error {
		return machine.RunContext(ctx, func(vm.Event) {})
	}); err != nil {
		return l, err
	}
	l.events = machine.Steps
	resetVM(tr, id, machine)
	var prof *predict.Profile
	tr.call("predict.NewProfile", id, func() error {
		prof = predict.NewProfile(prog)
		return nil
	})
	if l.profile, err = tr.call("vm.RunContext profile", id, func() error {
		return machine.RunContext(ctx, prof.Record)
	}); err != nil {
		return l, err
	}
	var st *limits.Static
	if l.static, err = tr.call("limits.NewStatic", id, func() (err error) {
		st, err = limits.NewStatic(prog, prof.Predictor())
		return err
	}); err != nil {
		return l, err
	}

	// Annotate the trace once into captured chunks, timing only the
	// annotation and chunk building, not the VM feeding it.
	unrolled, plain, all := analyzerGroups(tr, id, st, len(machine.Mem))
	resetVM(tr, id, machine)
	var chunks []*limits.Chunk
	var an *limits.Annotator
	if _, err = tr.call("vm.RunContext + limits.Annotator.Annotate", id, func() error {
		an = limits.NewAnnotator(all...)
		chunks, l.annotate, err = capture(ctx, machine, an)
		return err
	}); err != nil {
		return l, err
	}

	// Each generated stepper on its own over the captured chunks.
	for u, g := range []*limits.Group{unrolled, plain} {
		for _, a := range g.Analyzers {
			d, _ := tr.call("limits.Analyzer.StepChunk "+stepLabel(a.Model(), u == 0), id, func() error {
				for _, c := range chunks {
					a.StepChunk(c)
				}
				return nil
			})
			l.step[u] = append(l.step[u], d)
		}
	}
	if haveWant {
		if err := samePar(want, unrolled, plain, "StepChunk"); err != nil {
			return l, err
		}
	}

	// The generic path: the window study's bounded-window analyzers.
	wins := boundedWindows()
	winAnalyzers := windowAnalyzers(tr, id, st, len(machine.Mem), wins)
	limits.AssignReplayLanes(winAnalyzers...)
	l.windows = len(wins)
	l.window, _ = tr.call("limits.Analyzer.StepChunk window", id, func() error {
		for _, a := range winAnalyzers {
			for _, c := range chunks {
				a.StepChunk(c)
			}
		}
		return nil
	})
	if ww, ok := w.windowWant[b.Name]; ok {
		for i, size := range wins {
			if got := winAnalyzers[i].Result().Parallelism(); got != ww.Par[size] {
				return l, fmt.Errorf("window %d: Par %v, recorded %v", size, got, ww.Par[size])
			}
		}
	}

	if err := measureStore(tr, id, b, prog, st, an.Lanes(), chunks, storeDir, &l); err != nil {
		return l, err
	}
	chunks = nil

	// The serial and fanned-out replays of the same analysis.
	unrolled, plain, all = analyzerGroups(tr, id, st, len(machine.Mem))
	resetVM(tr, id, machine)
	if l.serialReplay, err = tr.call("limits.SerialReplayWith", id, func() error {
		return limits.SerialReplayWith(ctx, nil, machine.RunContext, all...)
	}); err != nil {
		return l, err
	}
	if haveWant {
		if err := samePar(want, unrolled, plain, "SerialReplayWith"); err != nil {
			return l, err
		}
	}
	unrolled, plain, all = analyzerGroups(tr, id, st, len(machine.Mem))
	resetVM(tr, id, machine)
	reg := telemetry.NewRegistry()
	if l.replay, err = tr.call("limits.ReplayWith", id, func() error {
		return limits.ReplayWith(ctx, limits.ReplayOptions{Metrics: reg}, machine.RunContext, all...)
	}); err != nil {
		return l, err
	}
	if haveWant {
		if err := samePar(want, unrolled, plain, "ReplayWith"); err != nil {
			return l, err
		}
	}
	l.producerStalls = reg.Counter("ring.producer_stalls").Load()
	l.consumerStalls = reg.Counter("ring.consumer_stalls").Load()
	return l, nil
}

func stepLabel(m limits.Model, unrolled bool) string {
	if unrolled {
		return m.String() + ".unrolled"
	}
	return m.String() + ".plain"
}

func samePar(want suiteExpect, unrolled, plain *limits.Group, via string) error {
	par, parNo := groupPar(unrolled, plain)
	if !reflect.DeepEqual(par, want.Par) || !reflect.DeepEqual(parNo, want.ParNoUnroll) {
		return fmt.Errorf("%s: Par %v / %v, recorded %v / %v", via, par, parNo, want.Par, want.ParNoUnroll)
	}
	return nil
}

// capture runs the VM and annotates its events into columnar chunks
// the way a replay's producer does, returning the chunks and the time
// spent annotating and appending (the VM's own time excluded).
func capture(ctx context.Context, machine *vm.VM, an *limits.Annotator) ([]*limits.Chunk, time.Duration, error) {
	var (
		chunks []*limits.Chunk
		spent  time.Duration
		buf    = make([]vm.Event, 0, limits.ChunkEvents)
	)
	flush := func() {
		c := limits.NewChunk(len(buf))
		t := time.Now()
		for _, ev := range buf {
			c.Append(an.Annotate(ev))
		}
		spent += time.Since(t)
		chunks = append(chunks, c)
		buf = buf[:0]
	}
	err := machine.RunContext(ctx, func(ev vm.Event) {
		buf = append(buf, ev)
		if len(buf) == cap(buf) {
			flush()
		}
	})
	if len(buf) > 0 {
		flush()
	}
	return chunks, spent, err
}

// measureStore writes the captured trace to a scratch store, commits
// it, opens it (which validates every frame) and removes it.
func measureStore(tr *tracer, parent int, b bench.Benchmark, prog *isa.Program, st *limits.Static,
	lanes int, chunks []*limits.Chunk, dir string, l *benchLayers) error {
	key := tracestore.Key{
		Bench: b.Name, ProgramCRC: tracestore.ProgramCRC(prog),
		Annotation: st.AnnotationFingerprint(), Predictors: "perfbench", Lanes: lanes,
	}
	var store *tracestore.Store
	var pop *tracestore.Populate
	if _, err := tr.call("tracestore.Open + Store.BeginPopulate", parent, func() (err error) {
		if store, err = tracestore.Open(iofault.OS(), dir); err == nil {
			pop, err = store.BeginPopulate(key, nil)
		}
		return err
	}); err != nil {
		return err
	}
	sink := pop.Sink()
	var err error
	l.write, err = tr.call("tracestore.Populate.Sink", parent, func() error {
		for _, c := range chunks {
			if err := sink(c); err != nil {
				return err
			}
		}
		return sink(nil)
	})
	if err != nil {
		pop.Abort()
		return err
	}
	if l.commit, err = tr.call("tracestore.Populate.Commit", parent, pop.Commit); err != nil {
		return err
	}
	path := store.Path(key)
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	l.bytes = info.Size()
	var rep *tracestore.Replay
	if l.open, err = tr.call("tracestore.Store.Open", parent, func() (err error) {
		rep, err = store.Open(key)
		return err
	}); err != nil {
		os.Remove(path)
		return err
	}
	events := rep.Events()
	_, err = tr.call("tracestore.Replay.Close + remove entry", parent, func() error {
		return errors.Join(rep.Close(), os.Remove(path))
	})
	if err == nil && events != l.events {
		err = fmt.Errorf("store holds %d events, trace has %d", events, l.events)
	}
	return err
}
