package harness

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/debug"
	"strings"

	"ilplimit/internal/asm"
	"ilplimit/internal/bench"
	"ilplimit/internal/faultinject"
	"ilplimit/internal/iofault"
	"ilplimit/internal/isa"
	"ilplimit/internal/limits"
	"ilplimit/internal/minic"
	optimizer "ilplimit/internal/opt"
	"ilplimit/internal/predict"
	"ilplimit/internal/telemetry"
	"ilplimit/internal/trace"
	"ilplimit/internal/tracestore"
	"ilplimit/internal/vm"
)

// The analysis pipeline (DESIGN.md §7).  Every entry point —
// RunBenchmark, Measure and AnalyzeJob, and the seven studies — is one
// or more calls of runPass, which compiles a program, profiles its
// branches with the measurement input (paper §2.1), and schedules one
// replay of its trace through the caller's analyzers.  The trace store
// is consulted and populated here and nowhere else; its contract is that
// it can only change a pass's cost: a warm hit rebuilds byte-identical
// results from the stored annotated chunks plus the profileStats
// sidecar, and every store problem (miss, torn file, CRC or fingerprint
// skew, a sidecar lacking a statistic, a replay panic) falls back to the
// live producer.

// benchStartHook, when non-nil, runs at the top of every pass; a non-nil
// error (or a panic) aborts that pass only.  It exists so resilience
// tests can fault one benchmark of a suite deterministically, and stays
// nil in production.
var benchStartHook func(name string) error

// analyzeHooks, when non-nil, installs fault-injection hooks into every
// pass's analysis replay.  Resilience tests use it to seed
// analyzer-level faults — stalls, starved consumers that violate the
// model-ordering invariant — through internal/faultinject; it stays nil
// in production.
var analyzeHooks *limits.ReplayHooks

// A lane is one branch predictor's share of a pass: one Static annotated
// with that predictor, and the analyzers scheduled under it.
type lane struct {
	// predictor names the oracle: "profile" (the paper's static
	// prediction from the profile pass), "dynamic" (a 2-bit counter
	// trained on the same pass) or "btfn".
	predictor string
	// configs lists the lane's analyzers; runPass fills in MemWords.
	configs []limits.Config
}

// A pass is one trip through the pipeline for one program.
type pass struct {
	// name labels the pass: the trace-store key's bench name, and the
	// prefix of its log lines and errors.
	name string
	// source is mini-C source, compiled with if-conversion when
	// ifConvert is set; asm is assembly, used when source is empty.
	source, asm string
	ifConvert   bool
	// trace, when non-nil, is a recorded trace that stands in for the VM
	// on both passes.  It bypasses the store: an uploaded recording is
	// not derivable from the program, so it must never be cached under
	// the program's key.
	trace []byte
	// untrusted marks client-supplied input: compile, assemble, optimize
	// and static-analysis failures wrap ErrBadJob.
	untrusted bool
	lanes     []lane
}

// profileStats is what the profile pass measures, and the sidecar
// committed beside every stored trace so a warm hit can skip both VM
// passes.  Floats survive the JSON round trip exactly (shortest-form
// encoding), so warm and live results stay byte-identical.
type profileStats struct {
	// PredictionRate is the profile predictor's hit rate (Table 2).
	PredictionRate float64
	// DynamicRate is the 2-bit dynamic predictor's hit rate, present
	// only when the pass trained it.
	DynamicRate *float64 `json:",omitempty"`
	// TraceInstructions counts filtered trace instructions.
	TraceInstructions int64
	// DynamicCondBr counts filtered conditional branches.
	DynamicCondBr int64
	// Steps counts the dynamic instructions executed.
	Steps int64
}

// outcome is what a pass measured: the profile statistics and every
// analyzer's result, indexed like pass.lanes and their configs.
type outcome struct {
	prog    *isa.Program
	stats   profileStats
	results [][]limits.Result
}

// cachedOracle is the warm path's placeholder predictor: every
// speculative analyzer resolves mispredictions from the lane bit the
// producing replay stamped into the trace, so any live query means the
// lane assignment went wrong — panic (recovered into a live-run
// fallback) rather than silently mispredict.
type cachedOracle struct{ name string }

// Mispredicted always panics; see cachedOracle.
func (o cachedOracle) Mispredicted(vm.Event) bool {
	panic("harness: cached replay for " + o.name + " queried the predictor (lane annotation missing)")
}

// errorf formats an error under the pass's name.
func (p *pass) errorf(format string, args ...interface{}) error {
	return fmt.Errorf("%s: "+format, append([]interface{}{p.name}, args...)...)
}

// inputErr reports a failure to build the program or its static tables:
// a client error for untrusted input, the pass's own otherwise.
func (p *pass) inputErr(err error) error {
	if p.untrusted {
		return p.errorf("%w: %v", ErrBadJob, err)
	}
	return p.errorf("%w", err)
}

// uses reports whether any lane resolves mispredictions with predictor.
func (p *pass) uses(predictor string) bool {
	for _, l := range p.lanes {
		if l.predictor == predictor {
			return true
		}
	}
	return false
}

// runPass runs p under opt, which must carry its defaults; opt.Metrics
// is the pass's telemetry scope, used as is.  This is the pipeline's
// panic-isolation boundary: a panic anywhere below — compile, profile,
// an analyzer worker — comes back as an error carrying the faulting
// stack.
func runPass(opt Options, p pass) (out *outcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			out = nil
			if pe, ok := r.(*limits.PanicError); ok {
				// An analyzer worker panicked; the replay preserved the
				// stack of the faulting goroutine.
				err = p.errorf("%w\n%s", pe, pe.Stack)
				return
			}
			err = p.errorf("panic: %v\n%s", r, debug.Stack())
		}
	}()
	if benchStartHook != nil {
		if err := benchStartHook(p.name); err != nil {
			return nil, p.errorf("%w", err)
		}
	}
	ctx := opt.ctx()
	scope := opt.Metrics
	logf := func(format string, args ...interface{}) {
		if opt.Progress != nil {
			fmt.Fprintf(opt.Progress, "[%s] "+format+"\n", append([]interface{}{p.name}, args...)...)
		}
	}
	defer stageTimer(scope, "wall")()

	logf("compiling")
	compileDone := stageTimer(scope, "compile")
	text := p.asm
	if p.source != "" {
		text, err = minic.CompileOpts(p.source, minic.Options{IfConvert: p.ifConvert})
	}
	var prog *isa.Program
	if err == nil {
		prog, err = asm.Assemble(text)
	}
	compileDone()
	if err != nil {
		return nil, p.inputErr(err)
	}
	if opt.Optimize {
		logf("optimizing")
		optDone := stageTimer(scope, "optimize")
		or, err := optimizer.Optimize(prog)
		optDone()
		if err != nil {
			return nil, p.inputErr(err)
		}
		prog = or.Program
	}
	// The VM grows memory to cover the data segment; the analyzers'
	// dependence tables must cover the same words, live or warm.
	memWords := opt.MemWords
	if min := int(isa.DataBase) + len(prog.Data) + 1; memWords < min {
		memWords = min
	}

	// An injected fault plan arms the VM trap on both passes and its
	// replay faults on the analysis fan-out.
	var faultPlan *faultinject.Plan
	if opt.Faults != nil {
		faultPlan = opt.Faults(p.name)
	}
	hooks := analyzeHooks
	if faultPlan != nil {
		if h := faultPlan.Hooks(); h != nil {
			hooks = h
		}
	}

	// Warm trace store: a committed annotated trace for this exact
	// (program, predictor lanes) fingerprint replays straight from disk,
	// both VM passes skipped.  Any store problem falls through to the
	// live pipeline below; only cancellation aborts.
	var store *tracestore.Store
	if opt.TraceStore != "" && p.trace == nil {
		if store, err = tracestore.Open(iofault.OS(), opt.TraceStore); err != nil {
			scope.Counter("store.populate_errors").Inc()
			logf("trace cache: %v; running uncached", err)
			store = nil
		} else if out, err := p.warm(ctx, store, prog, memWords, scope, logf); err != nil || out != nil {
			return out, err
		}
	}

	// The producer: the VM, or the uploaded recording.
	var run limits.RunFunc
	var machine *vm.VM
	if p.trace != nil {
		run = func(ctx context.Context, visit func(vm.Event)) error {
			return replayTrace(ctx, p.trace, prog, memWords, visit)
		}
	} else {
		machine = vm.NewSized(prog, memWords)
		defer machine.Release()
		machine.StepLimit = opt.StepLimit
		machine.Metrics = scope.WithPrefix("vm.profile.")
		if faultPlan != nil {
			machine.StepHook = faultPlan.StepHook()
		}
		run = machine.RunContext
	}

	// Profile pass: branch statistics with the measurement input, and
	// the dynamic predictor's training when a lane asks for it.
	logf("profiling")
	profileDone := stageTimer(scope, "profile")
	prof := predict.NewProfile(prog)
	var dyn *predict.DynamicProfile
	if p.uses("dynamic") {
		dyn = predict.NewDynamicProfile(prog)
	}
	filter := trace.NewFilter(prog, nil)
	var stats profileStats
	err = run(ctx, func(ev vm.Event) {
		stats.Steps++
		prof.Record(ev)
		if dyn != nil {
			dyn.Record(ev)
		}
		if !filter.Ignored(ev.Idx) {
			stats.TraceInstructions++
			if prog.Instrs[ev.Idx].Op.IsCondBranch() {
				stats.DynamicCondBr++
			}
		}
	})
	profileDone()
	if err != nil {
		return nil, p.errorf("profile run: %w", err)
	}
	stats.PredictionRate = prof.Stats().Rate()
	if dyn != nil {
		rate := dyn.Stats().Rate()
		stats.DynamicRate = &rate
	}

	// The static stage: CFG/RDF construction plus the fused
	// per-instruction metadata every analyzer and the annotation pass
	// consume (see limits/predecode.go), once per lane.
	staticDone := stageTimer(scope, "static")
	all, st, err := p.analyzers(prog, memWords, func(predictor string) predict.Oracle {
		switch predictor {
		case "dynamic":
			return dyn.Outcomes()
		case "btfn":
			return predict.BTFN(prog)
		}
		return prof.Predictor()
	})
	staticDone()
	if err != nil {
		return nil, p.inputErr(err)
	}

	// Cold write-through: spill the annotated chunk stream into the
	// store while the analyzers consume it.  Skipped under injected
	// faults — a mutated chunk must never be committed as a clean trace.
	var pop *tracestore.Populate
	var sink limits.ChunkSink
	if store != nil && faultPlan == nil && analyzeHooks == nil {
		meta, _ := json.Marshal(stats)
		pop, err = store.BeginPopulate(p.storeKey(prog, st, all), meta)
		if err != nil {
			// The pass must never fail because its cache could not be
			// written.
			scope.Counter("store.populate_errors").Inc()
			logf("trace cache: %v; not populating", err)
			pop = nil
		} else {
			// Abort is a no-op once committed: this drops the temp file
			// on every path that does not commit, a replay panic included.
			defer pop.Abort()
			sink = pop.Sink()
		}
	}

	// Analysis pass: one replay annotates each event once and fans the
	// chunks out to every analyzer of every lane.
	logf("analyzing %d configurations over %d instructions", len(all), stats.Steps)
	if machine != nil {
		machine.Reset()
		machine.Metrics = scope.WithPrefix("vm.analysis.")
	}
	analyzeDone := stageTimer(scope, "analyze")
	err = limits.ReplayWith(ctx, limits.ReplayOptions{Metrics: scope, Hooks: hooks, Sink: sink}, run, all...)
	analyzeDone()
	if err != nil {
		return nil, p.errorf("analysis run: %w", err)
	}
	out = &outcome{prog: prog, stats: stats, results: p.results(all)}
	// A weaker model outperforming a strictly stronger one means the
	// analysis itself is broken (corrupted replay, starved analyzer);
	// refuse to report the numbers, or to keep the trace.
	if viol := p.ordering(out.results); len(viol) > 0 {
		return nil, p.errorf("%w", &limits.InvariantError{Violations: viol})
	}
	if pop != nil {
		if err := pop.Commit(); err != nil {
			// A failed commit costs the cache entry, never the pass.
			scope.Counter("store.populate_errors").Inc()
			logf("trace cache: populate failed: %v (continuing)", err)
		} else {
			scope.Counter("store.populates").Inc()
			logf("trace cache: stored %d annotated events", pop.Events())
		}
	}
	return out, nil
}

// warm serves p from the trace store.  It returns (nil, nil) when the
// pass must run live — miss, corrupt or skewed file, a sidecar lacking
// a statistic, an ordering violation, or a recovered replay panic —
// (out, nil) on a hit, and a non-nil error only for failures that must
// not fall back (cancellation).
func (p *pass) warm(ctx context.Context, store *tracestore.Store, prog *isa.Program, memWords int,
	scope *telemetry.Registry, logf func(string, ...interface{})) (out *outcome, err error) {
	fallback := func(format string, args ...interface{}) (*outcome, error) {
		scope.Counter("store.fallbacks").Inc()
		logf("trace cache: "+format+"; running live", args...)
		return nil, nil
	}
	defer func() {
		if r := recover(); r != nil {
			out, err = fallback("replay panic (%v)", r)
		}
	}()
	staticDone := stageTimer(scope, "static")
	all, st, err := p.analyzers(prog, memWords, func(string) predict.Oracle { return cachedOracle{p.name} })
	staticDone()
	if err != nil {
		// The live path fails identically; let it produce the error.
		return nil, nil
	}
	rep, err := store.Open(p.storeKey(prog, st, all))
	if errors.Is(err, tracestore.ErrMiss) {
		scope.Counter("store.misses").Inc()
		logf("trace cache: miss; tracing live")
		return nil, nil
	} else if err != nil {
		return fallback("%v", err)
	}
	defer rep.Close()
	stats, err := decodeStats(rep.Meta(), p.uses("dynamic"))
	if err != nil {
		return fallback("bad sidecar (%v)", err)
	}
	logf("analyzing %d configurations over %d instructions (cached trace, %d frames)",
		len(all), stats.Steps, rep.Frames())
	replayDone := stageTimer(scope, "cached_replay")
	err = rep.Run(ctx, all...)
	replayDone()
	if err != nil {
		// Every frame was CRC-validated at Open, so a mid-replay error is
		// the caller's own — cancellation — and aborts like a live run.
		return nil, p.errorf("analysis run: %w", err)
	}
	out = &outcome{prog: prog, stats: stats, results: p.results(all)}
	if viol := p.ordering(out.results); len(viol) > 0 {
		// A CRC-valid trace that schedules inconsistently is not
		// trustworthy; the live run rebuilds fresh analyzers and either
		// succeeds or fails honestly.
		return fallback("cached replay violated model ordering")
	}
	scope.Counter("store.hits").Inc()
	return out, nil
}

// decodeStats parses a stored sidecar, refusing one that lacks a
// statistic the pass reports: a missing field must cost a live run,
// never read as zero.
func decodeStats(raw []byte, dynamic bool) (profileStats, error) {
	var stats profileStats
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fields); err != nil {
		return stats, err
	}
	need := []string{"PredictionRate", "TraceInstructions", "DynamicCondBr", "Steps"}
	if dynamic {
		need = append(need, "DynamicRate")
	}
	for _, f := range need {
		if _, ok := fields[f]; !ok {
			return stats, fmt.Errorf("no %s", f)
		}
	}
	return stats, json.Unmarshal(raw, &stats)
}

// analyzers builds one Static per lane, annotated with
// oracle(lane.predictor), and every lane's analyzers in lane order.  It
// also returns the first lane's Static, whose annotation fingerprint
// keys the store (the fingerprint excludes the predictor).
func (p *pass) analyzers(prog *isa.Program, memWords int, oracle func(string) predict.Oracle) ([]*limits.Analyzer, *limits.Static, error) {
	var all []*limits.Analyzer
	var first *limits.Static
	for _, l := range p.lanes {
		st, err := limits.NewStatic(prog, oracle(l.predictor))
		if err != nil {
			return nil, nil, err
		}
		if first == nil {
			first = st
		}
		for _, c := range l.configs {
			c.MemWords = memWords
			all = append(all, limits.NewAnalyzerConfig(st, c))
		}
	}
	return all, first, nil
}

// storeKey is the pass's trace-store key.  A trace is a property of
// (program, annotation, predictor lanes), not of which analyzers consume
// it, so the suite and every study over one benchmark share an entry,
// and two job submissions of one program share one whatever models they
// request.
func (p *pass) storeKey(prog *isa.Program, st *limits.Static, all []*limits.Analyzer) tracestore.Key {
	predictors := make([]string, len(p.lanes))
	for i, l := range p.lanes {
		predictors[i] = l.predictor
	}
	return tracestore.Key{
		Bench:      p.name,
		ProgramCRC: tracestore.ProgramCRC(prog),
		Annotation: st.AnnotationFingerprint(),
		Predictors: strings.Join(predictors, ","),
		Lanes:      limits.AssignReplayLanes(all...),
	}
}

// results collects the analyzers' results, indexed like p.lanes.
func (p *pass) results(all []*limits.Analyzer) [][]limits.Result {
	out := make([][]limits.Result, len(p.lanes))
	for i, l := range p.lanes {
		for range l.configs {
			out[i] = append(out[i], all[0].Result())
			all = all[1:]
		}
	}
	return out
}

// ordering checks the model-ordering invariant within each lane, per
// unroll configuration, over the analyzers that run the paper's
// machines (unbounded window, unit latency).
func (p *pass) ordering(results [][]limits.Result) []limits.InvariantViolation {
	var viol []limits.InvariantViolation
	for i, l := range p.lanes {
		for _, unrolled := range []bool{true, false} {
			par := make(map[limits.Model]float64)
			for j, c := range l.configs {
				if c.Unrolling == unrolled && c.Window == 0 && c.Latency == nil {
					par[c.Model] = results[i][j].Parallelism()
				}
			}
			viol = append(viol, limits.CheckOrdering(par, unrolled)...)
		}
	}
	return viol
}

// benchPass runs one suite benchmark's pass under the benchmark's
// telemetry scope ("bench.<name>.").
func benchPass(opt Options, b bench.Benchmark, ifConvert bool, lanes ...lane) (*outcome, error) {
	o := opt
	o.Metrics = opt.Metrics.WithPrefix("bench." + b.Name + ".")
	return runPass(o, pass{name: b.Name, source: b.Source(opt.Scale), ifConvert: ifConvert, lanes: lanes})
}

// paperLane is the profile lane of the paper's machines: for each entry
// of unrolled in turn, every model with (true) or without (false)
// perfect unrolling.
func paperLane(models []limits.Model, unrolled ...bool) lane {
	l := lane{predictor: "profile"}
	for _, u := range unrolled {
		for _, m := range models {
			l.configs = append(l.configs, limits.Config{Model: m, Unrolling: u})
		}
	}
	return l
}
