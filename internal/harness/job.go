package harness

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"

	"ilplimit/internal/isa"
	"ilplimit/internal/limits"
	"ilplimit/internal/telemetry"
	"ilplimit/internal/trace"
	"ilplimit/internal/vm"
)

// JobSpec describes one analysis job submitted through the service
// front door (cmd/ilplimitd): a program in exactly one input form —
// mini-C source, textual assembly, or an assembly/source pair with a
// pre-recorded v2 trace — analyzed under a model set.  It is the
// single-program sibling of Options, which configures whole-suite runs.
type JobSpec struct {
	// Source is mini-C source text (exclusive with Asm).
	Source string
	// Asm is textual assembly for the study ISA (exclusive with Source).
	Asm string
	// Trace, when non-nil, is a recorded trace file (internal/trace
	// format) replayed through the analyzers instead of executing the
	// program on the VM.  The program (Source or Asm) is still required
	// for the static tables; the trace supplies the dynamic events for
	// both the profiling and the analysis pass.
	Trace []byte
	// Models restricts the analysis (default: all seven).
	Models []limits.Model
	// Optimize runs the post-codegen optimizer before analysis.
	Optimize bool
	// DisableUnrolling turns off the paper's perfect-loop-unrolling
	// transformation (on by default, matching Table 3's main config).
	DisableUnrolling bool
	// MemWords sizes the VM and dependence tables (default 1<<20),
	// grown as the VM grows it to cover the program's data segment.
	MemWords int
	// StepLimit bounds VM execution (default 1<<32); ignored for trace
	// jobs, whose length is fixed by the recording.
	StepLimit int64
	// TraceStore, when non-empty, is a persistent annotated trace store
	// directory (Options.TraceStore): a warm entry for this program and
	// model set replays zero-copy with no VM run, and a cold run writes
	// through.  Trace jobs ignore it — an uploaded recording is not
	// derivable from the program, so caching it under the program's key
	// could serve the wrong events to a later submission.
	TraceStore string
	// Metrics, when non-nil, collects pipeline telemetry for the job.
	Metrics *telemetry.Registry
}

// MatrixRow is one row of the service's model × benchmark parallelism
// matrix: a program (or suite benchmark) name and its per-model
// parallelism keyed by model name.  String keys keep the JSON encoding
// deterministic (maps marshal with sorted keys), which the daemon's
// byte-identical cache and durability guarantees rely on.
type MatrixRow struct {
	// Name identifies the row: a suite benchmark name, or "program" for
	// an ad-hoc submission.
	Name string `json:"name"`
	// Par maps model name ("BASE" … "ORACLE") to parallelism.
	Par map[string]float64 `json:"par"`
}

// JobResult is the outcome of one analysis job: the parallelism matrix
// rows in submission order.
type JobResult struct {
	// Rows holds one entry per analyzed program.
	Rows []MatrixRow `json:"rows"`
}

// ErrBadJob marks a job rejected for its input — no program, both
// program forms at once, a program that does not compile or assemble,
// an undecodable trace, or a trace event the program could not have
// produced.  The daemon maps it to a client error.
var ErrBadJob = errors.New("harness: invalid job")

// modelPar converts a per-model parallelism map to the string-keyed
// form MatrixRow carries.
func modelPar(par map[limits.Model]float64) map[string]float64 {
	out := make(map[string]float64, len(par))
	for m, p := range par {
		out[m.String()] = p
	}
	return out
}

// SuiteMatrix flattens a suite result into the service's matrix rows,
// one per surviving benchmark in suite order.
func SuiteMatrix(s *SuiteResult) *JobResult {
	jr := &JobResult{}
	for i := range s.Benchmarks {
		b := &s.Benchmarks[i]
		jr.Rows = append(jr.Rows, MatrixRow{Name: b.Name, Par: modelPar(b.Par)})
	}
	return jr
}

// AnalyzeJob runs one service job: compile (or assemble), profile,
// and schedule the program's trace under the requested models,
// returning its matrix row.  Analyzer panics are converted to errors
// exactly like a suite benchmark's (the job is the isolation unit), and
// the model-ordering invariant is enforced before results are reported.
func AnalyzeJob(ctx context.Context, spec JobSpec) (*JobResult, error) {
	rs, err := Measure(ctx, spec)
	if err != nil {
		return nil, err
	}
	return &JobResult{Rows: []MatrixRow{{Name: "program", Par: modelPar(modelParallelism(rs))}}}, nil
}

// Measure runs one job's pipeline and returns every requested model's
// result in model order — AnalyzeJob's analysis, and the library's
// Measure.  A warm trace-store hit serves it without a VM pass.
func Measure(ctx context.Context, spec JobSpec) ([]limits.Result, error) {
	switch {
	case spec.Source != "" && spec.Asm != "":
		return nil, fmt.Errorf("%w: both source and assembly supplied", ErrBadJob)
	case spec.Source == "" && spec.Asm == "":
		return nil, fmt.Errorf("%w: no program supplied", ErrBadJob)
	}
	opt := Options{
		Context: ctx, MemWords: spec.MemWords, Models: spec.Models, Optimize: spec.Optimize,
		StepLimit: spec.StepLimit, Metrics: spec.Metrics, TraceStore: spec.TraceStore,
	}.withDefaults()
	out, err := runPass(opt, pass{
		name: "job", source: spec.Source, asm: spec.Asm, trace: spec.Trace, untrusted: true,
		lanes: []lane{paperLane(opt.Models, !spec.DisableUnrolling)},
	})
	if err != nil {
		return nil, err
	}
	return out.results[0], nil
}

// replayTrace streams a recorded trace file through visit, polling the
// context every 4096 events (the VM's cadence) so a deadline or cancel
// aborts a long replay promptly with an error wrapping vm.ErrCanceled.
// An event the program could not have produced — an instruction index
// outside it, an address beyond the 32-bit chunk lanes, or a load or
// store outside its memWords of memory — is rejected as ErrBadJob.
func replayTrace(ctx context.Context, data []byte, prog *isa.Program, memWords int, visit func(vm.Event)) error {
	tr, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadJob, err)
	}
	done := ctx.Done()
	for n := int64(0); ; n++ {
		if n&4095 == 0 && done != nil {
			select {
			case <-done:
				return fmt.Errorf("trace replay: %w (%v)", vm.ErrCanceled, ctx.Err())
			default:
			}
		}
		ev, err := tr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("%w: %v", ErrBadJob, err)
		}
		if ev.Idx < 0 || int(ev.Idx) >= len(prog.Instrs) {
			return fmt.Errorf("%w: event %d: instruction %d outside the %d-instruction program",
				ErrBadJob, n, ev.Idx, len(prog.Instrs))
		}
		op := prog.Instrs[ev.Idx].Op
		if ev.Addr < 0 || ev.Addr > math.MaxUint32 ||
			(op.IsLoad() || op.IsStore()) && ev.Addr >= int64(memWords) {
			return fmt.Errorf("%w: event %d: address %d outside the %d-word memory",
				ErrBadJob, n, ev.Addr, memWords)
		}
		visit(ev)
	}
}
