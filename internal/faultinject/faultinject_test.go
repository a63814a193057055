package faultinject

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"ilplimit/internal/asm"
	"ilplimit/internal/limits"
	"ilplimit/internal/predict"
	"ilplimit/internal/telemetry"
	"ilplimit/internal/vm"
)

// testProgram mixes loops, branches, memory traffic and calls, and runs
// long enough (~280k events) to fill every ring slot several times over,
// so chunk-level faults land in a pipeline that is genuinely streaming.
const testProgram = `
.data
buf: .space 256
.proc main
	li   $s0, 2000
outer:
	li   $a0, 0
	jal  body
	addi $s0, $s0, -1
	bnez $s0, outer
	halt
.endproc
.proc body
	la   $t0, buf
	li   $t1, 0
loop:
	andi $t2, $t1, 255
	add  $t3, $t0, $t2
	lw   $t4, 0($t3)
	addi $t4, $t4, 1
	sw   $t4, 0($t3)
	addi $t1, $t1, 1
	li   $t5, 16
	blt  $t1, $t5, loop
	ret
.endproc
`

// fixture is a profiled machine plus its static tables, reset and ready
// for an analysis run.
type fixture struct {
	machine   *vm.VM
	static    *limits.Static
	fullSteps int64
}

func build(t *testing.T) *fixture {
	t.Helper()
	p, err := asm.Assemble(testProgram)
	if err != nil {
		t.Fatal(err)
	}
	machine := vm.NewSized(p, 1<<12)
	prof := predict.NewProfile(p)
	if err := machine.Run(prof.Record); err != nil {
		t.Fatal(err)
	}
	st, err := limits.NewStatic(p, prof.Predictor())
	if err != nil {
		t.Fatal(err)
	}
	full := machine.Steps
	machine.Reset()
	return &fixture{machine: machine, static: st, fullSteps: full}
}

// analyzers builds n analyzers cycling through every machine model,
// speculative models first: their schedules hinge on each branch's
// predicted outcome, so even a lone analyzer observes a corrupted
// branch.  Unrolling stays off so loop back-edges reach the analyzers —
// perfect unrolling would hide a corrupted branch event from every model.
func (f *fixture) analyzers(n int) []*limits.Analyzer {
	all := limits.AllModels()
	models := append(all[3:], all[:3]...) // SP, SP-CD, SP-CD-MF, ORACLE, BASE, CD, CD-MF
	as := make([]*limits.Analyzer, n)
	for i := range as {
		as[i] = limits.NewAnalyzer(f.static, models[i%len(models)], false, len(f.machine.Mem))
	}
	return as
}

// serialResults computes reference results for the same analyzer
// configuration on the single-goroutine path, leaving the machine reset.
func (f *fixture) serialResults(t *testing.T, n int) []limits.Result {
	t.Helper()
	as := f.analyzers(n)
	f.machine.Reset()
	err := f.machine.Run(func(ev vm.Event) {
		for _, a := range as {
			a.Step(ev)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	f.machine.Reset()
	out := make([]limits.Result, n)
	for i, a := range as {
		out[i] = a.Result()
	}
	return out
}

func TestTrapAtStepAborts(t *testing.T) {
	f := build(t)
	plan := &Plan{TrapAtStep: 20_000}
	f.machine.StepHook = plan.StepHook()
	as := f.analyzers(4)
	err := limits.ReplayContext(context.Background(), f.machine.RunContext, as...)
	if !errors.Is(err, ErrInjectedTrap) {
		t.Fatalf("Replay error = %v, want ErrInjectedTrap", err)
	}
	if trapped, _, _, _ := plan.Fired(); trapped == 0 {
		t.Fatal("trap never fired")
	}
	if f.machine.Steps >= f.fullSteps {
		t.Fatalf("machine ran to completion (%d steps) despite trap", f.machine.Steps)
	}
}

// analyzerCounts are the replay widths every hook-plan test runs at: one
// analyzer steps inline on the producer's goroutine, three fan out
// through the ring.  Both reach the same chunk-level hooks.  Each test
// aims its consumer fault at the last analyzer, n-1.
var analyzerCounts = []int{1, 3}

// replay runs the fixture's trace through as under plan's hooks and,
// when m is non-nil, ring telemetry.
func (f *fixture) replay(ctx context.Context, hooks *limits.ReplayHooks, m *telemetry.Registry, as []*limits.Analyzer) error {
	f.machine.Reset()
	return limits.ReplayWith(ctx, limits.ReplayOptions{Metrics: m, Hooks: hooks}, f.machine.RunContext, as...)
}

func TestConsumerPanicDetachesAndRethrows(t *testing.T) {
	f := build(t)
	for _, n := range analyzerCounts {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			ref := f.serialResults(t, n)
			plan := &Plan{PanicConsumer: n - 1, PanicAtSeq: limits.ChunkEvents*3 + 17}
			as := f.analyzers(n)

			var p interface{}
			func() {
				defer func() { p = recover() }()
				_ = f.replay(context.Background(), plan.Hooks(), nil, as)
			}()
			if p == nil {
				t.Fatal("planned consumer panic never surfaced from the replay")
			}
			if _, panicked, _, _ := plan.Fired(); panicked != 1 {
				t.Fatalf("panic fired %d times, want 1", panicked)
			}
			if n == 1 {
				// The inline loop panics on the caller's goroutine,
				// which already holds the faulting stack.
				return
			}
			pe, ok := p.(*limits.PanicError)
			if !ok {
				t.Fatalf("panic value is %T, want *limits.PanicError", p)
			}
			if len(pe.Stack) == 0 {
				t.Error("PanicError carries no stack trace")
			}
			// The panicking consumer was detached, so every other
			// consumer must have drained the full trace and match the
			// serial reference.
			for i, a := range as {
				if i != plan.PanicConsumer && !reflect.DeepEqual(a.Result(), ref[i]) {
					t.Errorf("surviving analyzer %d diverged from serial reference", i)
				}
			}
		})
	}
}

func TestStalledConsumerFlowControlRecovers(t *testing.T) {
	f := build(t)
	for _, n := range analyzerCounts {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			ref := f.serialResults(t, n)
			plan := &Plan{
				StallConsumer: n - 1,
				StallAtSeq:    limits.ChunkEvents + 3,
				StallFor:      150 * time.Millisecond,
			}
			as := f.analyzers(n)
			start := time.Now()
			if err := f.replay(context.Background(), plan.Hooks(), nil, as); err != nil {
				t.Fatal(err)
			}
			if elapsed := time.Since(start); elapsed < plan.StallFor {
				t.Fatalf("replay finished in %v, before the %v stall elapsed", elapsed, plan.StallFor)
			}
			if _, _, _, stalled := plan.Fired(); stalled != 1 {
				t.Fatalf("stall fired %d times, want 1", stalled)
			}
			// Flow control blocked the producer while the consumer
			// slept; once it woke, no events were lost or reordered.
			for i, a := range as {
				if !reflect.DeepEqual(a.Result(), ref[i]) {
					t.Errorf("analyzer %d diverged after stall", i)
				}
			}
		})
	}
}

func TestCorruptChunkSkewsResults(t *testing.T) {
	f := build(t)
	// Pick a taken branch past the first chunk so the corruption flows
	// through a later publish, not the first one.
	target := int64(-1)
	if err := f.machine.Run(func(ev vm.Event) {
		if target < 0 && ev.Seq > int64(limits.ChunkEvents) && ev.Taken {
			target = ev.Seq
		}
	}); err != nil {
		t.Fatal(err)
	}
	if target < 0 {
		t.Fatal("trace has no taken branch past the first chunk")
	}

	for _, n := range analyzerCounts {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			ref := f.serialResults(t, n)
			plan := &Plan{CorruptAtSeq: target}
			as := f.analyzers(n)
			if err := f.replay(context.Background(), plan.Hooks(), nil, as); err != nil {
				t.Fatal(err)
			}
			if _, _, corrupted, _ := plan.Fired(); corrupted == 0 {
				t.Fatal("corruption never fired")
			}
			diverged := false
			for i, a := range as {
				if !reflect.DeepEqual(a.Result(), ref[i]) {
					diverged = true
					break
				}
			}
			if !diverged {
				t.Error("corrupted chunk left every analyzer result unchanged; the fault never reached the consumers")
			}
		})
	}
}

// TestMetricsSurviveConsumerPanic proves telemetry keeps a coherent
// story through the pipeline's worst recovery path: one consumer
// panics mid-trace, the fan-out detaches it and rethrows after the
// survivors drain — and the registry still records the detach, the full
// event stream, and untouched results for every surviving analyzer.  The
// inline loop has no ring to detach from; its panic unwinds the
// producer, and the decode counters it already gathered still reach the
// registry.
func TestMetricsSurviveConsumerPanic(t *testing.T) {
	f := build(t)
	var trace int64
	if err := f.machine.Run(func(vm.Event) { trace++ }); err != nil {
		t.Fatal(err)
	}
	for _, n := range analyzerCounts {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			ref := f.serialResults(t, n)
			plan := &Plan{PanicConsumer: n - 1, PanicAtSeq: limits.ChunkEvents*2 + 9}
			as := f.analyzers(n)
			m := telemetry.NewRegistry()
			func() {
				defer func() {
					if recover() == nil {
						t.Error("planned consumer panic never surfaced")
					}
				}()
				_ = f.replay(context.Background(), plan.Hooks(), m, as)
			}()

			s := m.Snapshot()
			if n == 1 {
				if got := s.Counters["decode.events"]; got <= plan.PanicAtSeq {
					t.Errorf("decode.events = %d, want past the panic at seq %d", got, plan.PanicAtSeq)
				}
				if _, ok := s.Counters["ring.events"]; ok {
					t.Error("the inline loop recorded ring metrics")
				}
				return
			}
			if got := s.Counters["ring.detaches"]; got != 1 {
				t.Errorf("ring.detaches = %d, want 1", got)
			}
			// The producer kept publishing after the detach: the ring
			// carries the complete trace for the survivors.
			if got := s.Counters["ring.events"]; got != trace {
				t.Errorf("ring.events = %d, want full trace %d", got, trace)
			}
			wantChunks := (trace + limits.ChunkEvents - 1) / limits.ChunkEvents
			if got := s.Counters["ring.chunks"]; got != wantChunks {
				t.Errorf("ring.chunks = %d, want %d", got, wantChunks)
			}
			for i, a := range as {
				if i != plan.PanicConsumer && !reflect.DeepEqual(a.Result(), ref[i]) {
					t.Errorf("surviving analyzer %d diverged from serial reference", i)
				}
			}
		})
	}
}

func TestCancellationUnblocksStalledRing(t *testing.T) {
	f := build(t)
	for _, n := range analyzerCounts {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			// Stall a consumer on its very first chunk for far longer
			// than the deadline: on the fan-out the producer fills every
			// ring slot and blocks, and only the abort path can unwedge
			// the pipeline.
			plan := &Plan{
				StallConsumer: n - 1,
				StallAtSeq:    5,
				StallFor:      400 * time.Millisecond,
			}
			as := f.analyzers(n)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
			defer cancel()
			err := f.replay(ctx, plan.Hooks(), nil, as)
			if !errors.Is(err, vm.ErrCanceled) {
				t.Fatalf("Replay error = %v, want vm.ErrCanceled", err)
			}
			if _, _, _, stalled := plan.Fired(); stalled != 1 {
				t.Fatalf("stall fired %d times, want 1", stalled)
			}
		})
	}
}

// TestSlowConsumerKeepsResults drives the SlowConsumer plan: a consumer
// that is delayed on every few chunks but keeps completing them must end
// the replay with every analyzer correct.
func TestSlowConsumerKeepsResults(t *testing.T) {
	f := build(t)
	for _, n := range analyzerCounts {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			ref := f.serialResults(t, n)
			plan := &Plan{
				SlowConsumer: n - 1,
				SlowEvery:    limits.ChunkEvents * 8, // a handful of delays across the trace
				SlowFor:      20 * time.Millisecond,
			}
			as := f.analyzers(n)
			if err := f.replay(context.Background(), plan.Hooks(), nil, as); err != nil {
				t.Fatalf("Replay error = %v, want nil (slow progress is not a failure)", err)
			}
			if plan.FiredSlow() == 0 {
				t.Fatal("slow-consumer plan never fired")
			}
			for i, a := range as {
				if !reflect.DeepEqual(a.Result(), ref[i]) {
					t.Errorf("analyzer %d diverged under the slow-consumer plan", i)
				}
			}
		})
	}
}

// TestDropPlanStarvesOneConsumer checks the drop plan skews exactly the
// chosen consumer and leaves its siblings on the reference schedule.
func TestDropPlanStarvesOneConsumer(t *testing.T) {
	f := build(t)
	for _, n := range analyzerCounts {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			ref := f.serialResults(t, n)
			plan := &Plan{DropConsumer: n - 1, DropFromSeq: limits.ChunkEvents + 1}
			as := f.analyzers(n)
			if err := f.replay(context.Background(), plan.Hooks(), nil, as); err != nil {
				t.Fatal(err)
			}
			if plan.FiredDropped() == 0 {
				t.Fatal("drop plan never fired")
			}
			for i, a := range as {
				same := reflect.DeepEqual(a.Result(), ref[i])
				if i == plan.DropConsumer && same {
					t.Errorf("starved analyzer %d still matches the full-trace reference", i)
				}
				if i != plan.DropConsumer && !same {
					t.Errorf("analyzer %d diverged though only consumer %d was starved", i, plan.DropConsumer)
				}
			}
		})
	}
}

// TestCorruptionRoundTripLossless pins the columnar corruption contract:
// the chunks the consumers actually observe must reconstruct, event for
// event, the annotated trace — except at the one planned sequence
// number, where exactly the documented facts are flipped (address bit,
// branch outcome, per-lane misprediction bits) with sequence and index
// intact.  Anything else means the Chunk round trip, not the plan, is
// mutating the trace.
func TestCorruptionRoundTripLossless(t *testing.T) {
	f := build(t)

	// Independent annotation of the full trace: same Static, same single
	// predictor lane as the replay below.
	refAnn := limits.NewAnnotator(f.analyzers(1)...)
	var want []limits.AnnotatedEvent
	if err := f.machine.Run(func(ev vm.Event) {
		want = append(want, refAnn.Annotate(ev))
	}); err != nil {
		t.Fatal(err)
	}
	f.machine.Reset()

	// Corrupt a taken branch past the first chunk.
	target := int64(-1)
	for _, ae := range want {
		raw := ae.Event()
		if ae.Seq > int64(limits.ChunkEvents) && raw.Taken && ae.Flags&limits.FlagBranch != 0 {
			target = ae.Seq
			break
		}
	}
	if target < 0 {
		t.Fatal("trace has no taken branch past the first chunk")
	}

	for _, n := range analyzerCounts {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			plan := &Plan{CorruptAtSeq: target}
			hooks := plan.Hooks()
			corrupt := hooks.OnPublish
			got := make([]limits.AnnotatedEvent, 0, len(want))
			hooks.OnPublish = func(chunk int64, c *limits.Chunk) {
				corrupt(chunk, c)
				got = append(got, c.Events(nil)...)
			}
			if err := f.replay(context.Background(), hooks, nil, f.analyzers(n)); err != nil {
				t.Fatal(err)
			}
			if _, _, corrupted, _ := plan.Fired(); corrupted != 1 {
				t.Fatalf("corruption fired %d times, want 1", corrupted)
			}

			if len(got) != len(want) {
				t.Fatalf("observed %d events through publish, want %d", len(got), len(want))
			}
			for i, w := range want {
				g := got[i]
				if w.Seq == target {
					exp := w
					exp.Addr ^= 1
					exp.Flags ^= limits.FlagTaken | limits.FlagMispredAll
					if g != exp {
						t.Fatalf("corrupted event: got %+v, want exactly the planned flips %+v (from %+v)", g, exp, w)
					}
					continue
				}
				if g != w {
					t.Fatalf("event %d changed through the columnar round trip: got %+v, want %+v", i, g, w)
				}
			}
		})
	}
}
