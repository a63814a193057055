package tracestore_test

import (
	"context"
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"ilplimit/internal/asm"
	"ilplimit/internal/faultinject"
	"ilplimit/internal/iofault"
	"ilplimit/internal/isa"
	"ilplimit/internal/limits"
	"ilplimit/internal/minic"
	"ilplimit/internal/predict"
	"ilplimit/internal/trace"
	"ilplimit/internal/tracestore"
	"ilplimit/internal/vm"
)

const testSrc = `
int a[64];
int main() {
	int i, j, s;
	s = 0;
	for (i = 0; i < 40; i++) {
		a[i % 64] = i * 3;
		for (j = 0; j < 8; j++) {
			if (a[j] > s) s = a[j];
			else s = s + 1;
		}
	}
	print(s);
	return 0;
}
`

// buildProgram compiles the test program.
func buildProgram(t *testing.T) *isa.Program {
	t.Helper()
	asmText, err := minic.Compile(testSrc)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.Assemble(asmText)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// profileProgram runs the profiling pass and returns the machine (reset,
// ready for the analysis pass) and the annotated Static.
func profileProgram(t *testing.T, prog *isa.Program) (*vm.VM, *limits.Static) {
	t.Helper()
	machine := vm.NewSized(prog, 1<<14)
	prof := predict.NewProfile(prog)
	if err := machine.Run(prof.Record); err != nil {
		t.Fatal(err)
	}
	st, err := limits.NewStatic(prog, prof.Predictor())
	if err != nil {
		t.Fatal(err)
	}
	machine.Reset()
	return machine, st
}

// makeCells builds one analyzer per model × unroll × latency cell — the
// full grid the equivalence guarantee covers — plus the window study's
// finite-window cell.
func makeCells(st *limits.Static, memWords int) []*limits.Analyzer {
	var cells []*limits.Analyzer
	for _, m := range limits.AllModels() {
		for _, unroll := range []bool{false, true} {
			for _, lat := range []func(isa.Op) int64{nil, limits.DefaultLatencies} {
				cells = append(cells, limits.NewAnalyzerConfig(st, limits.Config{
					Model: m, Unrolling: unroll, MemWords: memWords, Latency: lat,
				}))
			}
		}
	}
	return append(cells, limits.NewAnalyzerConfig(st, limits.Config{
		Model: limits.SPCDMF, Unrolling: true, MemWords: memWords, Window: 64,
	}))
}

func testKey(prog *isa.Program, st *limits.Static, lanes int) tracestore.Key {
	return tracestore.Key{
		Bench:      "equiv",
		ProgramCRC: tracestore.ProgramCRC(prog),
		Annotation: st.AnnotationFingerprint(),
		Predictors: "profile",
		Lanes:      lanes,
	}
}

// populatedStore replays the test program live through makeCells while
// populating a fresh store, and returns the store, the entry's key, the
// live analyzers and the machine (for its memory size and step count).
func populatedStore(t *testing.T) (*tracestore.Store, tracestore.Key, *limits.Static, *vm.VM, []*limits.Analyzer) {
	t.Helper()
	prog := buildProgram(t)
	machine, st := profileProgram(t, prog)
	store, err := tracestore.Open(iofault.OS(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	live := makeCells(st, len(machine.Mem))
	lanes := limits.AssignReplayLanes(live...)
	key := testKey(prog, st, lanes)
	pop, err := store.BeginPopulate(key, []byte(`{"Steps":1}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := limits.SerialReplayWith(context.Background(), pop.Sink(), machine.RunContext, live...); err != nil {
		pop.Abort()
		t.Fatal(err)
	}
	if err := pop.Commit(); err != nil {
		t.Fatal(err)
	}
	if pop.Events() != machine.Steps {
		t.Fatalf("stored %d events, VM retired %d", pop.Events(), machine.Steps)
	}
	return store, key, st, machine, live
}

// TestCachedVsLiveEquivalence is the store's core guarantee: every
// model × unroll × latency cell computes byte-identical results whether
// it stepped the live annotated stream or a stored trace, as a lone
// inline analyzer or fanned out across goroutines.
func TestCachedVsLiveEquivalence(t *testing.T) {
	store, key, st, machine, live := populatedStore(t)
	memWords := len(machine.Mem)

	for _, n := range []int{1, len(live)} {
		warm := makeCells(st, memWords)[:n]
		rep, err := store.Open(key)
		if err != nil {
			t.Fatalf("%d cells: %v", n, err)
		}
		if rep.Events() != machine.Steps {
			t.Fatalf("replay sees %d events, want %d", rep.Events(), machine.Steps)
		}
		if err := rep.Run(context.Background(), nil, warm...); err != nil {
			t.Fatalf("%d cells: %v", n, err)
		}
		rep.Close()
		for i := range warm {
			lr, wr := live[i].Result(), warm[i].Result()
			if !reflect.DeepEqual(lr, wr) {
				t.Errorf("%d cells, cell %d (%v): cached result differs\nlive: %+v\nwarm: %+v",
					n, i, lr.Model, lr, wr)
			}
		}
	}
}

// TestWarmReplayConsumerFault: a fault plan's consumer seam fires on a
// warm multi-analyzer replay as on a live one.  A Once-armed analyzer
// panic comes back as *limits.PanicError, and the retry — fresh
// analyzers, same plan — runs clean, slowed but not changed, and
// reproduces the live results.
func TestWarmReplayConsumerFault(t *testing.T) {
	store, key, st, machine, live := populatedStore(t)
	plan := &faultinject.Plan{
		Once:          true,
		PanicConsumer: 2, PanicAtSeq: 1,
		SlowConsumer: 1, SlowEvery: 512, SlowFor: time.Microsecond,
	}
	hooks := plan.Hooks()
	replay := func() (cells []*limits.Analyzer, pe *limits.PanicError) {
		cells = makeCells(st, len(machine.Mem))
		rep, err := store.Open(key)
		if err != nil {
			t.Fatal(err)
		}
		defer rep.Close()
		defer func() {
			if r := recover(); r != nil {
				var ok bool
				if pe, ok = r.(*limits.PanicError); !ok {
					t.Fatalf("warm replay panicked with %T (%v), want *limits.PanicError", r, r)
				}
			}
		}()
		if err := rep.Run(context.Background(), hooks.BeforeChunk, cells...); err != nil {
			t.Fatal(err)
		}
		return cells, nil
	}

	if _, pe := replay(); pe == nil || !strings.Contains(pe.Error(), "planned panic") {
		t.Fatalf("first warm replay: panic %v, want the planned consumer panic", pe)
	}
	cells, pe := replay()
	if pe != nil {
		t.Fatalf("retry panicked again: %v", pe)
	}
	if _, panicked, _, _ := plan.Fired(); panicked != 1 {
		t.Errorf("panic fired %d times, want 1", panicked)
	}
	if plan.FiredSlow() == 0 {
		t.Error("slow consumer never fired on the warm replay")
	}
	for i := range cells {
		if lr, wr := live[i].Result(), cells[i].Result(); !reflect.DeepEqual(lr, wr) {
			t.Errorf("cell %d (%v): retried warm result differs\nlive: %+v\nwarm: %+v", i, lr.Model, lr, wr)
		}
	}
}

// TestStoreMissCorruptSkew exercises the three degraded-read outcomes:
// a missing file is ErrMiss, damage is a descriptive (non-miss) error,
// and a file whose embedded fingerprint disagrees with the key is
// rejected even though its CRCs are intact.
func TestStoreMissCorruptSkew(t *testing.T) {
	dir := t.TempDir()
	store, err := tracestore.Open(iofault.OS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	keyA := tracestore.Key{Bench: "a", ProgramCRC: 1, Annotation: 2, Predictors: "profile", Lanes: 1}
	keyB := tracestore.Key{Bench: "b", ProgramCRC: 3, Annotation: 4, Predictors: "profile", Lanes: 1}

	if _, err := store.Open(keyA); !errors.Is(err, tracestore.ErrMiss) {
		t.Fatalf("missing entry: %v, want ErrMiss", err)
	}

	// Populate keyA with a small synthetic stream.
	pop, err := store.BeginPopulate(keyA, nil)
	if err != nil {
		t.Fatal(err)
	}
	sink := pop.Sink()
	if err := sink(limits.ChunkView(0, []uint32{9, 9}, []uint32{1, 2}, []uint32{0, 0})); err != nil {
		t.Fatal(err)
	}
	if err := sink(nil); err != nil {
		t.Fatal(err)
	}
	if err := pop.Commit(); err != nil {
		t.Fatal(err)
	}
	rep, err := store.Open(keyA)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Events() != 2 {
		t.Fatalf("got %d events, want 2", rep.Events())
	}
	rep.Close()

	// A CRC-valid file stored under the wrong key is fingerprint skew,
	// not a hit and not a miss.
	data, err := os.ReadFile(store.Path(keyA))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(store.Path(keyB), data, 0o666); err != nil {
		t.Fatal(err)
	}
	_, err = store.Open(keyB)
	if err == nil || errors.Is(err, tracestore.ErrMiss) {
		t.Fatalf("fingerprint skew: %v, want a non-miss error", err)
	}
	if !strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("skew error does not say so: %v", err)
	}

	// Damage: flip one byte mid-file.
	mut := append([]byte(nil), data...)
	mut[len(mut)/2] ^= 0x20
	if err := os.WriteFile(store.Path(keyA), mut, 0o666); err != nil {
		t.Fatal(err)
	}
	_, err = store.Open(keyA)
	if err == nil || errors.Is(err, tracestore.ErrMiss) {
		t.Fatalf("corrupt entry: %v, want a non-miss error", err)
	}
	if !errors.Is(err, trace.ErrBadTrace) {
		t.Errorf("corrupt entry error does not wrap ErrBadTrace: %v", err)
	}
}

// TestPopulateRequiresTerminator: a replay that never completed its
// stream (failure, stall, crash of the producer) must not commit.
func TestPopulateRequiresTerminator(t *testing.T) {
	dir := t.TempDir()
	store, err := tracestore.Open(iofault.OS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	key := tracestore.Key{Bench: "partial", ProgramCRC: 1, Lanes: 1}
	pop, err := store.BeginPopulate(key, nil)
	if err != nil {
		t.Fatal(err)
	}
	sink := pop.Sink()
	if err := sink(limits.ChunkView(0, []uint32{1}, []uint32{1}, []uint32{1})); err != nil {
		t.Fatal(err)
	}
	if err := pop.Commit(); err == nil {
		t.Fatal("Commit without the end-of-stream terminator succeeded")
	}
	if _, err := store.Open(key); !errors.Is(err, tracestore.ErrMiss) {
		t.Fatalf("refused commit still published a file: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Errorf("refused commit left temp file %s", e.Name())
		}
	}
}

// TestCrashConsistency drives the populate protocol over the simulated
// crashing filesystem: a crash before Commit leaves no readable entry
// (at worst a stray temp), and a committed entry survives the crash
// byte-for-byte.
func TestCrashConsistency(t *testing.T) {
	key := tracestore.Key{Bench: "crash", ProgramCRC: 7, Lanes: 1}
	frame := func() *limits.Chunk {
		return limits.ChunkView(0, []uint32{4, 5, 6}, []uint32{1, 2, 3}, []uint32{0, 1, 0})
	}

	// Crash mid-populate: nothing visible afterwards.
	sim := iofault.NewSim()
	store, err := tracestore.Open(sim, "/cache")
	if err != nil {
		t.Fatal(err)
	}
	pop, err := store.BeginPopulate(key, nil)
	if err != nil {
		t.Fatal(err)
	}
	sink := pop.Sink()
	if err := sink(frame()); err != nil {
		t.Fatal(err)
	}
	sim.Crash()
	after, err := tracestore.Open(sim, "/cache")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := after.Open(key); !errors.Is(err, tracestore.ErrMiss) {
		t.Fatalf("entry visible after mid-populate crash: %v", err)
	}

	// Commit then crash: the entry is durable and replays.
	sim = iofault.NewSim()
	store, err = tracestore.Open(sim, "/cache")
	if err != nil {
		t.Fatal(err)
	}
	pop, err = store.BeginPopulate(key, []byte("meta"))
	if err != nil {
		t.Fatal(err)
	}
	sink = pop.Sink()
	if err := sink(frame()); err != nil {
		t.Fatal(err)
	}
	if err := sink(nil); err != nil {
		t.Fatal(err)
	}
	if err := pop.Commit(); err != nil {
		t.Fatal(err)
	}
	sim.Crash()
	after, err = tracestore.Open(sim, "/cache")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := after.Open(key)
	if err != nil {
		t.Fatalf("committed entry lost to crash: %v", err)
	}
	if rep.Events() != 3 || string(rep.Meta()) != "meta" {
		t.Fatalf("committed entry skewed: %d events, meta %q", rep.Events(), rep.Meta())
	}
	rep.Close()
}

// TestReplayCancellation: a canceled context aborts a warm replay with
// the live pipeline's error shape.
func TestReplayCancellation(t *testing.T) {
	prog := buildProgram(t)
	machine, st := profileProgram(t, prog)
	store, err := tracestore.Open(iofault.OS(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	live := makeCells(st, len(machine.Mem))
	lanes := limits.AssignReplayLanes(live...)
	key := testKey(prog, st, lanes)
	pop, err := store.BeginPopulate(key, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := limits.SerialReplayWith(context.Background(), pop.Sink(), machine.RunContext, live...); err != nil {
		t.Fatal(err)
	}
	if err := pop.Commit(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := store.Open(key)
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	for _, n := range []int{1, len(live)} {
		warm := makeCells(st, len(machine.Mem))[:n]
		if err := rep.Run(ctx, nil, warm...); !errors.Is(err, vm.ErrCanceled) {
			t.Errorf("%d cells: canceled replay returned %v, want vm.ErrCanceled", n, err)
		}
	}
}
