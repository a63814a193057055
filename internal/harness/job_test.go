package harness

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"ilplimit/internal/asm"
	"ilplimit/internal/bench"
	"ilplimit/internal/limits"
	"ilplimit/internal/minic"
	"ilplimit/internal/trace"
	"ilplimit/internal/vm"
)

// jobSource is a small deterministic program for job tests.
const jobSource = `
int main() {
	int i, s;
	s = 0;
	for (i = 0; i < 64; i++) {
		if (i - (i / 3) * 3 == 0) s += i;
		else s -= 1;
	}
	print(s);
	return 0;
}
`

// recordTrace executes a mini-C program once and returns its trace file
// bytes.
func recordTrace(t testing.TB, source string) []byte {
	t.Helper()
	asmText, err := minic.Compile(source)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.Assemble(asmText)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	machine := vm.New(prog)
	machine.StepLimit = 1 << 32
	if err := machine.Run(func(ev vm.Event) {
		if err := w.Write(ev); err != nil {
			t.Fatal(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestAnalyzeJobSourceTraceEquivalence verifies the service job path:
// an executed program and a replayed recording of the same program must
// produce identical matrix rows, for every input form.
func TestAnalyzeJobSourceTraceEquivalence(t *testing.T) {
	fromSource, err := AnalyzeJob(context.Background(), JobSpec{Source: jobSource})
	if err != nil {
		t.Fatalf("source job: %v", err)
	}
	if len(fromSource.Rows) != 1 || fromSource.Rows[0].Name != "program" {
		t.Fatalf("source job rows = %+v", fromSource.Rows)
	}
	if len(fromSource.Rows[0].Par) != 7 {
		t.Errorf("source job has %d models, want 7", len(fromSource.Rows[0].Par))
	}
	if p := fromSource.Rows[0].Par["ORACLE"]; p <= 1 {
		t.Errorf("ORACLE parallelism %v, want > 1", p)
	}

	asmText, err := minic.Compile(jobSource)
	if err != nil {
		t.Fatal(err)
	}
	fromAsm, err := AnalyzeJob(context.Background(), JobSpec{Asm: asmText})
	if err != nil {
		t.Fatalf("asm job: %v", err)
	}

	fromTrace, err := AnalyzeJob(context.Background(), JobSpec{
		Asm:   asmText,
		Trace: recordTrace(t, jobSource),
	})
	if err != nil {
		t.Fatalf("trace job: %v", err)
	}

	for model, want := range fromSource.Rows[0].Par {
		if got := fromAsm.Rows[0].Par[model]; got != want {
			t.Errorf("asm job %s = %v, source job = %v", model, got, want)
		}
		if got := fromTrace.Rows[0].Par[model]; got != want {
			t.Errorf("trace job %s = %v, source job = %v", model, got, want)
		}
	}
}

// writeTrace encodes events as a trace file.
func writeTrace(t *testing.T, events ...vm.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if err := w.Write(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestAnalyzeJobRejectsBadInput covers the ErrBadJob surface: no
// program, both program forms, compile errors, a corrupt trace, and
// well-formed trace events the program could not have produced — an
// instruction outside it, an address beyond the 32-bit chunk lanes, a
// store outside its memory.
func TestAnalyzeJobRejectsBadInput(t *testing.T) {
	const memSource = `
int a[8];
int main() {
	a[1] = 2;
	print(a[1]);
	return 0;
}
`
	asmText, err := minic.Compile(memSource)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.Assemble(asmText)
	if err != nil {
		t.Fatal(err)
	}
	store := -1
	for i, in := range prog.Instrs {
		if in.Op.IsStore() {
			store = i
			break
		}
	}
	if store < 0 {
		t.Fatal("program has no store")
	}
	cases := map[string]JobSpec{
		"empty":      {},
		"both":       {Source: jobSource, Asm: "nop"},
		"bad-source": {Source: "int main( {"},
		"bad-asm":    {Asm: "frobnicate r1, r2"},
		"bad-trace":  {Source: jobSource, Trace: []byte("not a trace")},
		"trace-idx":  {Source: jobSource, Trace: writeTrace(t, vm.Event{Idx: 1 << 20})},
		"trace-addr": {Source: jobSource, Trace: writeTrace(t, vm.Event{Addr: 1 << 40})},
		"trace-mem": {Source: memSource, MemWords: 4096,
			Trace: writeTrace(t, vm.Event{Idx: int32(store), Addr: 1 << 20})},
	}
	for name, spec := range cases {
		if _, err := AnalyzeJob(context.Background(), spec); !errors.Is(err, ErrBadJob) {
			t.Errorf("%s: err = %v, want ErrBadJob", name, err)
		}
	}
}

// FuzzAnalyzeJobTrace feeds arbitrary trace bytes to a job over a fixed
// program: whatever the upload holds, the job either succeeds or
// rejects it as ErrBadJob — never a panic, never an internal error.
// Each model runs as its own single-analyzer job, which replays on the
// calling goroutine: a fan-out's scheduling would make coverage differ
// between runs of one input, and the fuzzer would spend its budget
// minimizing noise.
func FuzzAnalyzeJobTrace(f *testing.F) {
	asmText, err := minic.Compile(jobSource)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(recordTrace(f, jobSource))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, m := range limits.AllModels() {
			_, err := AnalyzeJob(context.Background(), JobSpec{Asm: asmText, Trace: data, Models: []limits.Model{m}})
			if err != nil && !errors.Is(err, ErrBadJob) {
				t.Fatalf("%s trace job: %v", m, err)
			}
		}
	})
}

// TestAnalyzeJobMemWordsGrowsForData pins the memory sizing: a program
// whose data segment outgrows the requested MemWords runs in the
// memory the VM grows to, so its analyzers must cover the same words —
// the job succeeds and matches a run at the default size.
func TestAnalyzeJobMemWordsGrowsForData(t *testing.T) {
	const src = `
int a[4096];
int main() {
	int i, s;
	s = 0;
	for (i = 0; i < 4096; i++) a[i] = i;
	for (i = 4095; i >= 0; i--) s += a[i];
	print(s);
	return 0;
}
`
	want, err := AnalyzeJob(context.Background(), JobSpec{Source: src})
	if err != nil {
		t.Fatal(err)
	}
	got, err := AnalyzeJob(context.Background(), JobSpec{Source: src, MemWords: 2048})
	if err != nil {
		t.Fatalf("MemWords 2048: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("MemWords 2048 = %+v, default = %+v", got, want)
	}
}

// TestAnalyzeJobTruncatedTrace verifies a trace cut mid-stream (the
// upload a client abandoned) is rejected as a client error, not served
// as a silently-shorter program.
func TestAnalyzeJobTruncatedTrace(t *testing.T) {
	data := recordTrace(t, jobSource)
	_, err := AnalyzeJob(context.Background(), JobSpec{Source: jobSource, Trace: data[:len(data)/2]})
	if !errors.Is(err, ErrBadJob) {
		t.Errorf("truncated trace: err = %v, want ErrBadJob", err)
	}
}

// TestAnalyzeJobCanceled verifies a canceled context aborts both the
// execution and the trace-replay paths with vm.ErrCanceled.
func TestAnalyzeJobCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := AnalyzeJob(ctx, JobSpec{Source: jobSource}); !errors.Is(err, vm.ErrCanceled) {
		t.Errorf("canceled source job: err = %v, want vm.ErrCanceled", err)
	}
	data := recordTrace(t, jobSource)
	if _, err := AnalyzeJob(ctx, JobSpec{Source: jobSource, Trace: data}); !errors.Is(err, vm.ErrCanceled) {
		t.Errorf("canceled trace job: err = %v, want vm.ErrCanceled", err)
	}
}

// TestSuiteMatrix verifies the suite-to-matrix flattening the daemon
// serves for suite jobs.
func TestSuiteMatrix(t *testing.T) {
	b, err := bench.ByName("irsim")
	if err != nil {
		t.Fatal(err)
	}
	suite, err := RunSuite(Options{Benchmarks: []bench.Benchmark{b}})
	if err != nil {
		t.Fatal(err)
	}
	m := SuiteMatrix(suite)
	if len(m.Rows) != 1 || m.Rows[0].Name != "irsim" {
		t.Fatalf("rows = %+v", m.Rows)
	}
	if len(m.Rows[0].Par) != 7 {
		t.Errorf("row has %d models, want 7", len(m.Rows[0].Par))
	}
}
