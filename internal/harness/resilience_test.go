package harness

import (
	"context"
	"errors"
	"strings"
	"testing"

	"ilplimit/internal/bench"
	"ilplimit/internal/limits"
	"ilplimit/internal/vm"
)

// withBenchHook installs a per-benchmark fault for the duration of one
// test.  Suite tests using it must not run in parallel with each other.
func withBenchHook(t *testing.T, hook func(name string) error) {
	t.Helper()
	benchStartHook = hook
	t.Cleanup(func() { benchStartHook = nil })
}

// fastSuite keeps the degraded-suite tests cheap: one model.
func fastSuite() Options {
	return Options{Models: []limits.Model{limits.SP}}
}

func TestRunSuitePartialFailure(t *testing.T) {
	injected := errors.New("injected benchmark failure")
	withBenchHook(t, func(name string) error {
		if name == "latex" {
			return injected
		}
		return nil
	})
	s, err := RunSuite(fastSuite())
	if s == nil {
		t.Fatal("RunSuite discarded the partial results")
	}
	var se *SuiteError
	if !errors.As(err, &se) {
		t.Fatalf("RunSuite error = %v, want *SuiteError", err)
	}
	if len(se.Failures) != 1 || se.Failures[0].Name != "latex" {
		t.Fatalf("failures = %+v, want exactly latex", se.Failures)
	}
	if !errors.Is(se.Failures[0].Err, injected) {
		t.Errorf("failure cause = %v, want the injected error", se.Failures[0].Err)
	}
	if want := len(bench.All()) - 1; len(s.Benchmarks) != want {
		t.Fatalf("degraded suite kept %d benchmarks, want %d", len(s.Benchmarks), want)
	}
	for _, r := range s.Benchmarks {
		if r.Name == "latex" {
			t.Error("failed benchmark leaked into the successful results")
		}
	}
	sum := s.FailureSummary()
	if !strings.Contains(sum, "latex") || !strings.Contains(sum, "injected") {
		t.Errorf("FailureSummary missing the failure:\n%s", sum)
	}
	// The degraded suite must still render its tables.
	if out := s.Table3(); !strings.Contains(out, "ccom") {
		t.Error("Table3 of the degraded suite lost the surviving benchmarks")
	}
}

func TestRunSuitePanicIsolation(t *testing.T) {
	withBenchHook(t, func(name string) error {
		if name == "awk" {
			panic("injected panic")
		}
		return nil
	})
	s, err := RunSuite(fastSuite())
	var se *SuiteError
	if !errors.As(err, &se) {
		t.Fatalf("RunSuite error = %v, want *SuiteError", err)
	}
	if len(se.Failures) != 1 || se.Failures[0].Name != "awk" {
		t.Fatalf("failures = %+v, want exactly awk", se.Failures)
	}
	msg := se.Failures[0].Err.Error()
	if !strings.Contains(msg, "panic: injected panic") {
		t.Errorf("failure lost the panic value: %q", msg)
	}
	if !strings.Contains(msg, "goroutine") {
		t.Errorf("failure carries no stack trace: %q", msg)
	}
	if want := len(bench.All()) - 1; len(s.Benchmarks) != want {
		t.Fatalf("panic took down %d other benchmarks", want-len(s.Benchmarks))
	}
}

func TestRunSuiteCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := fastSuite()
	opt.Context = ctx
	s, err := RunSuite(opt)
	var se *SuiteError
	if !errors.As(err, &se) {
		t.Fatalf("RunSuite error = %v, want *SuiteError", err)
	}
	if len(s.Benchmarks) != 0 {
		t.Fatalf("%d benchmarks completed under a pre-canceled context", len(s.Benchmarks))
	}
	if len(se.Failures) != len(bench.All()) {
		t.Fatalf("%d failures, want one per benchmark (%d)", len(se.Failures), len(bench.All()))
	}
	for _, f := range se.Failures {
		if !errors.Is(f.Err, vm.ErrCanceled) {
			t.Errorf("%s: failure = %v, want vm.ErrCanceled", f.Name, f.Err)
		}
	}
}

func TestOptionsStepLimit(t *testing.T) {
	b, err := bench.ByName("ccom")
	if err != nil {
		t.Fatal(err)
	}
	opt := fastSuite()
	opt.StepLimit = 1000
	if _, err := RunBenchmark(b, opt); !errors.Is(err, vm.ErrStepLimit) {
		t.Fatalf("RunBenchmark = %v, want vm.ErrStepLimit", err)
	}
}
