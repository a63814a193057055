package harness

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ilplimit/internal/journal"
)

// journalBytes reads the raw journal file of dir.
func journalBytes(t *testing.T, dir string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, journal.FileName))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestOrderedAppenderSuiteOrder settles cells out of order — including
// a failed cell with nothing to append — and checks the journal's bench
// records still land in suite order, with the failure skipped.
func TestOrderedAppenderSuiteOrder(t *testing.T) {
	dir := t.TempDir()
	benches := mustBench(t, "awk", "ccom", "eqntott")
	opt := Options{Benchmarks: benches}
	j, err := journal.Open(dir, opt.JournalMeta(""))
	if err != nil {
		t.Fatal(err)
	}
	a := newOrderedAppender(j, benches)

	// Last cell finishes first; nothing may be written until the cursor
	// reaches it.
	a.settle(2, &BenchResult{Name: "eqntott"})
	if data := journalBytes(t, dir); bytes.Contains(data, []byte(`"name":"eqntott"`)) {
		t.Fatal("out-of-order result appended before earlier cells settled")
	}
	a.settle(0, &BenchResult{Name: "awk"})
	a.settle(1, nil) // failed cell: advances the cursor, appends nothing
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data := journalBytes(t, dir)
	iAwk := bytes.Index(data, []byte(`"name":"awk"`))
	iEqn := bytes.Index(data, []byte(`"name":"eqntott"`))
	if iAwk < 0 || iEqn < 0 || iAwk > iEqn {
		t.Errorf("journal records out of suite order (awk@%d, eqntott@%d):\n%s", iAwk, iEqn, data)
	}
	if bytes.Contains(data, []byte(`"name":"ccom"`)) {
		t.Errorf("failed cell was journaled:\n%s", data)
	}
	for i, want := range []error{nil, nil, nil} {
		if got := a.appendErr(i); !errors.Is(got, want) {
			t.Errorf("appendErr(%d) = %v", i, got)
		}
	}
}

// TestRunSuiteJournalOrderWithCellRunner runs a two-cell suite through
// a CellRunner that makes the first cell finish last, and checks the
// journal's record order still matches suite order — the invariant
// that makes journal bytes deterministic.
func TestRunSuiteJournalOrderWithCellRunner(t *testing.T) {
	dir := t.TempDir()
	opt := fastSuite()
	opt.Benchmarks = mustBench(t, "awk", "eqntott")
	opt.Jobs = 2
	j, err := journal.Open(dir, opt.JournalMeta(""))
	if err != nil {
		t.Fatal(err)
	}
	opt.Journal = j
	started := make(chan struct{})
	opt.CellRunner = func(ctx context.Context, c Cell, o Options) (*BenchResult, error) {
		if c.Index == 0 {
			// Hold cell 0 until cell 1 is underway, then let it lose.
			<-started
			time.Sleep(50 * time.Millisecond)
		} else {
			close(started)
		}
		return RunCell(c, o)
	}
	s, err := RunSuite(opt)
	if err != nil {
		t.Fatalf("RunSuite = %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if len(s.Benchmarks) != 2 || s.Benchmarks[0].Name != "awk" {
		t.Fatalf("suite order wrong: %+v", s.Benchmarks)
	}
	data := journalBytes(t, dir)
	iAwk := bytes.Index(data, []byte(`"name":"awk"`))
	iEqn := bytes.Index(data, []byte(`"name":"eqntott"`))
	if iAwk < 0 || iEqn < 0 || iAwk > iEqn {
		t.Errorf("journal records out of suite order (awk@%d, eqntott@%d)", iAwk, iEqn)
	}
}

// TestCellRunnerPanicIsolated checks a panicking external scheduler is
// converted to a failure like a panicking benchmark, not a crash.
func TestCellRunnerPanicIsolated(t *testing.T) {
	opt := fastSuite()
	opt.Benchmarks = mustBench(t, "awk")
	opt.CellRunner = func(ctx context.Context, c Cell, o Options) (*BenchResult, error) {
		panic("scheduler exploded")
	}
	var degraded *SuiteError
	_, err := RunSuite(opt)
	if !errors.As(err, &degraded) {
		t.Fatalf("RunSuite = %v, want degraded suite", err)
	}
	if len(degraded.Failures) != 1 || !bytes.Contains([]byte(degraded.Failures[0].Error), []byte("scheduler exploded")) {
		t.Errorf("panic not captured in failure: %+v", degraded.Failures)
	}
}
