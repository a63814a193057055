package harness

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"

	"ilplimit/internal/bench"
	"ilplimit/internal/journal"
)

// A Cell is the suite's unit of schedulable work: one benchmark analyzed
// under the run's configuration.  RunSuite produces one cell per
// Options.Benchmarks entry; Index is the cell's position in that slice,
// which fixes its place in the SuiteResult and the journal regardless of
// where or when the cell executes.
type Cell struct {
	// Index is the cell's suite-order position.
	Index int
	// Bench is the benchmark the cell analyzes.
	Bench bench.Benchmark
}

// CellRunner executes one suite cell on the caller's behalf — the
// benchmark suite in perfbench wraps each cell in a timing span through
// this hook.  See Options.CellRunner.
type CellRunner func(ctx context.Context, c Cell, opt Options) (*BenchResult, error)

// RunCell executes one cell in-process with the suite's panic-isolation
// boundary: an analyzer panic comes back as an error carrying the
// faulting stack instead of crashing the caller.  A CellRunner calls it
// to run the cell it wraps; RunCell does not re-enter Options.CellRunner,
// and retries are RunSuite's policy, so RunCell makes exactly one
// attempt.
func RunCell(c Cell, opt Options) (*BenchResult, error) {
	return RunBenchmark(c.Bench, opt)
}

// executeCell runs one cell attempt: through Options.CellRunner when one
// is set, directly otherwise.  A panicking runner is converted to an
// error like a panicking benchmark.
func executeCell(c Cell, opt Options) (res *BenchResult, err error) {
	if opt.CellRunner == nil {
		return RunBenchmark(c.Bench, opt)
	}
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%s: cell runner panic: %v\n%s", c.Bench.Name, p, debug.Stack())
		}
	}()
	return opt.CellRunner(opt.ctx(), c, opt)
}

// orderedAppender admits completed cell results into the journal in
// suite order, whatever order they finish in.  Out-of-order completions
// are buffered until every earlier cell has settled, so a journal's
// bench records always appear in suite-index order — the property that
// makes a run's journal bytes deterministic and a resumed journal's
// remainder splice exactly where an uninterrupted run would have
// written it.  A cell that settles without a result (failed, or resumed
// from a prior journal) advances the cursor without appending.
type orderedAppender struct {
	j       *journal.Journal
	benches []bench.Benchmark

	mu      sync.Mutex
	next    int            // lowest unsettled suite index
	settled []bool         // cell has a final outcome
	res     []*BenchResult // buffered results awaiting their turn
	errs    []error        // journal append failures, by suite index
}

func newOrderedAppender(j *journal.Journal, benches []bench.Benchmark) *orderedAppender {
	return &orderedAppender{
		j:       j,
		benches: benches,
		settled: make([]bool, len(benches)),
		res:     make([]*BenchResult, len(benches)),
		errs:    make([]error, len(benches)),
	}
}

// settle records cell i's outcome (res nil when there is nothing to
// append: the cell failed or was resumed from an earlier journal) and
// appends every contiguous settled success from the cursor on.  Append
// failures are recorded per suite index for the caller to merge after
// the run; the append that fails may belong to an earlier cell than the
// one being settled.
func (a *orderedAppender) settle(i int, res *BenchResult) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.settled[i] = true
	a.res[i] = res
	for a.next < len(a.settled) && a.settled[a.next] {
		if r := a.res[a.next]; r != nil {
			if err := a.j.AppendBench(a.benches[a.next].Name, r); err != nil {
				a.errs[a.next] = err
			}
			a.res[a.next] = nil
		}
		a.next++
	}
}

// appendErr returns the journal append failure for suite index i, if
// any, once the run is over.
func (a *orderedAppender) appendErr(i int) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.errs[i]
}
