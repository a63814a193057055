package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"

	"ilplimit/internal/asm"
	"ilplimit/internal/bench"
	"ilplimit/internal/harness"
	"ilplimit/internal/limits"
	"ilplimit/internal/minic"
	"ilplimit/internal/stats"
	"ilplimit/internal/telemetry"
	"ilplimit/internal/vm"
)

// suiteExpect is one benchmark's recorded suite result: every value a
// pass must reproduce exactly.  Steps is the VM's dynamic instruction
// count, the work behind the throughput metrics.
type suiteExpect struct {
	Par               map[limits.Model]float64
	ParNoUnroll       map[limits.Model]float64
	TraceInstructions int64
	DynamicCondBr     int64
	PredictionRate    float64
	Steps             int64
}

// windowExpect is one benchmark's recorded window-study row.
type windowExpect struct {
	Par   map[int]float64
	Steps int64
}

// expectations are the results recorded from the benchmark's own commit
// (see record), keyed by benchmark name.
type expectations struct {
	Revision string
	// Suite maps a scale ("1") to the suite results at that scale.
	Suite map[string]map[string]suiteExpect
	// Window holds the window study at that scale.
	Window map[string]windowExpect
}

//go:embed expected.json
var expectedJSON []byte

func loadExpected() (*expectations, error) {
	var e expectations
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return &e, nil
}

// checkBench compares one suite result with its recorded value.
func checkBench(want map[string]suiteExpect, r *harness.BenchResult) error {
	w, ok := want[r.Name]
	switch {
	case !ok:
		return fmt.Errorf("%s: no recorded result", r.Name)
	case !reflect.DeepEqual(r.Par, w.Par):
		return fmt.Errorf("%s: Par %v, recorded %v", r.Name, r.Par, w.Par)
	case !reflect.DeepEqual(r.ParNoUnroll, w.ParNoUnroll):
		return fmt.Errorf("%s: ParNoUnroll %v, recorded %v", r.Name, r.ParNoUnroll, w.ParNoUnroll)
	case r.TraceInstructions != w.TraceInstructions:
		return fmt.Errorf("%s: TraceInstructions %d, recorded %d", r.Name, r.TraceInstructions, w.TraceInstructions)
	case r.DynamicCondBr != w.DynamicCondBr:
		return fmt.Errorf("%s: DynamicCondBr %d, recorded %d", r.Name, r.DynamicCondBr, w.DynamicCondBr)
	case r.PredictionRate != w.PredictionRate:
		return fmt.Errorf("%s: PredictionRate %v, recorded %v", r.Name, r.PredictionRate, w.PredictionRate)
	}
	return nil
}

// checkSuite checks a whole suite result: no failures, every recorded
// benchmark present, every value equal.
func checkSuite(want map[string]suiteExpect, s *harness.SuiteResult, err error) error {
	if err != nil {
		return err
	}
	if len(s.Benchmarks) != len(want) {
		return fmt.Errorf("suite returned %d benchmarks, recorded %d", len(s.Benchmarks), len(want))
	}
	for i := range s.Benchmarks {
		if err := checkBench(want, &s.Benchmarks[i]); err != nil {
			return err
		}
	}
	return nil
}

// checkWindow checks one window-study row.
func checkWindow(want map[string]windowExpect, r harness.WindowRow) error {
	w, ok := want[r.Name]
	if !ok {
		return fmt.Errorf("%s: no recorded window row", r.Name)
	}
	if !reflect.DeepEqual(r.Par, w.Par) {
		return fmt.Errorf("%s: window Par %v, recorded %v", r.Name, r.Par, w.Par)
	}
	return nil
}

func checkWindowStudy(want map[string]windowExpect, s *harness.WindowStudy, err error) error {
	if err != nil {
		return err
	}
	if len(s.Rows) != len(want) {
		return fmt.Errorf("window study returned %d rows, recorded %d", len(s.Rows), len(want))
	}
	for _, r := range s.Rows {
		if err := checkWindow(want, r); err != nil {
			return err
		}
	}
	return nil
}

// stepCount runs a benchmark's program once and returns its dynamic
// instruction count.
func stepCount(b bench.Benchmark, scale int) (int64, error) {
	text, err := minic.Compile(b.Source(scale))
	if err != nil {
		return 0, err
	}
	prog, err := asm.Assemble(text)
	if err != nil {
		return 0, err
	}
	m := vm.NewSized(prog, memWords)
	if err := m.Run(func(vm.Event) {}); err != nil {
		return 0, err
	}
	return m.Steps, nil
}

// hmRow formats Table 3's harmonic-mean row: per model, the harmonic
// mean of the non-numeric benchmarks' parallelism.
func hmRow(s *harness.SuiteResult) []string {
	var row []string
	for _, m := range s.Models {
		var xs []float64
		for _, r := range s.NonNumeric() {
			xs = append(xs, r.Par[m])
		}
		row = append(row, stats.FormatParallelism(stats.HarmonicMean(xs)))
	}
	return row
}

// readmeOursRow returns the values of the "ours" row of README's
// results table.
func readmeOursRow(root string) ([]string, error) {
	data, err := os.ReadFile(filepath.Join(root, "README.md"))
	if err != nil {
		return nil, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 || strings.TrimSpace(cells[1]) != "ours" {
			continue
		}
		var row []string
		for _, c := range cells[2 : len(cells)-1] {
			row = append(row, strings.TrimSpace(c))
		}
		return row, nil
	}
	return nil, fmt.Errorf("README.md has no \"ours\" row")
}

// checkREADME cross-checks the scale-1 Table 3 harmonic-mean row
// against README's "ours" row.
func checkREADME(root string, s1 *harness.SuiteResult) error {
	want, err := readmeOursRow(root)
	if err != nil {
		return err
	}
	if got := hmRow(s1); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("scale-1 harmonic-mean row %v, README \"ours\" row %v", got, want)
	}
	return nil
}

// record runs every workload's harness entry point once at the current
// code and writes the results to perfbench/expected.json.
func record(root string) error {
	e := expectations{
		Revision: telemetry.GitRevision(),
		Suite:    make(map[string]map[string]suiteExpect),
		Window:   make(map[string]windowExpect),
	}
	steps := make(map[string]int64)
	for _, b := range bench.All() {
		n, err := stepCount(b, scale)
		if err != nil {
			return fmt.Errorf("%s: %w", b.Name, err)
		}
		steps[b.Name] = n
	}
	s, err := harness.RunSuite(harness.Options{Scale: scale})
	if err != nil {
		return err
	}
	if err := checkREADME(root, s); err != nil {
		return err
	}
	m := make(map[string]suiteExpect)
	for _, r := range s.Benchmarks {
		m[r.Name] = suiteExpect{
			Par: r.Par, ParNoUnroll: r.ParNoUnroll,
			TraceInstructions: r.TraceInstructions, DynamicCondBr: r.DynamicCondBr,
			PredictionRate: r.PredictionRate, Steps: steps[r.Name],
		}
	}
	e.Suite[strconv.Itoa(scale)] = m
	ws, err := harness.RunWindowStudy(harness.Options{Scale: scale})
	if err != nil {
		return err
	}
	for _, r := range ws.Rows {
		e.Window[r.Name] = windowExpect{Par: r.Par, Steps: steps[r.Name]}
	}
	data, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, "perfbench", "expected.json"), append(data, '\n'), 0o644)
}
