package ilplimit_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ilplimit"
	"ilplimit/internal/harness"
	"ilplimit/internal/limits"
)

// TestGoldenTables pins the paper's Tables 2-4 and Figures 4-7 from one
// default scale-1 suite run byte for byte against testdata/golden, and
// the Table 3 harmonic-mean row against the "ours" row README.md quotes.
// A golden file changes only with a CHANGES.md entry naming the cause;
// regenerate one with `go run ./cmd/ilplimit -table N` (or `-figure N`)
// redirected to testdata/golden/tableN.txt (figureN.txt).
func TestGoldenTables(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full suite")
	}
	s, err := ilplimit.RunSuite(ilplimit.SuiteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tables := []struct {
		file, got string
	}{
		{"table2.txt", s.Table2()},
		{"table3.txt", s.Table3()},
		{"table4.txt", s.Table4()},
		{"figure4.txt", s.Figure4()},
		{"figure5.txt", s.Figure5()},
		{"figure6.txt", s.Figure6()},
		{"figure7.txt", s.Figure7()},
	}
	for _, tb := range tables {
		checkGolden(t, tb.file, tb.got)
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	ours := tableRow(string(readme), "| ours ", "|")
	hmean := tableRow(s.Table3(), "Harmonic Mean", " ")
	if len(ours) != 7 || strings.Join(hmean, " ") != strings.Join(ours, " ") {
		t.Errorf("Table 3 harmonic mean %v does not match README's ours row %v", hmean, ours)
	}
}

// TestGoldenStudies pins the seven ablation studies at their defaults
// byte for byte against testdata/golden/study-NAME.txt, the output of
// `go run ./cmd/ilplimit -study NAME`.  The scale study also runs
// scales 2 and 4.
func TestGoldenStudies(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the suite once per study pass")
	}
	type renderer interface{ Render() string }
	studies := []struct {
		name string
		run  func(harness.Options) (renderer, error)
	}{
		{"prediction", func(o harness.Options) (renderer, error) { return harness.RunPredictionStudy(o) }},
		{"window", func(o harness.Options) (renderer, error) { return harness.RunWindowStudy(o) }},
		{"latency", func(o harness.Options) (renderer, error) { return harness.RunLatencyStudy(o) }},
		{"guarded", func(o harness.Options) (renderer, error) { return harness.RunGuardedStudy(o) }},
		{"quality", func(o harness.Options) (renderer, error) { return harness.RunQualityStudy(o) }},
		{"width", func(o harness.Options) (renderer, error) { return harness.RunWidthStudy(o) }},
		{"scale", func(o harness.Options) (renderer, error) { return harness.RunScaleStudy(o) }},
	}
	for _, st := range studies {
		t.Run(st.name, func(t *testing.T) {
			s, err := st.run(harness.Options{Scale: 1, Models: limits.AllModels()})
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "study-"+st.name+".txt", s.Render())
		})
	}
}

// checkGolden compares got byte for byte against testdata/golden/file.
func checkGolden(t *testing.T, file, got string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", "golden", file))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s differs from the golden file:\n got:\n%s\nwant:\n%s", file, got, want)
	}
}

// tableRow returns the cells after the label of the first line in text
// that starts with prefix, split on sep with blanks dropped.
func tableRow(text, prefix, sep string) []string {
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, prefix); ok {
			var cells []string
			for _, c := range strings.Split(rest, sep) {
				if c = strings.TrimSpace(c); c != "" {
					cells = append(cells, c)
				}
			}
			return cells
		}
	}
	return nil
}
