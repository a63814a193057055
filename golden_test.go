package ilplimit_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ilplimit"
)

// TestGoldenTables pins the paper's Tables 2-4 from one default scale-1
// suite run byte for byte against testdata/golden, and the Table 3
// harmonic-mean row against the "ours" row README.md quotes.  A golden
// file changes only with a CHANGES.md entry naming the cause; regenerate
// one with `go run ./cmd/ilplimit -table N > testdata/golden/tableN.txt`.
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
	}
	for _, tb := range tables {
		want, err := os.ReadFile(filepath.Join("testdata", "golden", tb.file))
		if err != nil {
			t.Fatal(err)
		}
		if tb.got != string(want) {
			t.Errorf("%s differs from the golden file:\n got:\n%s\nwant:\n%s", tb.file, tb.got, want)
		}
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
