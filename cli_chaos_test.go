package ilplimit_test

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// chaosSeeds returns the soak's seed list: ILP_CHAOS_SEEDS (comma-
// separated) or the pinned defaults.  Pinned seeds keep CI reproducible;
// the env override lets a local soak sweep wider.
func chaosSeeds(t *testing.T) []string {
	t.Helper()
	spec := os.Getenv("ILP_CHAOS_SEEDS")
	if spec == "" {
		spec = "7,23"
	}
	var seeds []string
	for _, s := range strings.Split(spec, ",") {
		if s = strings.TrimSpace(s); s != "" {
			seeds = append(seeds, s)
		}
	}
	if len(seeds) == 0 {
		t.Fatalf("ILP_CHAOS_SEEDS %q contains no seeds", spec)
	}
	return seeds
}

// stripNotes drops journal note records — free-text annotations failed
// chaos attempts leave behind ("run degraded: ...") — keeping only the
// result-bearing lines that must match a clean run byte for byte.
func stripNotes(journal []byte) []byte {
	var out []byte
	for _, line := range bytes.SplitAfter(journal, []byte("\n")) {
		f := bytes.SplitN(line, []byte(" "), 4)
		if len(f) >= 3 && string(f[2]) == "note" {
			continue
		}
		out = append(out, line...)
	}
	return out
}

// TestCLIChaosSoak is the chaos gate: for every pinned seed, rerun the
// suite under a derived fault schedule — VM traps, analyzer panics,
// slow consumers, and journal write faults — until an attempt exits
// clean, then require its stdout and salvaged journal byte-identical to
// an undisturbed run.  Each attempt derives a fresh sub-seed so an
// attempt that died to a disk fault does not meet the identical fault
// at the identical offset forever.
func TestCLIChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	bin := buildCmd(t, "ilplimit")
	benches := "awk,eqntott"

	dirL := t.TempDir()
	ref, err := exec.Command(bin, "-bench", benches, "-json", "-resume", dirL).Output()
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	refJournal, err := os.ReadFile(filepath.Join(dirL, "journal.ilpj"))
	if err != nil {
		t.Fatal(err)
	}

	for _, seed := range chaosSeeds(t) {
		t.Run("seed"+seed, func(t *testing.T) {
			dir := t.TempDir()
			const attempts = 5
			var fired []string
			for attempt := 1; ; attempt++ {
				if attempt > attempts {
					t.Fatalf("no clean run within %d chaos attempts; fired: %v", attempts, fired)
				}
				// seed*100+attempt: a deterministic family, so the soak is
				// reproducible but consecutive attempts draw different
				// fault schedules against the same surviving journal.
				derived := fmt.Sprintf("%s%02d", seed, attempt)
				cmd := exec.Command(bin, "-bench", benches, "-json",
					"-chaos", derived, "-resume", dir)
				var stdout, stderr bytes.Buffer
				cmd.Stdout, cmd.Stderr = &stdout, &stderr
				runErr := cmd.Run()
				for _, line := range strings.Split(stderr.String(), "\n") {
					if strings.Contains(line, "fired:") {
						fired = append(fired, strings.TrimSpace(line))
					}
				}
				if runErr != nil {
					t.Logf("attempt %d (chaos %s) failed as scheduled: %v", attempt, derived, runErr)
					continue
				}
				if got := stdout.Bytes(); !bytes.Equal(got, ref) {
					t.Fatalf("attempt %d converged but stdout differs from the clean run (%d vs %d bytes)", attempt, len(got), len(ref))
				}
				break
			}
			chaosJournal, err := os.ReadFile(filepath.Join(dir, "journal.ilpj"))
			if err != nil {
				t.Fatal(err)
			}
			if got, want := stripNotes(chaosJournal), stripNotes(refJournal); !bytes.Equal(got, want) {
				t.Errorf("chaos journal (notes stripped) differs from clean run (%d vs %d bytes)", len(got), len(want))
			}
			t.Logf("fired: %v", fired)
		})
	}
}
