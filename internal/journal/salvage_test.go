package journal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"ilplimit/internal/iofault"
)

// sweepMeta is the fixed configuration every salvage-sweep journal is
// written and reopened with.
func sweepMeta() Meta {
	return Meta{
		SchemaVersion: SchemaVersion,
		Scale:         100,
		MemWords:      1 << 10,
		Models:        []string{"ORACLE", "SP-CD-MF"},
		Benchmarks:    []string{"b0", "b1", "b2"},
	}
}

// writeSweepJournal builds a journal with three bench records and one
// note, returning its directory, file contents, and the byte offset at
// which each record ends (so sweeps can assert exact salvage counts).
func writeSweepJournal(t *testing.T) (dir string, data []byte, ends []int64) {
	t.Helper()
	dir = t.TempDir()
	j, err := Open(dir, sweepMeta())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.AppendBench(fmt.Sprintf("b%d", i), map[string]int{"cycles": 100 * (i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.AppendNote("checkpoint"); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(filepath.Join(dir, FileName))
	if err != nil {
		t.Fatal(err)
	}
	var off int64
	for _, line := range strings.SplitAfter(string(data), "\n") {
		if line == "" {
			continue
		}
		off += int64(len(line))
		ends = append(ends, off)
	}
	if len(ends) != 5 { // meta + 3 bench + note
		t.Fatalf("journal has %d records, want 5", len(ends))
	}
	return dir, data, ends
}

// benchesAtOffset returns how many complete bench records fit within a
// prefix of n bytes, given the record end offsets (record 0 is meta,
// records 1..3 are benches, record 4 the note).
func benchesAtOffset(ends []int64, n int64) int {
	count := 0
	for i := 1; i <= 3; i++ {
		if n >= ends[i] {
			count++
		}
	}
	return count
}

// TestSalvageTruncateSweep is the satellite's exhaustive torn-tail
// sweep: a multi-record journal truncated at EVERY byte offset must
// reopen without panic, salvage exactly the benches whose records lie
// fully inside the prefix, and accept a round-trip re-append of the
// missing benches.
func TestSalvageTruncateSweep(t *testing.T) {
	_, data, ends := writeSweepJournal(t)
	for n := int64(0); n <= int64(len(data)); n++ {
		dir := t.TempDir()
		path := filepath.Join(dir, FileName)
		if err := os.WriteFile(path, data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := Open(dir, sweepMeta())
		if n < ends[0] {
			// The meta record itself is torn: nothing salvageable, so
			// Open must start the journal over rather than fail.
			if err != nil {
				t.Fatalf("truncate@%d: open torn-meta journal: %v", n, err)
			}
			if got := j.Recovered(); got != 0 {
				t.Fatalf("truncate@%d: recovered %d benches from torn meta", n, got)
			}
		} else {
			if err != nil {
				t.Fatalf("truncate@%d: open: %v", n, err)
			}
			want := benchesAtOffset(ends, n)
			if got := j.Recovered(); got != want {
				t.Fatalf("truncate@%d: recovered %d benches, want %d", n, got, want)
			}
			wantDrop := n
			for _, e := range ends {
				if e <= n {
					wantDrop = n - e
				}
			}
			if got := j.Truncated(); got != wantDrop {
				t.Fatalf("truncate@%d: truncated %d bytes, want %d", n, got, wantDrop)
			}
		}
		// Round-trip: re-append everything missing, reopen, and the
		// journal must hold all three benches.
		for i := 0; i < 3; i++ {
			name := fmt.Sprintf("b%d", i)
			if _, ok := j.Lookup(name); ok {
				continue
			}
			if err := j.AppendBench(name, map[string]int{"cycles": 100 * (i + 1)}); err != nil {
				t.Fatalf("truncate@%d: re-append %s: %v", n, name, err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatalf("truncate@%d: close: %v", n, err)
		}
		j2, err := Open(dir, sweepMeta())
		if err != nil {
			t.Fatalf("truncate@%d: reopen: %v", n, err)
		}
		if got := j2.Recovered(); got != 3 {
			t.Fatalf("truncate@%d: reopen recovered %d benches, want 3", n, got)
		}
		j2.Close()
	}
}

// TestSalvageBitFlipSweep flips one byte inside each record in turn;
// Open must drop the flipped record and everything after it (salvage
// stops at the first bad line) without ever panicking or surfacing a
// corrupted payload.
func TestSalvageBitFlipSweep(t *testing.T) {
	_, data, ends := writeSweepJournal(t)
	for rec := 0; rec < len(ends); rec++ {
		start := int64(0)
		if rec > 0 {
			start = ends[rec-1]
		}
		// Flip a byte in the middle of the record's payload region.
		pos := (start + ends[rec] - 1) / 2
		mut := append([]byte(nil), data...)
		mut[pos] ^= 0x40
		if mut[pos] == '\n' { // don't manufacture a record boundary
			mut[pos] ^= 0x01
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, FileName), mut, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := Open(dir, sweepMeta())
		if rec == 0 {
			// A flipped meta CRC means zero salvageable records before
			// the corruption, so the journal restarts fresh; a meta
			// whose CRC survives but whose payload changed must fail
			// the fingerprint match instead. Either way, no corrupted
			// state may load.
			if err != nil && !errors.Is(err, ErrMetaMismatch) {
				t.Fatalf("flip rec0: unexpected error class: %v", err)
			}
			if err == nil {
				if got := j.Recovered(); got != 0 {
					t.Fatalf("flip rec0: salvaged %d benches through corrupt meta", got)
				}
				j.Close()
			}
			continue
		}
		if err != nil {
			t.Fatalf("flip rec%d: open: %v", rec, err)
		}
		want := rec - 1 // benches before the flipped record
		if want > 3 {
			want = 3
		}
		if got := j.Recovered(); got != want {
			t.Fatalf("flip rec%d: recovered %d benches, want %d", rec, got, want)
		}
		for i := 0; i < want; i++ {
			raw, ok := j.Lookup(fmt.Sprintf("b%d", i))
			if !ok {
				t.Fatalf("flip rec%d: bench b%d lost", rec, i)
			}
			if want := fmt.Sprintf(`{"cycles":%d}`, 100*(i+1)); string(raw) != want {
				t.Fatalf("flip rec%d: bench b%d payload corrupted: %s", rec, i, raw)
			}
		}
		j.Close()
	}
}

// TestAppendRollbackAfterTornWrite injects a short write into one
// append: the append must fail, the torn bytes must be cut back out,
// and the NEXT append must land on a clean line that survives reopen.
func TestAppendRollbackAfterTornWrite(t *testing.T) {
	sim := iofault.NewSim()
	plan := iofault.NewPlan(1).SetAt(iofault.KindShortWrite, 2) // meta is write #1
	j, err := OpenFS(iofault.Wrap(sim, plan), "run", sweepMeta())
	if err != nil {
		t.Fatal(err)
	}
	if err := j.AppendBench("b0", map[string]int{"cycles": 100}); !errors.Is(err, syscall.EIO) {
		t.Fatalf("torn append err = %v, want EIO", err)
	}
	// The journal rolled the tear back; later appends must succeed.
	if err := j.AppendBench("b1", map[string]int{"cycles": 200}); err != nil {
		t.Fatalf("append after rollback: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenFS(sim, "run", sweepMeta())
	if err != nil {
		t.Fatal(err)
	}
	if got := j2.Recovered(); got != 1 {
		t.Fatalf("recovered %d benches, want 1 (b1)", got)
	}
	if _, ok := j2.Lookup("b1"); !ok {
		t.Fatal("bench appended after rollback was lost")
	}
	if got := j2.Truncated(); got != 0 {
		t.Fatalf("reopen found %d torn bytes; rollback should have removed them", got)
	}
}

// TestAppendStickyBrokenAfterSyncEIO: a failed fsync leaves durability
// unknown, so the journal must refuse all further appends with
// ErrBroken rather than risk interleaving records at an untrusted
// offset.
func TestAppendStickyBrokenAfterSyncEIO(t *testing.T) {
	sim := iofault.NewSim()
	// sync-eio ops: meta fsync (1), create's dir fsync (2), b0 fsync (3).
	plan := iofault.NewPlan(1).SetAt(iofault.KindSyncEIO, 3)
	j, err := OpenFS(iofault.Wrap(sim, plan), "run", sweepMeta())
	if err != nil {
		t.Fatal(err)
	}
	if err := j.AppendBench("b0", map[string]int{"cycles": 100}); !errors.Is(err, syscall.EIO) {
		t.Fatalf("append with failed fsync err = %v, want EIO", err)
	}
	if err := j.AppendBench("b1", map[string]int{"cycles": 200}); !errors.Is(err, ErrBroken) {
		t.Fatalf("append after failed fsync err = %v, want ErrBroken", err)
	}
	j.Close()
	// Reopen salvages the prefix; the record whose fsync failed did hit
	// the (simulated) page cache, so it is either present or truncated —
	// both are valid, corruption is not.
	j2, err := OpenFS(sim, "run", sweepMeta())
	if err != nil {
		t.Fatalf("reopen after sync failure: %v", err)
	}
	j2.Close()
}

// TestFsyncLieLosesOnlyTail: an fsync that lies (acks then drops)
// followed by a crash must cost at most the lied-about records; Open
// afterwards replays the valid durable prefix, never a corrupt result.
func TestFsyncLieLosesOnlyTail(t *testing.T) {
	// The journal lives in the sim root (the always-durable mount
	// point) so the crash exercises file-content durability, not the
	// enclosing directory's.
	sim := iofault.NewSim()
	// Lie on the 3rd file fsync: meta and b0 are durable, b1 is not.
	plan := iofault.NewPlan(1).SetAt(iofault.KindSyncLie, 3)
	j, err := OpenFS(iofault.Wrap(sim, plan), ".", sweepMeta())
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"b0", "b1", "b2"} {
		if err := j.AppendBench(name, map[string]int{"cycles": 100 * (i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	sim.Crash()
	j2, err := OpenFS(sim, ".", sweepMeta())
	if err != nil {
		t.Fatalf("open after crash: %v", err)
	}
	// b2's successful fsync also flushed b1's lied-about bytes (fsync
	// flushes the whole file), so everything before the crash survives
	// here; the invariant under test is "valid prefix, no corruption".
	for _, name := range j2.Benchmarks() {
		raw, ok := j2.Lookup(name)
		if !ok || !strings.HasPrefix(string(raw), `{"cycles":`) {
			t.Fatalf("corrupted salvage for %s: %s", name, raw)
		}
	}
	j2.Close()

	// Now lie on the LAST fsync before the crash: that record must
	// simply be gone, with the prefix intact.
	sim2 := iofault.NewSim()
	plan2 := iofault.NewPlan(1).SetAt(iofault.KindSyncLie, 3)
	k, err := OpenFS(iofault.Wrap(sim2, plan2), ".", sweepMeta())
	if err != nil {
		t.Fatal(err)
	}
	if err := k.AppendBench("b0", map[string]int{"cycles": 100}); err != nil {
		t.Fatal(err)
	}
	if err := k.AppendBench("b1", map[string]int{"cycles": 200}); err != nil {
		t.Fatal(err) // fsync #3: the lie
	}
	sim2.Crash()
	k2, err := OpenFS(sim2, ".", sweepMeta())
	if err != nil {
		t.Fatalf("open after crash: %v", err)
	}
	if got := k2.Recovered(); got != 1 {
		t.Fatalf("recovered %d benches, want exactly the durable b0", got)
	}
	if _, ok := k2.Lookup("b0"); !ok {
		t.Fatal("durable bench b0 lost")
	}
	k2.Close()
}

// TestOpenENOSPCSurfacesError: a full disk during create must surface
// a classified ENOSPC, and a rerun once space returns must succeed.
func TestOpenENOSPCSurfacesError(t *testing.T) {
	sim := iofault.NewSim()
	plan := iofault.NewPlan(1).SetAt(iofault.KindWriteENOSPC, 1)
	if _, err := OpenFS(iofault.Wrap(sim, plan), "run", sweepMeta()); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("create on full disk err = %v, want ENOSPC", err)
	}
	j, err := OpenFS(sim, "run", sweepMeta())
	if err != nil {
		t.Fatalf("rerun after space freed: %v", err)
	}
	j.Close()
}

// TestSalvageSkipsUnknownKinds: a well-formed record of a kind the
// journal does not interpret is skipped, and salvage continues past it
// to the bench records that follow.
func TestSalvageSkipsUnknownKinds(t *testing.T) {
	sim := iofault.NewSim()
	j, err := OpenFS(sim, "run", sweepMeta())
	if err != nil {
		t.Fatal(err)
	}
	if err := j.append("lease", []byte(`{"id":"lease-1"}`)); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendBench("b0", map[string]int{"v": 0}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	j2, err := OpenFS(sim, "run", sweepMeta())
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Recovered() != 1 || j2.Truncated() != 0 {
		t.Fatalf("recovered %d, truncated %d; want 1 bench and no truncation", j2.Recovered(), j2.Truncated())
	}
	if _, ok := j2.Lookup("b0"); !ok {
		t.Fatal("bench record after an unknown kind lost")
	}
}
