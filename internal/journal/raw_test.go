package journal

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestAppendBenchRawIdempotent checks the journal's durable exactly-once
// backstop: re-appending the identical payload is a no-op,
// a conflicting payload for the same benchmark is refused, and invalid
// JSON never reaches the file.
func TestAppendBenchRawIdempotent(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	raw := []byte(`{"Name":"awk","Par":1.5}`)
	if err := j.AppendBenchRaw("awk", raw); err != nil {
		t.Fatal(err)
	}
	// Identical duplicate: a retried completion.
	if err := j.AppendBenchRaw("awk", raw); err != nil {
		t.Fatalf("idempotent re-append = %v", err)
	}
	// Conflicting duplicate: two different results claiming one cell.
	err = j.AppendBenchRaw("awk", []byte(`{"Name":"awk","Par":2.5}`))
	if !errors.Is(err, ErrResultConflict) {
		t.Fatalf("conflicting re-append = %v, want ErrResultConflict", err)
	}
	if err := j.AppendBenchRaw("ccom", []byte(`{not json`)); err == nil {
		t.Fatal("invalid JSON accepted")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(filepath.Join(dir, FileName))
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(data), " bench "); got != 1 {
		t.Errorf("journal holds %d bench records, want exactly 1:\n%s", got, data)
	}

	// The surviving record must recover with the original payload.
	j2, err := Open(dir, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	got, ok := j2.Lookup("awk")
	if !ok || !strings.Contains(string(got), `"Par":1.5`) {
		t.Errorf("recovered payload = %q, %v", got, ok)
	}
}

// TestMetaFingerprint checks the exported fingerprint matches the
// resume gate's internal form: informational fields are excluded, and
// any result-affecting field participates.
func TestMetaFingerprint(t *testing.T) {
	a, b := testMeta(), testMeta()
	b.GitSHA = "different"
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("GitSHA participates in the fingerprint; a rebuilt binary could never resume")
	}
	b.Scale = a.Scale + 1
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("Scale does not participate in the fingerprint")
	}
}
