package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"ilplimit/internal/iofault"
)

// Magic prefixes every record line and names the on-disk format version.
const Magic = "ilpj1"

// SchemaVersion identifies the JSON schema of the journal's meta and
// bench payloads.  Bump it when a payload field changes meaning; a
// journal written under a different schema never resumes.
const SchemaVersion = 1

// FileName is the journal file inside the journal directory.
const FileName = "journal.ilpj"

// ErrMetaMismatch is returned by Open when the directory already holds a
// journal written by a run with a different configuration fingerprint —
// resuming it would splice results from incompatible runs.
var ErrMetaMismatch = errors.New("journal: existing journal belongs to a different run configuration")

// ErrBroken is returned by Append* after an earlier append failed in a
// way that leaves the file position untrusted (a torn write that could
// not be rolled back, or a failed fsync whose durability is unknown).
// The journal refuses further appends so a half-written line can never
// prefix-corrupt the next record; reopening the directory salvages the
// valid prefix.
var ErrBroken = errors.New("journal: unusable after earlier append failure")

// Meta is the configuration fingerprint a journal belongs to.  Open
// refuses to resume a journal whose recovered Meta differs in any field
// that changes benchmark results; GitSHA is informational (a rebuild of
// the same configuration may resume) and excluded from the match.
type Meta struct {
	// SchemaVersion is the journal payload schema (SchemaVersion).
	SchemaVersion int `json:"schema_version"`
	// GitSHA records the source revision of the writing binary, so a
	// resumed run is distinguishable from a fresh one in the artifacts.
	GitSHA string `json:"git_sha,omitempty"`
	// Scale, MemWords, Optimize and StepLimit are the Options fields that
	// change benchmark results.
	Scale     int   `json:"scale"`
	MemWords  int   `json:"mem_words"`
	Optimize  bool  `json:"optimize,omitempty"`
	StepLimit int64 `json:"step_limit,omitempty"`
	// Models and Benchmarks pin the analyzed model set and the suite
	// entries, in run order.
	Models     []string `json:"models"`
	Benchmarks []string `json:"benchmarks"`
}

// fingerprint is the canonical comparison form of a Meta: its JSON with
// the informational fields cleared.
func (m Meta) fingerprint() []byte {
	m.GitSHA = ""
	b, _ := json.Marshal(m)
	return b
}

// Fingerprint returns the canonical comparison form of the Meta — its
// JSON with the informational fields cleared.  A journal resumes only
// under a run whose fingerprint is equal to the one it was written with.
func (m Meta) Fingerprint() string { return string(m.fingerprint()) }

// Journal is a crash-safe, append-only record log for one suite run.
// Every Append writes one checksummed line and fsyncs before returning,
// so a record is either fully on disk or absent: a kill -9 can lose at
// most the benchmark in flight.  All methods are safe for concurrent use.
type Journal struct {
	mu        sync.Mutex
	fsys      iofault.FS
	f         iofault.File
	path      string
	meta      Meta
	benches   map[string]json.RawMessage // completed benchmark payloads by name
	order     []string                   // bench record names in journal order
	recovered int
	truncated int64 // corrupt tail bytes dropped during recovery (0 = clean)
	off       int64 // end offset of the last fully appended record
	broken    error // sticky first unrecoverable append failure
}

// benchPayload is the JSON payload of a "bench" record.
type benchPayload struct {
	Name   string          `json:"name"`
	Result json.RawMessage `json:"result"`
}

// notePayload is the JSON payload of a "note" record.
type notePayload struct {
	Note string `json:"note"`
}

// Open creates or resumes the journal file FileName in dir on the real
// filesystem.  A fresh directory gets a new journal stamped with meta;
// an existing journal is recovered — every complete, checksum-valid
// record is salvaged, a corrupted (truncated or bad-CRC) tail is
// dropped and the file truncated back to the last good record — and
// must carry a matching meta fingerprint (ErrMetaMismatch otherwise).
// Recovered returns how many benchmark records survived.
func Open(dir string, meta Meta) (*Journal, error) {
	return OpenFS(iofault.OS(), dir, meta)
}

// OpenFS is Open over an explicit filesystem, through which I/O faults
// can be injected in tests and chaos runs.
func OpenFS(fsys iofault.FS, dir string, meta Meta) (*Journal, error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{
		fsys:    fsys,
		path:    filepath.Join(dir, FileName),
		meta:    meta,
		benches: make(map[string]json.RawMessage),
	}
	data, err := fsys.ReadFile(j.path)
	switch {
	case errors.Is(err, os.ErrNotExist) || (err == nil && len(data) == 0):
		return j.create()
	case err != nil:
		return nil, fmt.Errorf("journal: %w", err)
	}
	return j.recover(data)
}

// create starts a new journal whose first record is the meta fingerprint.
func (j *Journal) create() (*Journal, error) {
	f, err := j.fsys.OpenFile(j.path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j.f = f
	j.off = 0
	payload, err := json.Marshal(j.meta)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: %w", err)
	}
	if err := j.append("meta", payload); err != nil {
		f.Close()
		return nil, err
	}
	if err := j.syncDir(filepath.Dir(j.path)); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// recover salvages the valid prefix of an existing journal, verifies its
// meta fingerprint, truncates any corrupt tail, and reopens for append.
// A file with no salvageable record at all (for example one whose very
// first meta append tore) is treated as fresh and recreated rather than
// rejected, so a run that crashed during creation can simply be rerun.
func (j *Journal) recover(data []byte) (*Journal, error) {
	valid := int64(0)
	sawMeta := false
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			break // incomplete final line: the record never finished writing
		}
		kind, payload, ok := parseRecord(data[:nl])
		if !ok {
			break // corrupt record: salvage stops at the first bad line
		}
		// Note records are informational and unknown kinds are skipped;
		// neither stops the salvage.
		switch kind {
		case "meta":
			var m Meta
			if err := json.Unmarshal(payload, &m); err != nil {
				return nil, fmt.Errorf("journal: meta record: %w", err)
			}
			if !bytes.Equal(m.fingerprint(), j.meta.fingerprint()) {
				return nil, fmt.Errorf("%w\n  journal: %s\n  run:     %s",
					ErrMetaMismatch, m.fingerprint(), j.meta.fingerprint())
			}
			sawMeta = true
		case "bench":
			var b benchPayload
			if err := json.Unmarshal(payload, &b); err != nil || b.Name == "" {
				break
			}
			if _, dup := j.benches[b.Name]; !dup {
				j.order = append(j.order, b.Name)
			}
			j.benches[b.Name] = b.Result
		}
		data = data[nl+1:]
		valid += int64(nl + 1)
	}
	if valid == 0 {
		// Nothing salvageable: the creating run died before its first
		// record landed.  Start over instead of wedging every rerun.
		j.truncated = int64(len(data))
		return j.create()
	}
	if !sawMeta {
		return nil, fmt.Errorf("journal: %s has no valid meta record", j.path)
	}
	j.recovered = len(j.benches)
	f, err := j.fsys.OpenFile(j.path, os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	if fi, err := f.Stat(); err == nil && fi.Size() > valid {
		j.truncated = fi.Size() - valid
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, fmt.Errorf("journal: truncating corrupt tail: %w", err)
		}
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: %w", err)
	}
	j.f = f
	j.off = valid
	return j, nil
}

// parseRecord splits one line (without its newline) into kind and
// payload, verifying the magic and the CRC32 of everything after it.
func parseRecord(line []byte) (kind string, payload []byte, ok bool) {
	rest, found := bytes.CutPrefix(line, []byte(Magic+" "))
	if !found || len(rest) < 9 || rest[8] != ' ' {
		return "", nil, false
	}
	var sum uint32
	if _, err := fmt.Sscanf(string(rest[:8]), "%08x", &sum); err != nil {
		return "", nil, false
	}
	body := rest[9:]
	if crc32.ChecksumIEEE(body) != sum {
		return "", nil, false
	}
	k, p, found := bytes.Cut(body, []byte(" "))
	if !found {
		return "", nil, false
	}
	return string(k), p, true
}

// append writes one checksummed record line and fsyncs.  Callers hold no
// lock; append takes it.  A failed or torn write is rolled back by
// truncating to the end of the last good record, so the next append
// starts on a clean line; if the rollback itself fails, or the fsync
// fails (leaving durability unknown), the journal turns sticky-broken
// and every later append reports ErrBroken.
func (j *Journal) append(kind string, payload []byte) error {
	if bytes.IndexByte(payload, '\n') >= 0 {
		return fmt.Errorf("journal: payload for %q record contains a newline", kind)
	}
	body := append(append([]byte(kind), ' '), payload...)
	line := fmt.Sprintf("%s %08x %s\n", Magic, crc32.ChecksumIEEE(body), body)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return errors.New("journal: closed")
	}
	if j.broken != nil {
		return fmt.Errorf("%w: %v", ErrBroken, j.broken)
	}
	if _, err := j.f.Write([]byte(line)); err != nil {
		if terr := j.rollback(); terr != nil {
			j.broken = fmt.Errorf("%v (rollback: %v)", err, terr)
		}
		return fmt.Errorf("journal: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		j.broken = err
		return fmt.Errorf("journal: %w", err)
	}
	j.off += int64(len(line))
	return nil
}

// rollback cuts the file back to the end of the last fully appended
// record after a torn write.  Caller holds j.mu.
func (j *Journal) rollback() error {
	if err := j.f.Truncate(j.off); err != nil {
		return err
	}
	_, err := j.f.Seek(j.off, io.SeekStart)
	return err
}

// AppendBench durably records one completed benchmark result.  The
// result must marshal to JSON; the record is fsync'd before AppendBench
// returns, so a crash immediately after still resumes past it.
func (j *Journal) AppendBench(name string, result interface{}) error {
	raw, err := json.Marshal(result)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return j.AppendBenchRaw(name, raw)
}

// ErrResultConflict is returned by AppendBenchRaw when a benchmark is
// recorded twice with different payloads — two sources claiming the same
// cell computed different results, which exactly-once ingestion must
// surface rather than silently overwrite.
var ErrResultConflict = errors.New("journal: conflicting duplicate result for benchmark")

// AppendBenchRaw durably records one completed benchmark result from its
// already-marshaled JSON, byte for byte.  Append is idempotent —
// re-recording a benchmark with the identical payload is a no-op, so a
// retried completion cannot duplicate a record — and a duplicate with a
// *different* payload fails with ErrResultConflict.
func (j *Journal) AppendBenchRaw(name string, raw json.RawMessage) error {
	if !json.Valid(raw) {
		return fmt.Errorf("journal: result payload for %q is not valid JSON", name)
	}
	j.mu.Lock()
	prev, dup := j.benches[name]
	j.mu.Unlock()
	if dup {
		if bytes.Equal(prev, raw) {
			return nil
		}
		return fmt.Errorf("%w %q", ErrResultConflict, name)
	}
	payload, err := json.Marshal(benchPayload{Name: name, Result: raw})
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := j.append("bench", payload); err != nil {
		return err
	}
	j.mu.Lock()
	if _, dup := j.benches[name]; !dup {
		j.order = append(j.order, name)
	}
	j.benches[name] = raw
	j.mu.Unlock()
	return nil
}

// AppendNote durably records a run-level annotation (for example a
// startup failure), so an interrupted run's journal explains itself.
func (j *Journal) AppendNote(note string) error {
	payload, err := json.Marshal(notePayload{Note: note})
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return j.append("note", payload)
}

// Lookup returns the journaled result payload for one benchmark, or
// false when the benchmark has not completed in any prior run.
func (j *Journal) Lookup(name string) (json.RawMessage, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	raw, ok := j.benches[name]
	return raw, ok
}

// Benchmarks lists the journaled benchmark names in record order.
func (j *Journal) Benchmarks() []string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]string(nil), j.order...)
}

// Recovered reports how many benchmark records Open salvaged from a
// previous run (0 for a fresh journal).
func (j *Journal) Recovered() int { return j.recovered }

// Truncated reports how many corrupt tail bytes Open dropped during
// recovery (0 when the journal was clean).
func (j *Journal) Truncated() int64 { return j.truncated }

// Meta returns the fingerprint the journal was opened with.
func (j *Journal) Meta() Meta { return j.meta }

// Path returns the journal file path.
func (j *Journal) Path() string { return j.path }

// Close releases the journal file.  Appended records are already
// durable; Close adds nothing beyond releasing the descriptor.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// syncDir fsyncs a directory so a freshly created journal file survives
// a crash of the whole machine, not just the process.
func (j *Journal) syncDir(dir string) error {
	if err := j.fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("journal: sync %s: %w", dir, err)
	}
	return nil
}
