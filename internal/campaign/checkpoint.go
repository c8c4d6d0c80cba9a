package campaign

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
)

// The checkpoint format (DESIGN.md §3b) is a JSONL file: a header line
// identifying the spec, then one record per completed job. Records are
// flushed as they land, so a killed process loses at most the job results
// that were in flight; a torn trailing line is tolerated on load. Only
// successful jobs are recorded — failed jobs are deterministic functions
// of the spec and are simply re-run on resume.
//
// Format 2 accompanies spec schema v2: the header names the engine
// version explicitly and spec_hash covers the spec's canonical (scenario)
// form, so a legacy-form spec and its scenario-form equivalent share
// checkpoints. Format-1 files predate the scenario engine and are
// rejected (their results were derived from different streams).
const checkpointFormat = "dyntreecast-checkpoint/2"

type checkpointHeader struct {
	Format   string `json:"format"`
	Engine   string `json:"engine"`
	SpecHash string `json:"spec_hash"`
	Jobs     int    `json:"jobs"`
}

type checkpointRecord struct {
	Index        int           `json:"index"`
	Measurements []Measurement `json:"measurements"`
}

// SpecHash returns the stable identity of a spec for checkpoint
// validation: a hex SHA-256 over the engine version and the spec's
// canonical JSON. Any change to the spec — or to the engine semantics —
// yields a different hash, so a checkpoint can never be resumed against
// work it does not describe. The hash covers what determines results,
// not presentation: the display Name is ignored, the default goal is
// spelled out, and the spec is canonicalized first (legacy
// adversaries/ks rewritten into ground scenarios), so every equivalent
// spelling of a campaign shares checkpoints. An invalid spec hashes its
// raw form — still deterministic, never resumable against valid work.
func SpecHash(spec Spec) string {
	if canon, err := spec.Canonical(); err == nil {
		spec = canon
	}
	spec.Name = ""
	spec.Goal = spec.goalName()
	data, err := json.Marshal(spec)
	if err != nil {
		// Spec is a plain struct of marshalable fields; this cannot fail.
		panic(fmt.Sprintf("campaign: marshaling spec: %v", err))
	}
	h := sha256.New()
	io.WriteString(h, EngineVersion+"|spec|")
	h.Write(data)
	return hex.EncodeToString(h.Sum(nil))
}

// Checkpoint is the loaded state of a checkpoint file: which jobs of
// which spec completed, with their measurements.
type Checkpoint struct {
	SpecHash string
	Jobs     int
	Results  map[int][]Measurement
}

// LoadCheckpoint parses a checkpoint stream. A torn trailing line (the
// mark of a killed writer) is tolerated; a missing or foreign header is
// an error.
func LoadCheckpoint(r io.Reader) (*Checkpoint, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("campaign: reading checkpoint: %w", err)
		}
		return nil, errors.New("campaign: empty checkpoint")
	}
	var hdr checkpointHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil || hdr.Format != checkpointFormat {
		return nil, fmt.Errorf("campaign: not a %s file", checkpointFormat)
	}
	if hdr.Engine != "" && hdr.Engine != EngineVersion {
		return nil, fmt.Errorf("campaign: checkpoint written by %s, this engine is %s", hdr.Engine, EngineVersion)
	}
	cp := &Checkpoint{SpecHash: hdr.SpecHash, Jobs: hdr.Jobs, Results: make(map[int][]Measurement)}
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec checkpointRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			// Torn tail from an interrupted writer: keep what we have.
			break
		}
		if rec.Index < 0 || (hdr.Jobs > 0 && rec.Index >= hdr.Jobs) {
			continue
		}
		cp.Results[rec.Index] = rec.Measurements
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("campaign: reading checkpoint: %w", err)
	}
	return cp, nil
}

// LoadCheckpointFile parses the checkpoint at path.
func LoadCheckpointFile(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("campaign: opening checkpoint: %w", err)
	}
	defer f.Close()
	cp, err := LoadCheckpoint(f)
	if err != nil {
		return nil, fmt.Errorf("campaign: %s: %w", path, err)
	}
	return cp, nil
}

// Validate reports whether the checkpoint belongs to spec.
func (c *Checkpoint) Validate(spec Spec) error {
	if want := SpecHash(spec); c.SpecHash != want {
		return fmt.Errorf("campaign: checkpoint belongs to a different spec (hash %.12s, want %.12s)",
			c.SpecHash, want)
	}
	return nil
}

// Completed converts the checkpoint into the Config.Completed form: one
// reusable JobResult per recorded job.
func (c *Checkpoint) Completed() map[int]JobResult {
	out := make(map[int]JobResult, len(c.Results))
	for idx, ms := range c.Results {
		out[idx] = JobResult{Index: idx, Measurements: ms}
	}
	return out
}

// ResumeSpec continues an interrupted campaign: the checkpoint's jobs are
// reused, every other job is executed, and the aggregated Outcome — and
// its JSON artifact — is byte-identical to an uninterrupted run of the
// same spec, for any worker count. The checkpoint must belong to spec
// (Validate); Outcome.Reused reports how many jobs were skipped.
func ResumeSpec(ctx context.Context, spec Spec, cp *Checkpoint, cfg Config) (*Outcome, error) {
	if err := cp.Validate(spec); err != nil {
		return nil, err
	}
	merged := cp.Completed()
	for idx, r := range cfg.Completed {
		merged[idx] = r
	}
	cfg.Completed = merged
	return RunSpec(ctx, spec, cfg)
}

// CheckpointWriter appends completed-job records to a checkpoint stream.
// Its Record method matches Config.OnResult, so wiring a writer into a
// run is one field assignment. Records are flushed per line; failed or
// skipped jobs are not recorded. Writes after the first error are
// dropped — check Err (or Close) once the run finishes.
type CheckpointWriter struct {
	mu  sync.Mutex
	buf *bufio.Writer
	err error
}

// NewCheckpointWriter starts a fresh checkpoint for spec on w, writing
// the header immediately. jobs is the spec's job count (Spec.JobCount).
func NewCheckpointWriter(w io.Writer, spec Spec, jobs int) (*CheckpointWriter, error) {
	cw := &CheckpointWriter{buf: bufio.NewWriter(w)}
	hdr := checkpointHeader{Format: checkpointFormat, Engine: EngineVersion, SpecHash: SpecHash(spec), Jobs: jobs}
	if err := cw.writeLine(hdr); err != nil {
		return nil, fmt.Errorf("campaign: writing checkpoint header: %w", err)
	}
	return cw, nil
}

// AppendingCheckpointWriter returns a writer that appends records to an
// existing checkpoint stream without re-writing the header (the resume
// path).
func AppendingCheckpointWriter(w io.Writer) *CheckpointWriter {
	return &CheckpointWriter{buf: bufio.NewWriter(w)}
}

func (cw *CheckpointWriter) writeLine(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if _, err := cw.buf.Write(append(data, '\n')); err != nil {
		return err
	}
	return cw.buf.Flush()
}

// Record appends one job result; failed and skipped jobs are ignored.
func (cw *CheckpointWriter) Record(r JobResult) {
	if r.Err != nil || r.Skipped {
		return
	}
	cw.mu.Lock()
	defer cw.mu.Unlock()
	if cw.err != nil {
		return
	}
	cw.err = cw.writeLine(checkpointRecord{Index: r.Index, Measurements: r.Measurements})
	if cw.err == nil {
		mCheckpointRecords.Inc()
	}
}

// Err returns the first write error, if any.
func (cw *CheckpointWriter) Err() error {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	return cw.err
}

// CheckpointFile couples a checkpoint on disk with a campaign run: Open
// resumes the file if it already holds a matching checkpoint (completed
// jobs are reused, new records appended) and starts a fresh one
// otherwise. Wire installs it into a Config; Close flushes and closes
// the file and reports any write error.
type CheckpointFile struct {
	// Completed holds the reusable results loaded from an existing file
	// (empty for a fresh checkpoint).
	Completed map[int]JobResult
	w         *CheckpointWriter
	f         *os.File
}

// OpenCheckpointFile opens path for checkpointing spec. An existing
// non-empty file must be a checkpoint of this exact spec — a mismatch is
// an error, not silent truncation of someone else's work.
func OpenCheckpointFile(path string, spec Spec) (*CheckpointFile, error) {
	jobs, err := spec.JobCount()
	if err != nil {
		return nil, err
	}
	if st, err := os.Stat(path); err == nil && st.Size() > 0 {
		cp, err := LoadCheckpointFile(path)
		if err != nil {
			return nil, err
		}
		if err := cp.Validate(spec); err != nil {
			return nil, fmt.Errorf("%w (refusing to overwrite %s)", err, path)
		}
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("campaign: opening checkpoint for append: %w", err)
		}
		return &CheckpointFile{Completed: cp.Completed(), w: AppendingCheckpointWriter(f), f: f}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("campaign: creating checkpoint: %w", err)
	}
	w, err := NewCheckpointWriter(f, spec, jobs)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &CheckpointFile{Completed: map[int]JobResult{}, w: w, f: f}, nil
}

// Wire returns cfg with the checkpoint installed: loaded results are
// reused and fresh results are recorded, chained before any OnResult
// already present.
func (cf *CheckpointFile) Wire(cfg Config) Config {
	merged := make(map[int]JobResult, len(cf.Completed)+len(cfg.Completed))
	for idx, r := range cf.Completed {
		merged[idx] = r
	}
	for idx, r := range cfg.Completed {
		merged[idx] = r
	}
	cfg.Completed = merged
	next := cfg.OnResult
	cfg.OnResult = func(r JobResult) {
		cf.w.Record(r)
		if next != nil {
			next(r)
		}
	}
	return cfg
}

// Close flushes and closes the underlying file, reporting the first
// write error of the checkpoint's lifetime.
func (cf *CheckpointFile) Close() error {
	werr := cf.w.Err()
	cerr := cf.f.Close()
	if werr != nil {
		return fmt.Errorf("campaign: checkpoint write failed: %w", werr)
	}
	if cerr != nil {
		return fmt.Errorf("campaign: closing checkpoint: %w", cerr)
	}
	return nil
}
