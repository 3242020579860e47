package runner

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"time"

	"github.com/uteda/gmap/internal/fault"
)

// A checkpoint file is JSON Lines: one entry per successfully executed
// job, appended and flushed as the job completes so that killing the
// process loses at most the line being written. Keys are stable job
// hashes (see JobKey), so a resumed run with identical parameters maps
// its jobs onto recorded results; a run with different parameters hashes
// to different keys and shares nothing.
//
// Recovery contract (DESIGN.md §9): only the final line of a checkpoint
// can be torn — every earlier line was newline-terminated and flushed
// before the next began. Every run that names a checkpoint, resumed or
// not, salvages the longest valid prefix and truncates the torn tail,
// so appends never glue new entries onto leftover garbage. A resumed
// run skips every key it can decode, so re-recorded keys never pile up
// and the file needs no compaction.
type checkpointEntry struct {
	Key       string          `json:"key"`
	Value     json.RawMessage `json:"value"`
	ElapsedNS int64           `json:"elapsed_ns,omitempty"`
}

// Salvage reports what checkpoint recovery found and did.
type Salvage struct {
	// Entries is the number of distinct keys with a valid recorded value.
	Entries int
	// Lines is the total count of valid entry lines (re-recorded keys
	// count once per line, so Lines > Entries means a key was recorded
	// more than once).
	Lines int
	// BadLines counts newline-terminated lines that did not parse —
	// mid-file corruption, never produced by a clean kill.
	BadLines int
	// TornBytes is the length of the unparsable tail after the last valid
	// line: the signature of a kill mid-flush.
	TornBytes int64
	// Truncated reports whether the torn tail was cut from the file.
	Truncated bool
	// FirstKey is the first valid key recorded in the file — a sample of
	// the checkpoint's job universe, used to make resume-mismatch errors
	// concrete.
	FirstKey string
	// DivergentLines counts re-recorded keys whose payload bytes differ
	// from the previously recorded value. A single process re-running a
	// job writes the same bytes (results are deterministic), so a
	// divergent line means two different job universes were merged into
	// one file. SalvageCheckpoint keeps the later value; SalvageStrict
	// refuses the file.
	DivergentLines int
	// FirstDivergentKey names the first key whose re-recorded payload
	// differed, so strict-merge errors can be concrete.
	FirstDivergentKey string
}

// ckptScan is the parsed state of a checkpoint file.
type ckptScan struct {
	entries map[string]checkpointEntry
	salvage Salvage
	endOff  int64 // offset just past the last valid line
	size    int64 // total bytes scanned
}

// scanCheckpoint reads and classifies every line of the checkpoint at
// path. A missing file yields an empty scan. Later entries for the same
// key win.
func scanCheckpoint(fsys fault.FS, path string) (*ckptScan, error) {
	sc := &ckptScan{entries: make(map[string]checkpointEntry)}
	f, err := fsys.Open(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return sc, nil
		}
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	for {
		line, err := br.ReadBytes('\n')
		n := len(line)
		if n > 0 && line[n-1] == '\n' {
			trimmed := bytes.TrimSpace(line)
			var e checkpointEntry
			if len(trimmed) > 0 {
				if json.Unmarshal(trimmed, &e) == nil && e.Key != "" {
					if prev, seen := sc.entries[e.Key]; !seen {
						if sc.salvage.FirstKey == "" {
							sc.salvage.FirstKey = e.Key
						}
					} else if !bytes.Equal(prev.Value, e.Value) {
						if sc.salvage.DivergentLines == 0 {
							sc.salvage.FirstDivergentKey = e.Key
						}
						sc.salvage.DivergentLines++
					}
					sc.entries[e.Key] = e
					sc.salvage.Lines++
					sc.endOff = sc.size + int64(n)
				} else {
					sc.salvage.BadLines++
				}
			} else {
				// A blank line is valid padding, not corruption; keep it
				// inside the salvaged prefix.
				sc.endOff = sc.size + int64(n)
			}
		}
		sc.size += int64(n)
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return nil, fmt.Errorf("runner: reading checkpoint %s: %w", path, err)
		}
	}
	sc.salvage.Entries = len(sc.entries)
	sc.salvage.TornBytes = sc.size - sc.endOff
	return sc, nil
}

// values extracts the recorded raw values by key.
func (sc *ckptScan) values() map[string]json.RawMessage {
	m := make(map[string]json.RawMessage, len(sc.entries))
	for k, e := range sc.entries {
		m[k] = e.Value
	}
	return m
}

// LoadCheckpoint reads the checkpoint at path and returns recorded
// values by job key. A missing file yields an empty map. Lines that do
// not parse — typically the torn final write of a killed run — are
// skipped; later entries for the same key win. The file is not modified;
// use SalvageCheckpoint to also truncate a torn tail before appending.
func LoadCheckpoint(path string) (map[string]json.RawMessage, error) {
	sc, err := scanCheckpoint(fault.OS, path)
	if err != nil {
		return nil, err
	}
	return sc.values(), nil
}

// SalvageCheckpoint loads the checkpoint at path and makes it safe to
// append to again: a torn trailing write (the signature of a SIGKILL
// mid-flush) is cut from the file so the next appended line cannot glue
// onto leftover garbage and be lost on a later resume. fsys nil selects
// the real filesystem.
func SalvageCheckpoint(fsys fault.FS, path string) (map[string]json.RawMessage, Salvage, error) {
	if fsys == nil {
		fsys = fault.OS
	}
	sc, err := scanCheckpoint(fsys, path)
	if err != nil {
		return nil, Salvage{}, err
	}
	if sc.salvage.TornBytes > 0 {
		if err := fsys.Truncate(path, sc.endOff); err != nil {
			return nil, sc.salvage, fmt.Errorf("runner: truncating torn checkpoint tail of %s: %w", path, err)
		}
		sc.salvage.Truncated = true
	}
	return sc.values(), sc.salvage, nil
}

// checkpointWriter appends entries to a checkpoint file, flushing each
// line so progress survives an abrupt kill. With fsync enabled every
// append is also synced to stable storage, extending the guarantee from
// process death to power loss. All error paths propagate: a checkpoint
// that cannot record progress fails the run loudly instead of silently
// losing entries.
type checkpointWriter struct {
	f     fault.File
	bw    *bufio.Writer
	fsync bool
}

func openCheckpoint(fsys fault.FS, path string, fsync bool) (*checkpointWriter, error) {
	if fsys == nil {
		fsys = fault.OS
	}
	f, err := fsys.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &checkpointWriter{f: f, bw: bufio.NewWriter(f), fsync: fsync}, nil
}

func (c *checkpointWriter) append(key string, value any, elapsed time.Duration) error {
	raw, err := json.Marshal(value)
	if err != nil {
		return err
	}
	line, err := json.Marshal(checkpointEntry{Key: key, Value: raw, ElapsedNS: elapsed.Nanoseconds()})
	if err != nil {
		return err
	}
	if _, err := c.bw.Write(append(line, '\n')); err != nil {
		return err
	}
	if err := c.bw.Flush(); err != nil {
		return err
	}
	if c.fsync {
		return c.f.Sync()
	}
	return nil
}

func (c *checkpointWriter) close() error {
	if err := c.bw.Flush(); err != nil {
		c.f.Close()
		return err
	}
	return c.f.Close()
}

// SalvageStrict is SalvageCheckpoint for merged ledgers: files whose
// entries arrive from many writers (the distributed coordinator's
// journal) where a re-recorded key is only legitimate when it carries
// byte-identical payload — the same job executed twice. A re-recorded
// key with a different payload means two different job universes (or a
// nondeterministic job) were merged into one file; that is never safe
// to replay, so SalvageStrict returns an error naming the first such
// key instead of silently letting the later line win. Identical
// duplicates and a torn trailing write are recovered exactly as in
// SalvageCheckpoint.
func SalvageStrict(fsys fault.FS, path string) (map[string]json.RawMessage, Salvage, error) {
	vals, sv, err := SalvageCheckpoint(fsys, path)
	if err != nil {
		return vals, sv, err
	}
	if sv.DivergentLines > 0 {
		return nil, sv, fmt.Errorf(
			"runner: checkpoint %s holds divergent payloads for job %q (%d divergent lines): refusing to merge",
			path, sv.FirstDivergentKey, sv.DivergentLines)
	}
	return vals, sv, nil
}

// A CheckpointAppender appends externally produced entries to a
// checkpoint file, one flushed line per Append, with the same torn-tail
// recovery contract as the runner's own writer: kill the process at any
// byte and SalvageCheckpoint/SalvageStrict recover every completed
// line. It is the distributed coordinator's merge path — results
// streamed back from workers become ordinary checkpoint entries that
// the existing resume machinery replays. Values must be valid JSON;
// they are compacted on write so byte-level payload comparison
// (SalvageStrict) is insensitive to wire formatting. Not safe for
// concurrent use.
type CheckpointAppender struct {
	w *checkpointWriter
}

// OpenCheckpointAppender opens path for appending. fsys nil selects the
// real filesystem; fsync extends the durability guarantee from process
// death to power loss. Callers that may be appending to a previously
// written file should salvage it first (SalvageStrict) so new lines
// cannot glue onto a torn tail.
func OpenCheckpointAppender(fsys fault.FS, path string, fsync bool) (*CheckpointAppender, error) {
	w, err := openCheckpoint(fsys, path, fsync)
	if err != nil {
		return nil, err
	}
	return &CheckpointAppender{w: w}, nil
}

// Append records one entry. elapsed is advisory, never part of
// identity: entries for the same key may legitimately differ in elapsed
// but never in value.
func (a *CheckpointAppender) Append(key string, value json.RawMessage, elapsed time.Duration) error {
	if key == "" {
		return errors.New("runner: checkpoint append with empty key")
	}
	if !json.Valid(value) {
		return fmt.Errorf("runner: checkpoint append for job %q: value is not valid JSON", key)
	}
	return a.w.append(key, value, elapsed)
}

// Close flushes and closes the underlying file.
func (a *CheckpointAppender) Close() error {
	return a.w.close()
}
