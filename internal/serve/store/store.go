// Package store is the clone-and-simulate service's content-addressed
// persistence layer. It holds three kinds of immutable artifacts:
//
//   - profiles/<sha256>.json — canonicalized statistical profiles. A
//     profile's identity IS the SHA-256 of its canonical JSON encoding,
//     so byte-different submissions of the same profile deduplicate to
//     one stored object and one hash.
//   - results/<profile-hash>.<config-hash>.json — cached evaluation
//     results keyed by what was evaluated (the profile, or the builtin
//     benchmark selection) × how it was evaluated (the canonical job
//     configuration). Repeated evaluations are O(lookup).
//   - jobs/<job-id>.json — the submitted-job journal: a spec survives
//     here from admission until its result is committed, which is what
//     lets a restarted server re-enqueue in-flight work. Each journaled
//     job also owns a runner checkpoint at checkpoints/<job-id>.ckpt
//     carrying its partially-completed sweep points across restarts,
//     plus any sidecar files named <job-id>.ckpt.* next to it (the
//     sweep coordinator's epoch).
//
// Every write is crash-consistent: content goes to a temp file, is
// fsynced, and is renamed into place — a crash at any byte leaves
// previously-committed entries untouched and never exposes a partial
// object under a committed name. All file I/O goes through the
// internal/fault FS seam, so the crash matrix can script torn writes at
// chosen byte offsets (store_test.go does exactly that).
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"github.com/uteda/gmap/internal/fault"
	"github.com/uteda/gmap/internal/obs"
	"github.com/uteda/gmap/internal/profiler"
)

// Store is a content-addressed profile/result store rooted at one
// directory. Safe for concurrent use.
type Store struct {
	root string
	fs   fault.FS
	obs  *obs.Registry

	// mu serializes writers. Writes are temp+rename so readers never see
	// partial content; the lock only prevents two writers from fighting
	// over the same temp path.
	mu sync.Mutex
}

// Open creates (if needed) the store layout under root and returns the
// store. fsys nil selects the real filesystem; reg nil disables
// instrumentation. Directory creation happens here, once, outside the
// fault seam — the seam covers file content, which is where torn writes
// can corrupt state.
func Open(root string, fsys fault.FS, reg *obs.Registry) (*Store, error) {
	if fsys == nil {
		fsys = fault.OS
	}
	for _, dir := range []string{root, filepath.Join(root, "profiles"), filepath.Join(root, "results"), filepath.Join(root, "jobs"), filepath.Join(root, "checkpoints")} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("store: creating %s: %w", dir, err)
		}
	}
	return &Store{root: root, fs: fsys, obs: reg}, nil
}

// Root returns the store's root directory.
func (s *Store) Root() string { return s.root }

// HashBytes returns the store's content address for a byte string: the
// full SHA-256 hex digest.
func HashBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// CanonicalProfile returns the canonical encoding of a profile: the
// validated profile re-marshaled as compact JSON with struct fields in
// declaration order and map keys sorted (encoding/json guarantees both).
// Canonicalization is idempotent — decoding the canonical bytes and
// re-canonicalizing reproduces them exactly — so hash(canon(p)) is a
// stable identity however the submission was formatted.
func CanonicalProfile(p *profiler.Profile) ([]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return json.Marshal(p)
}

// validHash reports whether h looks like one of our content addresses;
// it is the path-traversal guard for hashes arriving from the API.
func validHash(h string) bool {
	if len(h) != 64 {
		return false
	}
	for _, c := range h {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// validID reports whether a job id is safe to embed in a filename.
func validID(id string) bool {
	if id == "" || len(id) > 128 {
		return false
	}
	for _, c := range id {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (s *Store) profilePath(hash string) string {
	return filepath.Join(s.root, "profiles", hash+".json")
}

func (s *Store) resultPath(profileHash, configHash string) string {
	return filepath.Join(s.root, "results", profileHash+"."+configHash+".json")
}

func (s *Store) jobPath(id string) string {
	return filepath.Join(s.root, "jobs", id+".json")
}

// CheckpointPath returns the runner checkpoint file owned by a journaled
// job — the durability seam that lets a restarted server resume the
// job's sweep from its last completed point.
func (s *Store) CheckpointPath(id string) string {
	return filepath.Join(s.root, "checkpoints", id+".ckpt")
}

// exists reports whether path currently holds a committed object.
func (s *Store) exists(path string) bool {
	f, err := s.fs.Open(path)
	if err != nil {
		return false
	}
	f.Close()
	return true
}

// writeAtomic commits data under path (fault.WriteFile). A crash at
// any byte of the temp write leaves path absent (or holding its previous
// content); a stale temp from an earlier crash is simply overwritten.
func (s *Store) writeAtomic(path string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := fault.WriteFile(s.fs, path, data); err != nil {
		return fmt.Errorf("store: writing %s: %w", path, err)
	}
	return nil
}

func (s *Store) readAll(path string) ([]byte, error) {
	f, err := s.fs.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}

// PutProfile canonicalizes and stores a profile, returning its content
// hash. A profile whose canonical form is already stored is deduplicated:
// nothing is rewritten and existed reports true.
func (s *Store) PutProfile(p *profiler.Profile) (hash string, existed bool, err error) {
	canon, err := CanonicalProfile(p)
	if err != nil {
		return "", false, err
	}
	hash = HashBytes(canon)
	if s.exists(s.profilePath(hash)) {
		s.obs.Counter("serve.store.profile_dedup").Inc()
		return hash, true, nil
	}
	if err := s.writeAtomic(s.profilePath(hash), canon); err != nil {
		return "", false, err
	}
	s.obs.Counter("serve.store.profiles_stored").Inc()
	return hash, false, nil
}

// ErrNotFound reports a lookup of an object the store has not committed.
var ErrNotFound = errors.New("store: object not found")

// GetProfile loads and revalidates a stored profile by content hash.
func (s *Store) GetProfile(hash string) (*profiler.Profile, error) {
	if !validHash(hash) {
		return nil, fmt.Errorf("store: malformed profile hash %q: %w", hash, ErrNotFound)
	}
	data, err := s.readAll(s.profilePath(hash))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("store: profile %s: %w", hash, ErrNotFound)
		}
		return nil, fmt.Errorf("store: reading profile %s: %w", hash, err)
	}
	p, err := profiler.ReadJSON(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("store: profile %s: %w", hash, err)
	}
	return p, nil
}

// HasProfile reports whether the profile hash is committed.
func (s *Store) HasProfile(hash string) bool {
	return validHash(hash) && s.exists(s.profilePath(hash))
}

// PutResult caches a finished evaluation's result bytes under
// profile-hash × config-hash. Results are immutable: a re-computation of
// a committed key is a no-op (the deterministic pipeline guarantees the
// bytes match).
func (s *Store) PutResult(profileHash, configHash string, data []byte) error {
	if !validHash(profileHash) || !validHash(configHash) {
		return fmt.Errorf("store: malformed result key %q × %q", profileHash, configHash)
	}
	path := s.resultPath(profileHash, configHash)
	if s.exists(path) {
		return nil
	}
	if err := s.writeAtomic(path, data); err != nil {
		return err
	}
	s.obs.Counter("serve.store.results_stored").Inc()
	return nil
}

// GetResult returns the cached result for profile-hash × config-hash,
// with ok reporting whether the cache held it. The hit/miss counters
// ("serve.store.result_hits"/"serve.store.result_misses") are how the
// end-to-end tests verify a repeated submission was served from cache.
func (s *Store) GetResult(profileHash, configHash string) (data []byte, ok bool, err error) {
	if !validHash(profileHash) || !validHash(configHash) {
		return nil, false, nil
	}
	data, rerr := s.readAll(s.resultPath(profileHash, configHash))
	if rerr != nil {
		if errors.Is(rerr, fs.ErrNotExist) {
			s.obs.Counter("serve.store.result_misses").Inc()
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("store: reading result %s.%s: %w", profileHash, configHash, rerr)
	}
	s.obs.Counter("serve.store.result_hits").Inc()
	return data, true, nil
}

// PutJobSpec journals a submitted job's spec envelope until its result
// commits. The journal is what a restarted server replays.
func (s *Store) PutJobSpec(id string, envelope any) error {
	if !validID(id) {
		return fmt.Errorf("store: malformed job id %q", id)
	}
	data, err := json.Marshal(envelope)
	if err != nil {
		return fmt.Errorf("store: encoding job %s: %w", id, err)
	}
	return s.writeAtomic(s.jobPath(id), data)
}

// DeleteJobSpec retires a journaled job (result committed, or the job
// was cancelled/permanently failed) along with its checkpoint and the
// checkpoint's sidecars.
func (s *Store) DeleteJobSpec(id string) error {
	if !validID(id) {
		return fmt.Errorf("store: malformed job id %q", id)
	}
	if err := s.fs.Remove(s.jobPath(id)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("store: removing job %s: %w", id, err)
	}
	// The checkpoint is recovery state for the journaled job; once the
	// job is retired it is dead weight, and so are its sidecars. Those go
	// only now, not when a sweep's coordinator closes: lease ids are
	// lease-<epoch>-<seq>, so the epoch must keep rising for as long as
	// the job can still resume. Best-effort: a leftover file is harmless
	// (keys are job-scoped).
	dir, ckpt := filepath.Split(s.CheckpointPath(id))
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if n := e.Name(); n == ckpt || strings.HasPrefix(n, ckpt+".") {
			_ = s.fs.Remove(filepath.Join(dir, n))
		}
	}
	return nil
}

// ListJobSpecs returns every journaled job id with its raw envelope —
// the restart-recovery scan. Temp files from interrupted journal writes
// are skipped (and are overwritten by the next write).
func (s *Store) ListJobSpecs() (map[string]json.RawMessage, error) {
	dir := filepath.Join(s.root, "jobs")
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: scanning %s: %w", dir, err)
	}
	out := make(map[string]json.RawMessage)
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		id := strings.TrimSuffix(name, ".json")
		if !validID(id) {
			continue
		}
		data, err := s.readAll(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("store: reading job %s: %w", id, err)
		}
		if !json.Valid(data) {
			// A torn journal entry can only be a crash between Create and
			// Rename that somehow landed under the committed name — which
			// the atomic protocol rules out — or operator damage. Skip it
			// rather than refuse to start.
			s.obs.Counter("serve.store.bad_job_specs").Inc()
			continue
		}
		out[id] = json.RawMessage(data)
	}
	return out, nil
}
