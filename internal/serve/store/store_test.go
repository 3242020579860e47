package store_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/uteda/gmap/internal/fault"
	"github.com/uteda/gmap/internal/obs"
	"github.com/uteda/gmap/internal/profiler"
	"github.com/uteda/gmap/internal/proptest"
	"github.com/uteda/gmap/internal/serve/store"
)

func open(t *testing.T, fsys fault.FS, reg *obs.Registry) *store.Store {
	t.Helper()
	s, err := store.Open(t.TempDir(), fsys, reg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCanonicalIdempotent is the hash-stability property: decoding a
// profile's canonical bytes and re-canonicalizing reproduces them
// exactly, so hash(canon(p)) == hash(canon(canon(p))) whatever
// formatting the submission used.
func TestCanonicalIdempotent(t *testing.T) {
	n := proptest.N(t, 50, 300)
	for seed := 0; seed < n; seed++ {
		g := proptest.New(uint64(seed) + 1)
		p := g.Profile()
		canon, err := store.CanonicalProfile(p)
		if err != nil {
			t.Fatalf("seed %d: canonicalize: %v", seed, err)
		}
		p2, err := profiler.ReadJSON(bytes.NewReader(canon))
		if err != nil {
			t.Fatalf("seed %d: re-decode canonical bytes: %v", seed, err)
		}
		canon2, err := store.CanonicalProfile(p2)
		if err != nil {
			t.Fatalf("seed %d: re-canonicalize: %v", seed, err)
		}
		if !bytes.Equal(canon, canon2) {
			t.Fatalf("seed %d: canonicalization not idempotent:\n%s\nvs\n%s", seed, canon, canon2)
		}
		if store.HashBytes(canon) != store.HashBytes(canon2) {
			t.Fatalf("seed %d: hash changed across canonicalization rounds", seed)
		}
		// An indented re-encoding of the same profile must still land on
		// the same canonical bytes after a decode round-trip.
		loose, err := json.MarshalIndent(p, "", "   ")
		if err != nil {
			t.Fatal(err)
		}
		p3, err := profiler.ReadJSON(bytes.NewReader(loose))
		if err != nil {
			t.Fatalf("seed %d: decode indented: %v", seed, err)
		}
		canon3, err := store.CanonicalProfile(p3)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(canon, canon3) {
			t.Fatalf("seed %d: formatting leaked into the canonical encoding", seed)
		}
	}
}

// TestCanonicalInjective is the collision property: structurally
// different profiles canonicalize to different bytes (and so different
// hashes). Random pairs plus targeted single-field perturbations.
func TestCanonicalInjective(t *testing.T) {
	n := proptest.N(t, 30, 200)
	for seed := 0; seed < n; seed++ {
		g1 := proptest.New(uint64(seed)*2 + 1)
		g2 := proptest.New(uint64(seed)*2 + 2)
		p1, p2 := g1.Profile(), g2.Profile()
		c1, err := store.CanonicalProfile(p1)
		if err != nil {
			t.Fatal(err)
		}
		c2, err := store.CanonicalProfile(p2)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(c1, c2) {
			// Identical draws are astronomically unlikely; treat as failure.
			t.Fatalf("seed %d: independent random profiles canonicalized identically", seed)
		}

		// Single-field perturbation must change the hash.
		mut := proptest.New(uint64(seed) + 7).Profile()
		base, err := store.CanonicalProfile(mut)
		if err != nil {
			t.Fatal(err)
		}
		mut.Insts[0].Count++
		mut.TotalRequests++
		changed, err := store.CanonicalProfile(mut)
		if err != nil {
			t.Fatal(err)
		}
		if store.HashBytes(base) == store.HashBytes(changed) {
			t.Fatalf("seed %d: perturbed profile kept its hash", seed)
		}
	}
}

func TestPutProfileDedup(t *testing.T) {
	reg := obs.New()
	s := open(t, nil, reg)
	p := proptest.New(11).Profile()
	h1, existed, err := s.PutProfile(p)
	if err != nil {
		t.Fatal(err)
	}
	if existed {
		t.Fatal("first put reported existed")
	}
	h2, existed, err := s.PutProfile(p)
	if err != nil {
		t.Fatal(err)
	}
	if !existed || h2 != h1 {
		t.Fatalf("second put: existed=%v hash=%s want dedup onto %s", existed, h2, h1)
	}
	got, err := s.GetProfile(h1)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := store.CanonicalProfile(got)
	if err != nil {
		t.Fatal(err)
	}
	if store.HashBytes(rt) != h1 {
		t.Fatal("stored profile does not round-trip to its own hash")
	}
	if n := reg.CounterTotal("serve.store.profile_dedup"); n != 1 {
		t.Fatalf("profile_dedup = %d, want 1", n)
	}
}

func TestGetProfileGuards(t *testing.T) {
	s := open(t, nil, nil)
	if _, err := s.GetProfile("../../etc/passwd"); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("traversal hash: err = %v, want ErrNotFound", err)
	}
	if _, err := s.GetProfile(strings.Repeat("a", 64)); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("absent hash: err = %v, want ErrNotFound", err)
	}
}

func TestResultCache(t *testing.T) {
	reg := obs.New()
	s := open(t, nil, reg)
	ph := store.HashBytes([]byte("profile"))
	ch := store.HashBytes([]byte("config"))
	if _, ok, err := s.GetResult(ph, ch); err != nil || ok {
		t.Fatalf("empty cache: ok=%v err=%v", ok, err)
	}
	if err := s.PutResult(ph, ch, []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	// Results are immutable: a second put of the same key is a no-op.
	if err := s.PutResult(ph, ch, []byte(`{"v":2}`)); err != nil {
		t.Fatal(err)
	}
	data, ok, err := s.GetResult(ph, ch)
	if err != nil || !ok {
		t.Fatalf("cached result: ok=%v err=%v", ok, err)
	}
	if string(data) != `{"v":1}` {
		t.Fatalf("cached result = %s, want the first committed value", data)
	}
	if hits, misses := reg.CounterTotal("serve.store.result_hits"), reg.CounterTotal("serve.store.result_misses"); hits != 1 || misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", hits, misses)
	}
}

func TestJobJournal(t *testing.T) {
	s := open(t, nil, nil)
	id := strings.Repeat("ab", 12)
	env := map[string]string{"tenant": "t1"}
	if err := s.PutJobSpec(id, env); err != nil {
		t.Fatal(err)
	}
	specs, err := s.ListJobSpecs()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 || specs[id] == nil {
		t.Fatalf("ListJobSpecs = %v, want one entry for %s", specs, id)
	}
	// The checkpoint and its sidecars (the sweep coordinator's epoch,
	// and a lease journal an older coordinator wrote) retire with the
	// job; another job's files stay.
	other := s.CheckpointPath(strings.Repeat("cd", 12))
	owned := []string{s.CheckpointPath(id), s.CheckpointPath(id) + ".epoch", s.CheckpointPath(id) + ".leases"}
	for _, p := range append(owned, other) {
		if err := os.WriteFile(p, []byte("x\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.DeleteJobSpec(id); err != nil {
		t.Fatal(err)
	}
	for _, p := range owned {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("%s survived its job's retirement (stat err %v)", p, err)
		}
	}
	if _, err := os.Stat(other); err != nil {
		t.Errorf("another job's checkpoint was removed: %v", err)
	}
	if err := s.DeleteJobSpec(id); err != nil {
		t.Fatalf("double delete: %v", err)
	}
	specs, err = s.ListJobSpecs()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 0 {
		t.Fatalf("journal not empty after delete: %v", specs)
	}
	if err := s.PutJobSpec("../evil", env); err == nil {
		t.Fatal("traversal job id accepted")
	}
}

// TestCrashMatrixNeverCorruptsCommitted is the durability contract: a
// crash at ANY byte offset of a store write — profile, result or
// journal entry — leaves every previously committed object intact and
// never exposes a partial object under a committed name.
func TestCrashMatrixNeverCorruptsCommitted(t *testing.T) {
	p := proptest.New(3).Profile()
	canon, err := store.CanonicalProfile(p)
	if err != nil {
		t.Fatal(err)
	}
	resultData := []byte(`{"kind":"sweep","report":"== fig6a ==\n"}`)
	ph := store.HashBytes([]byte("what"))
	ch := store.HashBytes([]byte("how"))
	jobEnv := map[string]string{"tenant": "t1", "kind": "sweep", "experiment": "fig6a"}
	jobData, err := json.Marshal(jobEnv)
	if err != nil {
		t.Fatal(err)
	}

	type op struct {
		name string
		size int // byte length of the injected write stream
		do   func(s *store.Store) error
	}
	ops := []op{
		{"profile", len(canon), func(s *store.Store) error { _, _, err := s.PutProfile(p); return err }},
		{"result", len(resultData), func(s *store.Store) error { return s.PutResult(ph, ch, resultData) }},
		{"jobspec", len(jobData), func(s *store.Store) error { return s.PutJobSpec(strings.Repeat("cd", 12), jobEnv) }},
	}

	for _, o := range ops {
		// Crash at every offset of the write, plus at the rename.
		for crashAt := 0; crashAt <= o.size; crashAt += maxInt(1, o.size/17) {
			t.Run(fmt.Sprintf("%s@%d", o.name, crashAt), func(t *testing.T) {
				root := t.TempDir()
				// Commit a baseline object of each kind first, fault-free.
				clean, err := store.Open(root, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				baseHash, _, err := clean.PutProfile(proptest.New(99).Profile())
				if err != nil {
					t.Fatal(err)
				}
				if err := clean.PutResult(ch, ph, []byte(`{"committed":true}`)); err != nil {
					t.Fatal(err)
				}

				at := int64(crashAt)
				inject := &fault.InjectFS{
					WritePlanFor: func(name string) *fault.WritePlan {
						if strings.HasSuffix(name, ".tmp") {
							return fault.NewWritePlan().CrashAt(at)
						}
						return nil
					},
				}
				s, err := store.Open(root, inject, nil)
				if err != nil {
					t.Fatal(err)
				}
				if err := o.do(s); err == nil && crashAt < o.size {
					t.Fatalf("crash at byte %d reported success", crashAt)
				}
				verifyCommitted(t, root, baseHash)
			})
		}

		// Crash between write and rename: temp file fully written, never
		// committed.
		t.Run(o.name+"/rename", func(t *testing.T) {
			root := t.TempDir()
			clean, err := store.Open(root, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			baseHash, _, err := clean.PutProfile(proptest.New(99).Profile())
			if err != nil {
				t.Fatal(err)
			}
			inject := &fault.InjectFS{
				RenameErr: func(oldname, newname string) error {
					if strings.HasSuffix(oldname, ".tmp") {
						return fault.ErrCrash
					}
					return nil
				},
			}
			s, err := store.Open(root, inject, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := o.do(s); err == nil {
				t.Fatal("crashed rename reported success")
			}
			verifyCommitted(t, root, baseHash)
		})
	}
}

// verifyCommitted re-opens the store fault-free and checks that every
// object visible under a committed name is complete and valid.
func verifyCommitted(t *testing.T, root, baseHash string) {
	t.Helper()
	s, err := store.Open(root, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The baseline profile survives, readable and hash-consistent.
	got, err := s.GetProfile(baseHash)
	if err != nil {
		t.Fatalf("baseline profile corrupted: %v", err)
	}
	canon, err := store.CanonicalProfile(got)
	if err != nil {
		t.Fatal(err)
	}
	if store.HashBytes(canon) != baseHash {
		t.Fatal("baseline profile no longer matches its content address")
	}
	// Every committed file parses; no partial object is visible.
	for _, sub := range []string{"profiles", "results", "jobs"} {
		entries, err := os.ReadDir(filepath.Join(root, sub))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			name := e.Name()
			if strings.HasSuffix(name, ".tmp") {
				continue // uncommitted temp debris is allowed, never visible as an object
			}
			data, err := os.ReadFile(filepath.Join(root, sub, name))
			if err != nil {
				t.Fatal(err)
			}
			if !json.Valid(data) {
				t.Fatalf("%s/%s holds invalid JSON after crash: %q", sub, name, data)
			}
		}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
