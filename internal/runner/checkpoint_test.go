package runner

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/uteda/gmap/internal/fault"
	"github.com/uteda/gmap/internal/memsim"
	"github.com/uteda/gmap/internal/obs"
	"github.com/uteda/gmap/internal/proptest"
)

// countingJobs returns jobs that record how many actually execute.
func countingJobs(n int, executed *atomic.Int32, failIdx int) []Job[int] {
	jobs := make([]Job[int], n)
	for i := 0; i < n; i++ {
		i := i
		jobs[i] = Job[int]{
			Key: JobKey("ckpt", fmt.Sprint(i)),
			Run: func(ctx context.Context) (int, error) {
				executed.Add(1)
				if i == failIdx {
					return 0, errors.New("transient failure")
				}
				return i * 10, nil
			},
		}
	}
	return jobs
}

func TestCheckpointResumeSkipsCompletedJobs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	var executed atomic.Int32

	first, stats1, err := Run(context.Background(),
		Options{Workers: 4, Checkpoint: path}, countingJobs(12, &executed, -1))
	if err != nil {
		t.Fatal(err)
	}
	if executed.Load() != 12 || stats1.Completed != 12 {
		t.Fatalf("first run executed %d, stats %+v", executed.Load(), stats1)
	}

	executed.Store(0)
	second, stats2, err := Run(context.Background(),
		Options{Workers: 4, Checkpoint: path, Resume: true}, countingJobs(12, &executed, -1))
	if err != nil {
		t.Fatal(err)
	}
	if executed.Load() != 0 {
		t.Errorf("resume re-executed %d jobs", executed.Load())
	}
	if stats2.Skipped != 12 || stats2.Completed != 0 {
		t.Errorf("resume stats = %+v", stats2)
	}
	for i := range second {
		if !second[i].Skipped || second[i].Value != first[i].Value {
			t.Errorf("job %d: %+v vs %+v", i, second[i], first[i])
		}
	}
}

func TestCheckpointDoesNotRecordFailures(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	var executed atomic.Int32
	if _, _, err := Run(context.Background(),
		Options{Workers: 2, Checkpoint: path}, countingJobs(6, &executed, 3)); err != nil {
		t.Fatal(err)
	}
	executed.Store(0)
	results, stats, err := Run(context.Background(),
		Options{Workers: 2, Checkpoint: path, Resume: true}, countingJobs(6, &executed, -1))
	if err != nil {
		t.Fatal(err)
	}
	// Only the previously failed job re-runs; this time it succeeds.
	if executed.Load() != 1 {
		t.Errorf("resume executed %d jobs, want 1", executed.Load())
	}
	if stats.Skipped != 5 || stats.Completed != 1 {
		t.Errorf("stats = %+v", stats)
	}
	if results[3].Err != nil || results[3].Value != 30 {
		t.Errorf("retried job = %+v", results[3])
	}
}

func TestCheckpointToleratesTornFinalLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	var executed atomic.Int32
	if _, _, err := Run(context.Background(),
		Options{Workers: 2, Checkpoint: path}, countingJobs(4, &executed, -1)); err != nil {
		t.Fatal(err)
	}
	// Simulate a kill mid-append: a torn, unparseable trailing line.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"deadbeef","val`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	executed.Store(0)
	_, stats, err := Run(context.Background(),
		Options{Workers: 2, Checkpoint: path, Resume: true}, countingJobs(4, &executed, -1))
	if err != nil {
		t.Fatal(err)
	}
	if executed.Load() != 0 || stats.Skipped != 4 {
		t.Errorf("torn line broke resume: executed=%d stats=%+v", executed.Load(), stats)
	}
}

// TestFreshRunSalvagesTornCheckpoint: a run without Resume still
// appends to a named checkpoint, so it must cut a torn tail first, or
// its first entry glues onto the garbage and a later resume loses it.
// It records the salvage counters but reuses no recorded value.
func TestFreshRunSalvagesTornCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	var executed atomic.Int32
	if _, _, err := Run(context.Background(),
		Options{Workers: 2, Checkpoint: path}, countingJobs(4, &executed, -1)); err != nil {
		t.Fatal(err)
	}
	const torn = `{"key":"deadbeef","val`
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	executed.Store(0)
	reg := obs.New()
	_, stats, err := Run(context.Background(),
		Options{Workers: 2, Checkpoint: path, Obs: reg}, countingJobs(4, &executed, -1))
	if err != nil {
		t.Fatal(err)
	}
	if executed.Load() != 4 || stats.Skipped != 0 {
		t.Errorf("a run without Resume reused recorded values: executed=%d stats=%+v", executed.Load(), stats)
	}
	if n := reg.Counter("runner.checkpoint_salvages").Value(); n != 1 {
		t.Errorf("runner.checkpoint_salvages = %d, want 1", n)
	}
	if n := reg.Counter("runner.checkpoint_torn_bytes").Value(); n != uint64(len(torn)) {
		t.Errorf("runner.checkpoint_torn_bytes = %d, want %d", n, len(torn))
	}
	sc, err := scanCheckpoint(fault.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if sv := sc.salvage; sv.Lines != 8 || sv.BadLines != 0 || sv.TornBytes != 0 {
		t.Fatalf("checkpoint after a fresh run over a torn tail: %+v; want 8 lines, no bad line, no torn bytes", sv)
	}
}

func TestResumeStrictRejectsForeignCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	var executed atomic.Int32
	if _, _, err := Run(context.Background(),
		Options{Workers: 1, Checkpoint: path}, countingJobs(4, &executed, -1)); err != nil {
		t.Fatal(err)
	}

	// A different job universe: zero keys overlap with the checkpoint.
	foreign := make([]Job[int], 3)
	for i := range foreign {
		i := i
		foreign[i] = Job[int]{
			Key: JobKey("other", fmt.Sprint(i)),
			Run: func(ctx context.Context) (int, error) { return i, nil },
		}
	}
	executed.Store(0)
	_, _, err := Run(context.Background(),
		Options{Workers: 2, Checkpoint: path, Resume: true, ResumeStrict: true}, foreign)
	if err == nil {
		t.Fatal("strict resume accepted a checkpoint from a different sweep")
	}
	for _, want := range []string{"resume mismatch", JobKey("ckpt", "0"), JobKey("other", "0")} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

func TestResumeStrictAllowsPartialOverlap(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	var executed atomic.Int32
	if _, _, err := Run(context.Background(),
		Options{Workers: 2, Checkpoint: path}, countingJobs(4, &executed, -1)); err != nil {
		t.Fatal(err)
	}

	// Half the keys match the checkpoint, half are new: a legitimately
	// extended sweep must not error, and only new jobs execute.
	jobs := countingJobs(4, &executed, -1)
	for i := 0; i < 2; i++ {
		i := i
		jobs = append(jobs, Job[int]{
			Key: JobKey("extra", fmt.Sprint(i)),
			Run: func(ctx context.Context) (int, error) {
				executed.Add(1)
				return i, nil
			},
		})
	}
	executed.Store(0)
	_, stats, err := Run(context.Background(),
		Options{Workers: 2, Checkpoint: path, Resume: true, ResumeStrict: true}, jobs)
	if err != nil {
		t.Fatalf("strict resume rejected a partially overlapping sweep: %v", err)
	}
	if stats.Skipped != 4 || executed.Load() != 2 {
		t.Errorf("skipped=%d executed=%d, want 4 skipped / 2 executed", stats.Skipped, executed.Load())
	}
}

func TestResumeStrictIgnoresEmptyCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "absent.ckpt")
	var executed atomic.Int32
	_, stats, err := Run(context.Background(),
		Options{Workers: 2, Checkpoint: path, Resume: true, ResumeStrict: true},
		countingJobs(3, &executed, -1))
	if err != nil {
		t.Fatalf("strict resume errored on a fresh run with no checkpoint: %v", err)
	}
	if stats.Completed != 3 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestLoadCheckpointMissingFile(t *testing.T) {
	m, err := LoadCheckpoint(filepath.Join(t.TempDir(), "nope.ckpt"))
	if err != nil || len(m) != 0 {
		t.Errorf("missing file: m=%v err=%v", m, err)
	}
}

func TestResumeWithChangedValueTypeRecomputes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	// Record a string-typed value under a key, then resume with int jobs
	// using the same key: the stale entry must be recomputed, not
	// force-fit.
	w, err := openCheckpoint(nil, path, false)
	if err != nil {
		t.Fatal(err)
	}
	key := JobKey("ckpt", "0")
	if err := w.append(key, "not an int", 0); err != nil {
		t.Fatal(err)
	}
	w.close()

	var executed atomic.Int32
	results, _, err := Run(context.Background(),
		Options{Workers: 1, Checkpoint: path, Resume: true}, countingJobs(1, &executed, -1))
	if err != nil {
		t.Fatal(err)
	}
	if executed.Load() != 1 || results[0].Value != 0 {
		t.Errorf("stale entry not recomputed: executed=%d results=%+v", executed.Load(), results)
	}
}

// simFigures is the checkpointed reduction of one simulation's metrics —
// exported fields only, like eval's point samples, so the JSON
// round-trip through the checkpoint is exact.
type simFigures struct {
	Cycles     uint64  `json:"cycles"`
	Requests   uint64  `json:"requests"`
	MSHRStalls uint64  `json:"mshr_stalls"`
	L1Miss     float64 `json:"l1_miss"`
	L2Miss     float64 `json:"l2_miss"`
	RBL        float64 `json:"rbl"`
}

func figuresOf(m memsim.Metrics) simFigures {
	return simFigures{
		Cycles:     m.Cycles,
		Requests:   m.Requests,
		MSHRStalls: m.MSHRStalls,
		L1Miss:     m.L1MissRate(),
		L2Miss:     m.L2MissRate(),
		RBL:        m.DRAM.RowBufferLocality(),
	}
}

// TestCheckpointResumeAfterSimPanic extends the crash matrix to
// simulation jobs: a panic in a simulating job's body must be contained
// by the runner's per-job panic isolation — failing only that job, never
// the process, never the checkpoint — and a resume afterwards must re-run
// just the poisoned job and reproduce a direct run's figures
// bit-identically. The armed job panics after its simulation: the runner
// cannot tell where in a body a panic started, and memsim's
// TestSimPanicPropagates pins that one raised inside Run reaches the
// caller unchanged.
func TestCheckpointResumeAfterSimPanic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "simpanic.ckpt")
	warps := proptest.New(0xfa17).WarpSet(8, 0.05)
	baseCfg := func(i int) memsim.Config {
		cfg := memsim.DefaultConfig()
		cfg.NumCores = 2
		cfg.Seed = uint64(i)
		return cfg
	}
	simJobs := func(arm *atomic.Bool) []Job[simFigures] {
		jobs := make([]Job[simFigures], 4)
		for i := range jobs {
			i := i
			jobs[i] = Job[simFigures]{
				Key: JobKey("simpanic", fmt.Sprint(i)),
				Run: func(ctx context.Context) (simFigures, error) {
					sim, err := memsim.New(warps, baseCfg(i))
					if err != nil {
						return simFigures{}, err
					}
					m, err := sim.Run()
					if err != nil {
						return simFigures{}, err
					}
					if i == 2 && arm != nil && arm.CompareAndSwap(true, false) {
						panic("injected fault after a simulation")
					}
					return figuresOf(m), nil
				},
			}
		}
		return jobs
	}

	arm := &atomic.Bool{}
	arm.Store(true)
	first, stats1, err := Run(context.Background(),
		Options{Workers: 2, Checkpoint: path}, simJobs(arm))
	if err != nil {
		t.Fatal(err)
	}
	if stats1.Completed != 3 || stats1.Failed != 1 {
		t.Fatalf("first run stats = %+v, want 3 completed / 1 failed", stats1)
	}
	if first[2].Err == nil || !strings.Contains(first[2].Err.Error(), "panicked") {
		t.Fatalf("poisoned job error = %v, want contained panic", first[2].Err)
	}

	// Resume: only the panicked job re-runs, and every figure matches a
	// direct run of the same configuration.
	var executed atomic.Int32
	counted := simJobs(nil)
	for i := range counted {
		run := counted[i].Run
		counted[i].Run = func(ctx context.Context) (simFigures, error) {
			executed.Add(1)
			return run(ctx)
		}
	}
	resumed, stats2, err := Run(context.Background(),
		Options{Workers: 2, Checkpoint: path, Resume: true}, counted)
	if err != nil {
		t.Fatal(err)
	}
	if executed.Load() != 1 || stats2.Skipped != 3 || stats2.Completed != 1 {
		t.Fatalf("resume executed %d jobs, stats = %+v; want 1 executed / 3 skipped", executed.Load(), stats2)
	}
	for i := range resumed {
		if resumed[i].Err != nil {
			t.Fatalf("job %d failed after resume: %v", i, resumed[i].Err)
		}
		sim, err := memsim.New(warps, baseCfg(i))
		if err != nil {
			t.Fatal(err)
		}
		want, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		if resumed[i].Value != figuresOf(want) {
			t.Errorf("job %d figures diverge from a direct run after resume:\n got:  %+v\n want: %+v",
				i, resumed[i].Value, figuresOf(want))
		}
	}
}
