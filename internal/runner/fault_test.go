package runner

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"

	"github.com/uteda/gmap/internal/fault"
	"github.com/uteda/gmap/internal/proptest"
)

// faultSeed returns the schedule seed for fault-injection properties:
// GMAP_FAULT_SEED overrides it so the nightly soak varies schedules and
// a failing one can be replayed exactly.
func faultSeed(t *testing.T) uint64 {
	if v := os.Getenv("GMAP_FAULT_SEED"); v != "" {
		s, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			t.Fatalf("bad GMAP_FAULT_SEED %q: %v", v, err)
		}
		return s
	}
	return 7
}

func deterministicJobs(n int) []Job[int] {
	jobs := make([]Job[int], n)
	for i := 0; i < n; i++ {
		i := i
		jobs[i] = Job[int]{
			Key: JobKey("fault", fmt.Sprint(i)),
			Run: func(ctx context.Context) (int, error) { return i * 7, nil },
		}
	}
	return jobs
}

// TestCrashMatrixResume is the crash-consistency matrix: a checkpoint cut
// at EVERY byte-offset class — file start, mid-first-line, each line
// boundary and one byte either side of it, and end-of-file — must resume
// to results identical to a fault-free run, with the torn tail truncated
// so the file is append-clean again.
func TestCrashMatrixResume(t *testing.T) {
	const total = 6
	ref := filepath.Join(t.TempDir(), "ref.ckpt")
	want, _, err := Run(context.Background(), Options{Workers: 1, Checkpoint: ref}, deterministicJobs(total))
	if err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}

	// Every line boundary, ±1 around each, plus start/mid/end offsets.
	// Cuts are named by offset class, not byte offset: checkpoint lines
	// carry wall-clock timings, so their lengths vary from run to run.
	type cut struct {
		name string
		off  int
	}
	cuts := []cut{{"start", 0}, {"first-byte", 1}, {"eof", len(full)}}
	if len(full) > 2 {
		cuts = append(cuts, cut{"mid-file", len(full) / 2})
	}
	pos := 0
	for i, line := range bytes.SplitAfter(full, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		name := fmt.Sprintf("line%d/", i+1)
		cuts = append(cuts, cut{name + "mid", pos + len(line)/2}) // mid-line tear
		pos += len(line)
		cuts = append(cuts, cut{name + "boundary", pos}) // clean boundary
		if pos-1 > 0 {
			cuts = append(cuts, cut{name + "boundary-1", pos - 1}) // newline torn off
		}
		if pos+1 <= len(full) {
			cuts = append(cuts, cut{name + "boundary+1", pos + 1})
		}
	}

	for _, c := range cuts {
		off := c.off
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.ckpt")
			if err := os.WriteFile(path, full[:off], 0o644); err != nil {
				t.Fatal(err)
			}
			results, st, err := Run(context.Background(),
				Options{Workers: 4, Checkpoint: path, Resume: true}, deterministicJobs(total))
			if err != nil {
				t.Fatalf("resume from cut at %d: %v", off, err)
			}
			if st.Failed != 0 || st.Completed+st.Skipped != total {
				t.Fatalf("stats = %+v", st)
			}
			for i := range results {
				if results[i].Key != want[i].Key || results[i].Value != want[i].Value {
					t.Fatalf("result %d = {%s %d}, fault-free run had {%s %d}",
						i, results[i].Key, results[i].Value, want[i].Key, want[i].Value)
				}
			}
			// The finished checkpoint must be fully parseable with every
			// key present: no torn garbage survived the salvage.
			m, salvage, err := SalvageCheckpoint(nil, path)
			if err != nil {
				t.Fatal(err)
			}
			if len(m) != total || salvage.TornBytes != 0 || salvage.BadLines != 0 {
				t.Fatalf("post-run checkpoint: %d keys, salvage %+v", len(m), salvage)
			}
		})
	}
}

// TestTornTailDoubleResume is the glued-line regression: a torn tail
// without a trailing newline must be truncated on resume — otherwise the
// first entry appended by the resumed run glues onto the garbage, parses
// on the NEXT resume as one corrupt line, and that job's result is
// silently lost again.
func TestTornTailDoubleResume(t *testing.T) {
	const total = 4
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if _, _, err := Run(context.Background(),
		Options{Workers: 1, Checkpoint: path}, deterministicJobs(total-1)); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"torn`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// First resume executes job 3 and appends it.
	if _, st, err := Run(context.Background(),
		Options{Workers: 1, Checkpoint: path, Resume: true}, deterministicJobs(total)); err != nil || st.Completed != 1 {
		t.Fatalf("first resume: err=%v stats=%+v", err, st)
	}
	// Second resume must see all four entries; with the tail left in
	// place, job 3's line would have merged into the garbage.
	_, st, err := Run(context.Background(),
		Options{Workers: 1, Checkpoint: path, Resume: true}, deterministicJobs(total))
	if err != nil {
		t.Fatal(err)
	}
	if st.Skipped != total || st.Completed != 0 {
		t.Fatalf("second resume stats = %+v, want all %d skipped", st, total)
	}
}

// TestRetryConvergesToFaultFree is the fault-schedule invariance
// property: under a seeded bounded transient-failure schedule, a run
// retrying at least MaxFailures times produces results bit-identical to
// a fault-free run, and the retry counters account exactly for the
// injected failures.
func TestRetryConvergesToFaultFree(t *testing.T) {
	const total = 30
	want, _, err := Run(context.Background(), Options{Workers: 1}, deterministicJobs(total))
	if err != nil {
		t.Fatal(err)
	}
	// Each round is one seeded failure schedule; GMAP_PROPTEST_N raises
	// the round count in the nightly soak, GMAP_FAULT_SEED shifts the
	// whole seed range for replay.
	rounds := proptest.N(t, 2, 8)
	base := faultSeed(t)
	for round := 0; round < rounds; round++ {
		checkRetryConvergence(t, want, base+uint64(round)*7919)
	}
}

func checkRetryConvergence(t *testing.T, want []Result[int], seed uint64) {
	t.Helper()
	total := len(want)
	sched := &fault.Schedule{Seed: seed, FailProb: 0.5, MaxFailures: 3}
	var wantRetries int
	for i := 0; i < total; i++ {
		wantRetries += sched.Failures(JobKey("fault", fmt.Sprint(i)))
	}
	if wantRetries == 0 {
		t.Fatalf("degenerate schedule (seed %d): no failures injected", seed)
	}

	results, st, err := Run(context.Background(), Options{
		Workers: 4,
		Retries: sched.MaxFailures,
		Inject:  sched,
	}, deterministicJobs(total))
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if st.Failed != 0 {
		t.Fatalf("seed %d: %d jobs failed despite full retry budget", seed, st.Failed)
	}
	if st.Retries != wantRetries {
		t.Errorf("seed %d: Stats.Retries = %d, schedule injected %d failures", seed, st.Retries, wantRetries)
	}
	for i := range results {
		if results[i].Key != want[i].Key || results[i].Value != want[i].Value {
			t.Fatalf("seed %d: result %d = {%s %d}, fault-free run had {%s %d}",
				seed, i, results[i].Key, results[i].Value, want[i].Key, want[i].Value)
		}
		if wantA := sched.Failures(results[i].Key) + 1; results[i].Attempts != wantA {
			t.Errorf("seed %d: job %s Attempts = %d, want %d", seed, results[i].Key, results[i].Attempts, wantA)
		}
	}
}

// TestRetryBudgetExhaustion: a job flakier than the retry budget fails
// with its transient error and its attempt count recorded.
func TestRetryBudgetExhaustion(t *testing.T) {
	jobs := []Job[int]{{
		Key: "always-flaky",
		Run: func(ctx context.Context) (int, error) { return 0, fault.Transient(errors.New("still down")) },
	}}
	results, st, err := Run(context.Background(), Options{Workers: 1, Retries: 2}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err == nil || results[0].Attempts != 3 {
		t.Fatalf("result = %+v, want failure after 3 attempts", results[0])
	}
	if st.Failed != 1 || st.Retries != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestFatalErrorsAreNotRetried: classification gates the retry loop —
// a fatal (non-transient) failure consumes exactly one attempt.
func TestFatalErrorsAreNotRetried(t *testing.T) {
	var runs atomic.Int32
	jobs := []Job[int]{{
		Key: "fatal",
		Run: func(ctx context.Context) (int, error) {
			runs.Add(1)
			return 0, fault.ErrInjectedENOSPC
		},
	}}
	results, st, err := Run(context.Background(), Options{Workers: 1, Retries: 5}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 1 || results[0].Attempts != 1 {
		t.Fatalf("fatal error retried: runs=%d attempts=%d", runs.Load(), results[0].Attempts)
	}
	if !errors.Is(results[0].Err, syscall.ENOSPC) {
		t.Fatalf("error lost its identity: %v", results[0].Err)
	}
	if st.Retries != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestTransientJobErrorRecovers: a job whose own error (not an injected
// one) classifies transient succeeds on a later attempt and reports its
// attempt count through events.
func TestTransientJobErrorRecovers(t *testing.T) {
	var calls atomic.Int32
	jobs := []Job[int]{{
		Key: "recovers",
		Run: func(ctx context.Context) (int, error) {
			if calls.Add(1) < 3 {
				return 0, fault.Transient(errors.New("warming up"))
			}
			return 42, nil
		},
	}}
	var evAttempts int
	results, _, err := Run(context.Background(), Options{
		Workers: 1,
		Retries: 3,
		OnEvent: func(e Event) {
			if e.Kind == JobDone {
				evAttempts = e.Attempts
			}
		},
	}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil || results[0].Value != 42 || results[0].Attempts != 3 {
		t.Fatalf("result = %+v", results[0])
	}
	if evAttempts != 3 {
		t.Fatalf("event attempts = %d, want 3", evAttempts)
	}
}

// TestCheckpointAppendErrorAbortsRun: a checkpoint that stops accepting
// writes (injected ENOSPC) must fail the run loudly instead of silently
// executing jobs whose results are never recorded.
func TestCheckpointAppendErrorAbortsRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	ifs := &fault.InjectFS{WritePlanFor: func(name string) *fault.WritePlan {
		return fault.NewWritePlan().ErrorAt(10, fault.ErrInjectedENOSPC)
	}}
	_, _, err := Run(context.Background(),
		Options{Workers: 2, Checkpoint: path, FS: ifs}, deterministicJobs(20))
	if err == nil {
		t.Fatal("run with unwritable checkpoint reported success")
	}
	if !errors.Is(err, syscall.ENOSPC) || !strings.Contains(err.Error(), "checkpoint") {
		t.Fatalf("error = %v, want checkpoint ENOSPC", err)
	}
}

// TestCheckpointCrashThenResume: an injected crash point mid-append tears
// the file at an arbitrary byte; a resumed run against the real
// filesystem completes and matches the fault-free results.
func TestCheckpointCrashThenResume(t *testing.T) {
	const total = 8
	want, _, err := Run(context.Background(), Options{Workers: 1}, deterministicJobs(total))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.ckpt")
	ifs := &fault.InjectFS{WritePlanFor: func(name string) *fault.WritePlan {
		return fault.NewWritePlan().CrashAt(100)
	}}
	if _, _, err := Run(context.Background(),
		Options{Workers: 1, Checkpoint: path, FS: ifs}, deterministicJobs(total)); err == nil {
		t.Fatal("crashed checkpoint stream reported success")
	}
	results, st, err := Run(context.Background(),
		Options{Workers: 2, Checkpoint: path, Resume: true}, deterministicJobs(total))
	if err != nil {
		t.Fatal(err)
	}
	if st.Failed != 0 {
		t.Fatalf("stats = %+v", st)
	}
	for i := range results {
		if results[i].Value != want[i].Value {
			t.Fatalf("result %d = %d, want %d", i, results[i].Value, want[i].Value)
		}
	}
}

// TestCompactionAtomicUnderRenameFailure: a failed rename leaves the
// original checkpoint fully intact — compaction is all-or-nothing.
func TestCompactionAtomicUnderRenameFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	w, err := openCheckpoint(nil, path, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := w.append("hot-key", i, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.append("other", -1, 0); err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}

	ifs := &fault.InjectFS{RenameErr: func(o, n string) error { return fault.ErrInjectedEIO }}
	if _, err := CompactCheckpoint(ifs, path); err == nil {
		t.Fatal("compaction with failing rename reported success")
	}
	m, salvage, err := SalvageCheckpoint(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 2 || salvage.Lines != 101 {
		t.Fatalf("failed compaction damaged the original: %d keys, %d lines", len(m), salvage.Lines)
	}
	if _, err := os.Stat(path + ".compact.tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("stale temp file left behind: %v", err)
	}

	// And a fault-free compaction rewrites to one line per key, latest
	// value winning, first-appearance order preserved.
	s, err := CompactCheckpoint(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Compacted {
		t.Fatalf("salvage = %+v", s)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 || !strings.Contains(lines[0], `"hot-key"`) || !strings.Contains(lines[0], ":99") {
		t.Fatalf("compacted file:\n%s", data)
	}
}

// TestAutoCompactionOnResume: a checkpoint dominated by re-recorded keys
// is compacted automatically when a run resumes from it.
func TestAutoCompactionOnResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	w, err := openCheckpoint(nil, path, false)
	if err != nil {
		t.Fatal(err)
	}
	key0 := JobKey("fault", "0")
	for i := 0; i < 80; i++ {
		// Same key re-recorded 80 times; the last value must win.
		if err := w.append(key0, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	results, st, err := Run(context.Background(),
		Options{Workers: 1, Checkpoint: path, Resume: true}, deterministicJobs(2))
	if err != nil {
		t.Fatal(err)
	}
	if st.Skipped != 1 || st.Completed != 1 || results[0].Value != 0 || results[1].Value != 7 {
		t.Fatalf("stats=%+v results=%+v", st, results)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(strings.Split(strings.TrimSpace(string(data)), "\n")); n != 2 {
		t.Fatalf("resume left %d lines, want 2 (compacted + appended)", n)
	}
}

// TestRetryDelayDeterministic: the backoff (including jitter) is a pure
// function of (base, key, attempt) — no wall-clock or global randomness.
func TestRetryDelayDeterministic(t *testing.T) {
	if d := RetryDelay(0, "k", 1); d != 0 {
		t.Fatalf("zero base must not sleep, got %v", d)
	}
	d1 := RetryDelay(1000, "k", 2)
	if d2 := RetryDelay(1000, "k", 2); d2 != d1 {
		t.Fatalf("same inputs gave %v then %v", d1, d2)
	}
	if d1 < 2000 || d1 > 2500 {
		t.Fatalf("attempt-2 delay %v outside [2×base, 2×base+base/2]", d1)
	}
	if RetryDelay(1000, "k", 2) == RetryDelay(1000, "other-key", 2) &&
		RetryDelay(1000, "k", 3) == RetryDelay(1000, "other-key", 3) {
		t.Error("jitter ignores the job key")
	}
}
