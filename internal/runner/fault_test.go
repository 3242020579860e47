package runner

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"github.com/uteda/gmap/internal/fault"
)

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

// TestResumeAppendsWithoutRewriting: resume never rewrites what a
// checkpoint holds. A key recorded more than once is restored and
// skipped, the file's bytes stay in place as a prefix, and only the
// pending job's line is appended after them.
func TestResumeAppendsWithoutRewriting(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	w, err := openCheckpoint(nil, path, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.append(JobKey("fault", "0"), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	results, st, err := Run(context.Background(),
		Options{Workers: 1, Checkpoint: path, Resume: true}, deterministicJobs(2))
	if err != nil {
		t.Fatal(err)
	}
	if st.Skipped != 1 || st.Completed != 1 || st.Retries != 0 ||
		results[0].Value != 0 || results[1].Value != 7 {
		t.Fatalf("stats=%+v results=%+v", st, results)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(after, before) {
		t.Fatalf("resume rewrote the recorded lines:\nbefore:\n%s\nafter:\n%s", before, after)
	}
	if added := strings.Count(string(after[len(before):]), "\n"); added != 1 {
		t.Fatalf("resume appended %d lines, want 1 (the pending job)", added)
	}
	_, sv, err := SalvageCheckpoint(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if sv.Lines != 4 || sv.Entries != 2 {
		t.Errorf("salvage = %+v, want 4 lines over 2 entries", sv)
	}
}
