package eval

import (
	"context"
	"errors"
	"path/filepath"
	"sync/atomic"
	"testing"

	"github.com/uteda/gmap/internal/runner"
)

// TestInterruptedSweepResumesToIdenticalFigure is the end-to-end crash
// metamorphic test: a figure sweep cancelled mid-run (after some points
// reached the checkpoint) must, when resumed, execute only the missing
// points and render a figure byte-identical to an uninterrupted run.
func TestInterruptedSweepResumesToIdenticalFigure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "eval.ckpt")

	// Interrupt the first run from its own progress stream: the decile
	// lines fire while jobs are still draining, so cancelling there lands
	// in the middle of the sweep.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var fired atomic.Bool
	first := quickOpts()
	first.Workers = 1
	first.Checkpoint = path
	first.Context = ctx
	first.Progress = func(format string, args ...interface{}) {
		if fired.CompareAndSwap(false, true) {
			cancel()
		}
	}
	if _, err := first.Fig6a(); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted sweep error = %v, want context.Canceled", err)
	}

	recorded, err := runner.LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	k := len(recorded)
	total := 2 * 30 // quickOpts: nn + scalarprod, 30 L1 points each
	if k == 0 || k >= total {
		t.Fatalf("checkpoint holds %d/%d points; the cancel must land mid-sweep", k, total)
	}

	resumed := quickOpts()
	resumed.Checkpoint = path
	resumed.Resume = true
	fig, err := resumed.Fig6a()
	if err != nil {
		t.Fatal(err)
	}
	if st := resumed.ExecStats(); st.Skipped != k || st.Skipped+st.Completed != total {
		t.Errorf("resume stats = %+v, want %d skipped of %d total", st, k, total)
	}

	fresh := quickOpts()
	ref, err := fresh.Fig6a()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderFig(t, fig), renderFig(t, ref); got != want {
		t.Errorf("resumed figure differs from uninterrupted run:\nresumed:\n%s\nfresh:\n%s", got, want)
	}
}

// TestWorkerCountInvariance: the figure must be identical across worker
// counts, not just serial-vs-8 — any schedule of the same deterministic
// jobs reassembles to the same rows.
func TestWorkerCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("worker sweep is covered by TestParallelMatchesSerial in -short mode")
	}
	var want string
	for _, workers := range []int{1, 2, 3, 5} {
		opts := quickOpts()
		opts.Workers = workers
		fig, err := opts.Fig6a()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := renderFig(t, fig)
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("workers=%d diverged:\n%s\nwant:\n%s", workers, got, want)
		}
	}
}
